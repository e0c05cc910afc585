"""Self-tests of the benchmark: smoke runs, seeding, the checker, error
isolation and the hand-written reference."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from fmmbench.check import Checker  # noqa: E402
from fmmbench.handwritten import strassen_1level  # noqa: E402
from fmmbench.measure import Kind, run_rounds  # noqa: E402
from fmmbench.procs import process_table, stop_group  # noqa: E402
from fmmbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEPT = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, out: Path) -> tuple[int, dict]:
    """One tiny run in a session of its own; once it has exited, no process
    of its group (pool worker, resource tracker, child) may be left."""
    with open(out.parent / "stdout", "w+") as so, open(out.parent / "stderr", "w+") as se:
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "fmmbench" / "run.py"), "--workload", workload,
             "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
             "--scale", "tiny", "--out", str(out)],
            cwd=ROOT, stdout=so, stderr=se, start_new_session=True,
        )
        try:
            code = proc.wait(timeout=170)
            left = [pid for pid, _, pgid in process_table() if pgid == proc.pid]
        finally:
            stop_group(proc.pid)
        so.seek(0)
        se.seek(0)
        stdout, stderr = so.read(), se.read()
    assert stdout.strip(), stderr
    assert not left, f"processes left behind: {left}"
    return code, json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", KEPT)
def test_smoke_prints_every_metric_with_unit(workload, trace, tmp_path):
    code, res = _run(workload, trace, tmp_path / "run")
    assert code == 0 and res["correct"], res
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["attempted"] >= 1 and res["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m: v["unit"] for m, v in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())
    assert (tmp_path / "run" / "detail.json").exists()
    if trace:
        assert (tmp_path / "run" / "spans.json").exists()


def test_workloads_agree_with_benchmark_json_and_cli():
    from fmmbench.run import WORKLOAD_NAMES

    assert set(WORKLOAD_NAMES) == set(WORKLOADS)
    for w in SPEC["workloads"]:
        assert WORKLOADS[w["name"]].why == w["why"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_inputs_other_seed_other_values(workload):
    wl = WORKLOADS[workload]
    a, b, c = (wl.problems(s, "tiny") for s in (5, 5, 6))
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.A, pb.A) and np.array_equal(pa.B, pb.B)
    assert any(pa.A.shape != pc.A.shape or not np.array_equal(pa.A, pc.A)
               for pa, pc in zip(a, c))


def test_checker_accepts_exact_and_rejects_perturbed_product():
    p = WORKLOADS["rank_k_f32"].problems(1, "tiny")[0]
    checker = Checker()
    C = np.matmul(p.A, p.B)
    assert checker.check("matmul", p, C, ("classical", 1))
    bad = C.copy()
    bad[3, 5] += 1e-3 * np.linalg.norm(C)
    assert not checker.check("bad", p, bad, ("<3,2,3>", 1))
    assert not checker.check("nan", p, np.full_like(C, np.nan), ("<3,2,3>", 1))
    assert checker.failed == 2
    assert {f["kind"] for f in checker.failures} == {"bad", "nan"}
    assert all({"problem", "error", "bound"} <= set(f) for f in checker.failures)


def test_error_in_one_kind_is_counted_and_run_continues():
    problems = WORKLOADS["small_calls"].problems(1, "tiny")
    calls = {"n": 0}

    def flaky(p):
        calls["n"] += 1
        if calls["n"] % 2:
            raise RuntimeError("injected")
        return p.A @ p.B

    kinds = [Kind("matmul", lambda p: p.A @ p.B, lambda p: ("classical", 1)),
             Kind("flaky", flaky, lambda p: ("classical", 1))]
    checker = Checker()
    samples = run_rounds(problems, kinds, 0.0, checker, np.random.default_rng(0),
                         1.0, min_rounds=4)
    assert checker.attempted == 2 * 4 * len(problems)
    assert checker.failed == 2 * len(problems)
    assert checker.ok_frac == pytest.approx(0.75)
    assert all(len(samples.get("matmul", p.index)) == 4 for p in problems)
    assert "injected" in checker.failures[0]["reason"]


@pytest.mark.parametrize("shape", [(4, 4, 4), (5, 7, 9), (33, 31, 35), (2, 1, 2)])
def test_handwritten_strassen_within_bound(shape):
    m, k, n = shape
    rng = np.random.default_rng(0)
    A, B = rng.standard_normal((m, k)), rng.standard_normal((k, n))
    np.testing.assert_allclose(strassen_1level(A, B), A @ B, atol=1e-12)

"""Run one workload: set-up children, warm closed-loop rounds, service
bursts, memory probes, per-layer probes (traced runs) and the leak check.

Every call goes through ``repro``'s public functions; nothing here reaches
into the program's internals.  Per-problem figures of the pool workload
are summed over its problems.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import repro
from repro.core.compile import compile as compile_plan
from repro.core.procpool import process_pool_info, shutdown_process_pools
from repro.core.runtime import shutdown_pools
from repro.core.spec import resolve_levels
from repro.core.workspace import arena_stats, shared_arena_clear
from repro.model.machines import generic_laptop

from fmmbench.check import Checker
from fmmbench.handwritten import strassen_1level
from fmmbench.host import host_stamp
from fmmbench.measure import (
    Kind,
    Samples,
    call_checked,
    run_rounds,
    run_service,
    shm_segments,
    summary,
)
from fmmbench.procs import stop_group
from fmmbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[1]
MIB = 2.0 ** 20

#: Seconds a set-up or memory child may take.
CHILD_TIMEOUT_S = 150

#: Share of a sampled call's outputs checked after the first (always checked).
CHECK_RATE = 0.25

#: Shares of ``--seconds`` given to each measured phase.
UNTRACED_SHARES = {"rounds": 0.75, "service": 0.25}
TRACED_SHARES = {"rounds": 0.45, "micro": 0.1, "service": 0.15, "overhead": 0.3}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def _ratio(num, den):
    return None if num is None or not den else num / den


def run_child(mode: str, wl, seed: int, scale: str, trace: bool,
              run_dir: Path, checker, first, tag: str) -> dict | None:
    """One fresh interpreter (``child.py``) with its own empty wisdom file;
    its calls count as attempted and its check failures as failed.  What
    is left of its process group when it ends is killed and waited for."""
    env = dict(os.environ, REPRO_WISDOM=str(run_dir / f"{tag}.wisdom.json"))
    cmd = [sys.executable, str(ROOT / "fmmbench" / "child.py"), "--mode", mode,
           "--workload", wl.name, "--seed", str(seed), "--scale", scale,
           "--trace", str(int(trace))]
    # A session of its own, so whatever the child leaves is one process group.
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True,
                          start_new_session=True) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            stop_group(proc.pid)
            proc.communicate()
            stdout = None
    stop_group(proc.pid)
    if stdout is None:
        checker.attempt()
        checker.fail(mode, first, "child timed out")
        return None
    if proc.returncode != 0:
        checker.attempt()
        checker.fail(mode, first, f"child exited {proc.returncode}: "
                                  f"{stderr.strip()[-500:]}")
        return None
    res = json.loads(stdout.strip().splitlines()[-1])
    checker.attempt(res["calls"])
    for f in res["failures"]:
        checker.fail(f["kind"], first, f"{f['problem']}: {f['reason']}",
                     error=f.get("error"), bound=f.get("bound"))
    return res


def make_kinds(wl, problems, picks, traced: bool) -> dict[str, Kind]:
    """The ways each problem is multiplied; the last three only when traced."""
    sched = (wl.schedule, 1)
    kinds = {
        "matmul": Kind("matmul", lambda p: np.matmul(p.A, p.B),
                       lambda p: ("classical", 1)),
        "auto": Kind("auto", lambda p: repro.multiply(p.A, p.B, engine="auto"),
                     lambda p: picks[p.index][:2]),
        "fmm": Kind("fmm", lambda p: repro.multiply(p.A, p.B, algorithm=wl.schedule),
                    lambda p: sched),
    }
    if not traced:
        return kinds
    plans = {}
    for p in problems:
        alg, levels, variant, _, threads, backend, workers = picks[p.index]
        plans[p.index] = (
            compile_plan(p.shape, alg, levels, variant, dtype=p.dtype),
            dict(threads=threads, backend=backend, workers=workers),
            compile_plan(p.shape, wl.schedule, dtype=p.dtype),
        )

    def exec_auto(p):
        cplan, cfg, _ = plans[p.index]
        C = np.zeros((p.shape[0], p.shape[2]), p.dtype)
        return repro.execute_plan(cplan, p.A, p.B, C, **cfg)

    def exec_fmm(p):
        C = np.zeros((p.shape[0], p.shape[2]), p.dtype)
        return repro.execute_plan(plans[p.index][2], p.A, p.B, C)

    kinds["exec_auto"] = Kind("exec_auto", exec_auto, lambda p: picks[p.index][:2])
    kinds["exec_fmm"] = Kind("exec_fmm", exec_fmm, lambda p: sched)
    kinds["handwritten"] = Kind("handwritten", lambda p: strassen_1level(p.A, p.B),
                                lambda p: ("strassen", 1))
    return kinds


def teardown(shm_before: dict) -> list[str]:
    """Stop every pool and report what the run leaked."""
    shutdown_process_pools()
    shutdown_pools()
    leaks = []
    st = arena_stats()
    if st.bytes_in_use or st.in_use or st.mmap_bytes_in_use:
        leaks.append(f"arena still has {st.in_use} workspaces "
                     f"({st.bytes_in_use + st.mmap_bytes_in_use} bytes) checked out")
    shared_arena_clear()
    if process_pool_info():
        leaks.append(f"process pools still alive: {process_pool_info()}")
    left = sorted(set(shm_segments()) - set(shm_before))
    if left:
        leaks.append(f"{len(left)} shared-memory segments left: {left[:5]}")
    return leaks


def run_workload(wl, seed: int, seconds: float, traced: bool, scale: str,
                 run_dir: Path) -> tuple[dict, dict]:
    """Measure one workload; returns ``(result line, detail record)``."""
    problems = wl.problems(seed, scale)
    checker = Checker()
    rng = np.random.default_rng([seed, 7])
    shm_before = shm_segments()
    shares = TRACED_SHARES if traced else UNTRACED_SHARES
    tracer = Tracer() if traced else None
    detail = {"workload": wl.name, "why": wl.why, "schedule": wl.schedule,
              "seed": seed, "seconds": seconds, "trace": int(traced),
              "scale": scale, "problems": [p.label for p in problems],
              "host": host_stamp()}

    cold = [run_child("setup", wl, seed, scale, traced, run_dir, checker,
                      problems[0], f"setup{i}")
            for i in range(wl.cold_starts if scale == "full" else 1)]
    cold = [c for c in cold if c is not None]
    detail["cold_starts"] = cold
    mem = run_child("memory", wl, seed, scale, traced, run_dir, checker,
                    problems[0], "memory")
    peaks = {kname: mem["peak_bytes"][kname] / MIB if mem else None
             for kname in ("auto", "fmm")}

    layers = {}
    if traced:
        layers.update(compile_probes(wl, problems, tracer))
    picks = {p.index: repro.auto_config(*p.shape, dtype=p.dtype.name)
             for p in problems}
    kinds = make_kinds(wl, problems, picks, traced)
    first_auto = first_calls(kinds["auto"], problems, checker)

    reports = {}  # warm reports: what auto and fmm actually ran
    for p in problems:
        for kname in ("auto", "fmm"):
            if call_checked(kinds[kname], p, checker, True) is not None:
                reports[(kname, p.index)] = repro.last_report()
    detail["auto_picks"] = {
        p.label: {"config": repr(picks[p.index]), **{
            f: getattr(reports.get(("auto", p.index)), f, None)
            for f in ("schedule", "backend", "backend_path", "worker_mode",
                      "threads")}}
        for p in problems}

    # Warm every kind (first calls checked), then the timed rounds.
    run_rounds(problems, list(kinds.values()), 0.0, checker, rng, CHECK_RATE,
               min_rounds=1)
    cache0 = repro.plan_cache_info()
    kern0 = _kernel_hits()
    arena0 = arena_stats().allocations
    samples = run_rounds(problems, list(kinds.values()), shares["rounds"] * seconds,
                         checker, rng, CHECK_RATE, tracer=tracer)
    counters = {"cache0": cache0, "cache1": repro.plan_cache_info(),
                "kernel_hits": _kernel_hits() - kern0,
                "allocations": arena_stats().allocations - arena0}
    repro_calls = sum(len(v) for (kname, _), v in samples.data.items()
                      if kname in ("auto", "fmm", "exec_auto", "exec_fmm"))
    auto_calls = sum(len(samples.get(kname, p.index)) for p in problems
                     for kname in ("auto", "exec_auto"))

    detail["latency"] = {f"{kname}/{problems[i].label}": summary(v)
                         for (kname, i), v in samples.data.items()}

    with repro.MultiplyService() as svc:
        run_service(svc, problems, wl.schedule, 0.0, wl.serve_burst, checker,
                    rng, 1.0, min_bursts=1)  # warm: plans, batch workspaces
        serve = run_service(svc, problems, wl.schedule, shares["service"] * seconds,
                            wl.serve_burst, checker, rng, CHECK_RATE)
    detail["serve"] = {"jobs": serve["jobs"], "bursts": serve["bursts"],
                       "wall_s": serve["wall_s"], "burst": wl.serve_burst,
                       "latency": {problems[i].label: summary(v) for (_, i), v
                                   in serve["latencies"].data.items()}}

    if traced:
        layers.update(micro_probes(wl, problems, tracer,
                                   shares["micro"] * seconds))
        layers.update(kernel_probes(wl, problems, tracer))
        layers.update(report_probes(wl, problems[0], checker))
        overhead, program_spans = trace_overhead(
            kinds["auto"], problems, checker, shares["overhead"] * seconds)
        layers["obs.trace_overhead"] = overhead
        tracer.dump(run_dir / "spans.json", program_spans)
        detail["spans_file"] = str(run_dir / "spans.json")

    leaks = teardown(shm_before)
    detail["leaks"] = leaks
    detail["failures"] = checker.failures
    detail["worst_error_over_bound"] = checker.worst_ratio
    detail["checked_calls"] = checker.checked

    mm = samples.total("matmul", problems)
    auto = samples.total("auto", problems)
    fmm = samples.total("fmm", problems)
    detail["matmul_s"] = mm
    metrics = {
        "setup_s": statistics.median([c["setup_s"] for c in cold]) if cold else None,
        "auto_p50_s": auto,
        "auto_vs_matmul": _ratio(mm, auto),
        "fmm_p50_s": fmm,
        "fmm_vs_matmul": _ratio(mm, fmm),
        "auto_peak_mib": peaks["auto"],
        "fmm_peak_mib": peaks["fmm"],
        "ok_frac": checker.ok_frac,
        "serve_jobs_per_s": serve["jobs"] / serve["wall_s"],
        "serve_p50_s": serve["latencies"].total("serve", problems),
    }
    units = END_TO_END_UNITS
    if traced:
        layers.update(round_layers(
            wl, problems, picks, reports, tracer, cold, first_auto,
            serve, auto_calls, repro_calls, counters))
        layers["runtime.leaf_share"] = _ratio(layers["kernels.leaf_gemm_s"],
                                              layers["runtime.fmm_exec_s"])
        detail["end_to_end_in_traced_run"] = metrics
        metrics = layers
        units = PER_LAYER_UNITS
    correct = checker.failed == 0 and not leaks and all(
        metrics.get(name) is not None for name in units)
    result = {
        "correct": bool(correct),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": metrics.get(name), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, detail


def first_calls(kind: Kind, problems, checker) -> dict[int, tuple]:
    """First (cold in this process) call of ``kind`` per problem: seconds
    and whether it compiled a kernel."""
    out = {}
    for p in problems:
        dt = call_checked(kind, p, checker, True)
        if dt is not None:
            out[p.index] = (dt, repro.last_report().kernel_cached is False)
    return out


def _kernel_hits() -> int:
    caches = repro.metrics_snapshot()["gauges"]["kernels.cache"]
    return sum(c["hits"] for c in caches.values())


def compile_probes(wl, problems, tracer, reps: int = 5) -> dict:
    """``compile()`` after ``plan_cache_clear()``: the cold plan build."""
    for _ in range(reps):
        for p in problems:
            repro.plan_cache_clear()
            with tracer.span("compile.miss", problem=p.index):
                compile_plan(p.shape, wl.schedule, dtype=p.dtype)
    return {"compile.miss_ms": 1e3 * sum(
        statistics.median(tracer.self_times("compile.miss", problem=p.index))
        for p in problems)}


def micro_probes(wl, problems, tracer, seconds: float) -> dict:
    """Microsecond-scale calls on warm caches, interleaved per problem."""
    probes = (
        ("spec.normalize", lambda p: repro.normalize_schedule(wl.schedule)),
        ("compile.hit", lambda p: compile_plan(p.shape, wl.schedule, dtype=p.dtype)),
        ("selection.auto_config",
         lambda p: repro.auto_config(*p.shape, dtype=p.dtype.name)),
    )
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 20 or time.perf_counter() < deadline:
        for p in problems:
            for name, fn in probes:
                with tracer.span(name, problem=p.index):
                    fn(p)
        rounds += 1

    def per_call(name):
        return statistics.median(tracer.self_times(name))

    def summed(name):
        return sum(statistics.median(tracer.self_times(name, problem=p.index))
                   for p in problems)

    return {"spec.normalize_us": 1e6 * per_call("spec.normalize"),
            "compile.hit_us": 1e6 * summed("compile.hit"),
            "selection.auto_config_us": 1e6 * summed("selection.auto_config")}


def kernel_probes(wl, problems, tracer, reps: int = 7) -> dict:
    """The plan's R leaf GEMMs as ``np.matmul`` at the leaf block shape,
    and ``np.add(out=)`` at operand-block size (not DRAM bandwidth: the
    blocks can sit in the last-level cache)."""
    rng = np.random.default_rng(0)
    ml = resolve_levels(wl.schedule, 1)
    (Mt, Kt, Nt), R = ml.dims_total, ml.rank_total
    leaf_s = flops = add_s = add_bytes = 0.0
    for p in problems:
        m, k, n = p.shape
        bm, bk, bn = max(m // Mt, 1), max(k // Kt, 1), max(n // Nt, 1)
        X = rng.standard_normal((bm, bk)).astype(p.dtype)
        Y = rng.standard_normal((bk, bn)).astype(p.dtype)
        Z = np.empty((bm, bn), p.dtype)
        X2 = np.empty_like(X)
        for _ in range(reps):
            with tracer.span("kernels.leaf_gemm", problem=p.index):
                for _ in range(R):
                    np.matmul(X, Y, out=Z)
            with tracer.span("host.add", problem=p.index):
                np.add(X, X, out=X2)
        leaf_s += statistics.median(tracer.self_times("kernels.leaf_gemm", problem=p.index))
        flops += 2.0 * bm * bk * bn * R
        add_s += statistics.median(tracer.self_times("host.add", problem=p.index))
        add_bytes += 3.0 * X.nbytes
    return {"kernels.leaf_gemm_s": leaf_s, "kernels.leaf_gflops": flops / leaf_s / 1e9,
            "host.add_gbps": add_bytes / add_s / 1e9}


def report_probes(wl, p, checker, reps: int = 3) -> dict:
    """Lowerings auto does not take on these workloads, read from their
    reports on the first problem: ``fusion="tiled"`` (out-of-core) and
    ``procs=2`` (the shared-memory process runtime)."""
    out = {}
    for name, kwargs in (("tiled", {"fusion": "tiled"}), ("procs", {"procs": 2})):
        kind = Kind(name, lambda p, kw=kwargs: repro.multiply(
            p.A, p.B, algorithm=wl.schedule, **kw), lambda p: (wl.schedule, 1))
        durations, rep = [], None
        for i in range(reps):
            if call_checked(kind, p, checker, i == 0) is not None:
                rep = repro.last_report()
                durations.append(rep.duration_s)
        if rep is None:
            continue
        if name == "tiled":
            out.update({"tiles.exec_s": statistics.median(durations),
                        "tiles.window_mib": rep.tile_window_bytes / MIB,
                        "tiles.io_mib": rep.io_bytes / MIB})
        else:
            out["procpool.ipc_mib_per_call"] = rep.ipc_bytes / MIB
    return out


def trace_overhead(kind: Kind, problems, checker, seconds: float):
    """Auto calls with ``repro.trace`` on against off, interleaved;
    returns the overhead ratio and the program's own spans."""
    on, off = Samples(), Samples()
    deadline = time.perf_counter() + seconds
    rounds = 0
    program_spans = []
    try:
        while rounds < 4 or time.perf_counter() < deadline:
            for p in problems:
                for enabled in ((True, False) if rounds % 2 else (False, True)):
                    if enabled:
                        repro.trace.enable()
                    else:
                        repro.trace.disable()
                    dt = call_checked(kind, p, checker, False)
                    if dt is not None:
                        (on if enabled else off).add("auto", p.index, dt)
            rounds += 1
            if rounds == 1:
                program_spans = [
                    {"name": s.name, "start_ns": s.start_ns, "dur_ns": s.dur_ns,
                     "tid": s.tid, "span_id": s.span_id, "parent_id": s.parent_id}
                    for s in repro.trace.drain()]
    finally:
        repro.trace.disable()
        repro.trace.clear()
    t_on, t_off = on.total("auto", problems), off.total("auto", problems)
    return _ratio(t_on, t_off) - 1.0 if t_on and t_off else None, program_spans


def round_layers(wl, problems, picks, reports, tracer, cold, first_auto,
                 serve, auto_calls, repro_calls, counters) -> dict:
    """Per-layer figures from the timed rounds' spans and reports."""

    def st(kname, p):
        return statistics.median(tracer.self_times(kname, problem=p.index))

    def total(kname):
        return sum(st(kname, p) for p in problems)

    machine = repro.default_store().machine_params() or generic_laptop()
    ml_fmm = resolve_levels(wl.schedule, 1)
    pred_fmm = sum(repro.predict_fmm(*p.shape, ml_fmm, "abc", machine).time
                   for p in problems)
    pred_gemm = sum(repro.predict_gemm(*p.shape, machine).time for p in problems)
    fmm_exec = total("exec_fmm")
    hits = counters["cache1"].hits - counters["cache0"].hits
    misses = counters["cache1"].misses - counters["cache0"].misses
    compiled = [t for t, did in first_auto.values() if did]
    fmm_reps = [reports[("fmm", p.index)] for p in problems]
    exec_share = [ex / lat for lat, ex in serve["exec"] if lat > 0]
    wait = [lat - ex for lat, ex in serve["exec"]]
    return {
        "executor.overhead_us": 1e6 * (total("auto") - total("exec_auto")),
        "compile.hit_frac": hits / max(hits + misses, 1),
        "selection.cold_ms": statistics.median(
            [c["selection_ms"] for c in cold]) if cold else None,
        "selection.classical_frac": sum(
            picks[p.index][0] == "classical" for p in problems) / len(problems),
        "selection.procs_frac": sum(
            picks[p.index][6] == "processes" for p in problems) / len(problems),
        "model.fmm_pred_ratio": pred_fmm / total("fmm"),
        "model.gemm_pred_ratio": pred_gemm / total("matmul"),
        "runtime.auto_exec_s": total("exec_auto"),
        "runtime.fmm_exec_s": fmm_exec,
        "runtime.fmm_vs_handwritten": total("handwritten") / total("fmm"),
        "kernels.compile_ms": 1e3 * sum(compiled),
        "kernels.hit_frac": counters["kernel_hits"] / max(auto_calls, 1),
        "workspace.peak_mib": sum(r.peak_workspace_bytes for r in fmm_reps) / MIB,
        "workspace.pred_mib": sum(
            repro.predict_workspace_bytes(*r.shape, ml_fmm, fusion=r.fusion,
                                          threads=r.threads, dtype=r.dtype)
            for r in fmm_reps) / MIB,
        "workspace.allocs_per_call": counters["allocations"] / max(repro_calls, 1),
        "serve.batch_size_p50": statistics.median(serve["batch_sizes"])
            if serve["batch_sizes"] else None,
        "serve.exec_share": statistics.median(exec_share) if exec_share else None,
        "serve.wait_p50_s": statistics.median(wait) if wait else None,
    }

"""Benchmark ``repro`` against ``np.matmul`` on one workload.

    python3 fmmbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; a detail
record (host stamp, per-problem latencies with tails, auto's picks,
failure reasons, spans of a traced run) is written to the run directory
under ``.fmmbench_runs/`` and its path printed to standard error.

Phases of one run, all driven from this thread as a closed loop:

1. set-up: several fresh interpreters, each timed from ``import repro``
   through the first ``engine="auto"`` and the first fixed-schedule call;
2. warm rounds: ``np.matmul``, ``multiply(engine="auto")`` and
   ``multiply(algorithm=<schedule>)`` interleaved per problem, order
   rotating each round, outputs checked (``check.py``);
3. service: bursts of same-plan jobs submitted to one ``MultiplyService``,
   each burst awaited before the next;
4. memory: one untimed call of each ``repro`` kind with emptied arenas;
5. traced runs only: per-layer probes, each call wrapped in a span;
6. teardown: pools stopped, leaked arena bytes or shared-memory
   segments fail the run; every process the run started (children,
   pool workers, resource trackers) is stopped and waited for before
   the interpreter exits (``procs.py``).

BLAS threads are pinned to the number of CPUs; wisdom and temporary
files are private to the run directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("square_f64", "rank_k_f32", "small_calls")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every problem (self-tests)")
    ap.add_argument("--out", type=Path, default=None,
                    help="run directory (default .fmmbench_runs/<run>)")
    return ap.parse_args(argv)


def isolate(run_dir: Path) -> None:
    """Private wisdom and temp dir, BLAS threads pinned; before numpy loads."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_WISDOM"] = str(run_dir / "wisdom.json")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    for var in BLAS_ENV:
        os.environ[var] = str(os.cpu_count() or 1)


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from fmmbench import procs

    procs.install()
    run_dir = args.out or (
        ROOT / ".fmmbench_runs"
        / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    run_dir.mkdir(parents=True, exist_ok=True)
    isolate(run_dir)
    try:
        import repro  # noqa: F401  (fails here when the checkout has no src/)
    except ImportError as exc:
        print(f"fmmbench: cannot import repro from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        return 2
    from fmmbench.bench import run_workload
    from fmmbench.workloads import WORKLOADS

    result, detail = run_workload(WORKLOADS[args.workload], args.seed,
                                  args.seconds, bool(args.trace), args.scale,
                                  run_dir)
    procs.stop_children()  # again at exit, after the other exit hooks
    detail["result"] = result
    detail_path = run_dir / "detail.json"
    detail_path.write_text(json.dumps(detail, indent=1, default=repr))
    print(f"fmmbench: detail record {detail_path}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

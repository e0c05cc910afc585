"""Fresh-interpreter measurements, run as children of ``run.py``.

``--mode setup`` times ``import repro`` through the first
``engine="auto"`` call and the first fixed-schedule call on the workload's
first problem, with the empty wisdom file named by ``REPRO_WISDOM``.
With ``--trace 1`` the first ``auto_config`` is timed on its own first
(``selection.cold_ms``).

``--mode memory`` measures, for every problem, the memory the first
``auto`` and the first ``fmm`` call hold beyond operands and output (after
an 8x8 call of each has loaded lazily imported modules): the
tracemalloc peak (numpy reports its buffers to tracemalloc) plus the
bytes of shared-memory segments the call created.  The call runs with the
workspace arenas emptied, so its workspace is allocated afresh; it is a
first call, so buffers cached for later calls (compiled kernels) count.

Outputs are checked after the clock stops.  Prints one JSON line.  The
child stops every process it started before it exits (``procs.py``).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def setup(wl, problems, trace: bool) -> dict:
    p = problems[0]
    m, k, n = p.shape
    out = {}
    t0 = time.perf_counter()
    import repro

    if trace:
        t = time.perf_counter()
        repro.auto_config(m, k, n, dtype=p.dtype.name)
        out["selection_ms"] = (time.perf_counter() - t) * 1e3
    C_auto = repro.multiply(p.A, p.B, engine="auto")
    C_fmm = repro.multiply(p.A, p.B, algorithm=wl.schedule)
    out["setup_s"] = time.perf_counter() - t0
    out["products"] = {"auto": C_auto, "fmm": C_fmm}
    return out


def memory(wl, problems) -> dict:
    import tracemalloc

    import numpy as np

    import repro
    from repro.core.workspace import shared_arena_clear

    from fmmbench.measure import shm_segments
    from fmmbench.workloads import Problem

    calls = {"auto": lambda p: repro.multiply(p.A, p.B, engine="auto"),
             "fmm": lambda p: repro.multiply(p.A, p.B, algorithm=wl.schedule)}
    peaks = {"auto": 0, "fmm": 0}
    products = {}
    for dt in ("float32", "float64"):  # lazy imports and backends load here
        X = np.ones((8, 8), dt)
        for fn in calls.values():
            fn(Problem(-1, X, X))
    tracemalloc.start()
    for p in problems:
        for name, fn in calls.items():
            repro.arena_clear()
            shared_arena_clear()
            before = shm_segments()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            C = fn(p)
            peak = tracemalloc.get_traced_memory()[1] - base
            shm = sum(s for seg, s in shm_segments().items() if seg not in before)
            peaks[name] += max(0, peak + shm - C.nbytes)
            products[(name, p.index)] = C
    tracemalloc.stop()
    return {"peak_bytes": peaks, "products": products}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=("setup", "memory"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--trace", type=int, default=0)
    args = ap.parse_args(argv)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from fmmbench import procs

    procs.install()
    from fmmbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    problems = wl.problems(args.seed, args.scale)
    if args.mode == "setup":
        out = setup(wl, problems, bool(args.trace))
        products = {(name, 0): C for name, C in out.pop("products").items()}
    else:
        out = memory(wl, problems)
        products = out.pop("products")

    import repro
    from fmmbench.check import Checker

    checker = Checker()
    for (name, i), C in products.items():
        p = problems[i]
        spec = (repro.auto_config(*p.shape, dtype=p.dtype.name)[:2]
                if name == "auto" else (wl.schedule, 1))
        checker.check(name, p, C, spec)
    out["calls"] = len(products)
    out["failures"] = checker.failures
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

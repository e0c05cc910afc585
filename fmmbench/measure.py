"""Closed-loop timing, service bursts and shared-memory segment accounting.

All load comes from the calling thread: the next call starts only after
the previous one returned (a closed loop with one client).  Kinds are
interleaved per problem and their order rotates each round, so host
drift lands on every kind alike and cancels in the ratios.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: A call that takes longer than this counts as failed (timed out).
CALL_TIMEOUT_S = 60.0
SHM_DIR = "/dev/shm"
SHM_PREFIX = "reproshm"


@dataclass(frozen=True)
class Kind:
    """One way of computing ``A @ B``: ``fn(problem) -> C``; ``spec(problem)``
    is the ``(algorithm, levels)`` pair the output is checked under."""

    name: str
    fn: Callable
    spec: Callable


def tail(values) -> dict:
    """Highest percentile with at least ten samples beyond it."""
    v = sorted(values)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(v) * (1 - q / 100) >= 10:
            idx = min(len(v) - 1, int(np.ceil(q / 100 * len(v))) - 1)
            return {"pct": q, "value": v[idx], "samples": len(v)}
    return {"pct": None, "value": None, "samples": len(v)}


def summary(values) -> dict:
    if not values:
        return {"samples": 0}
    return {"samples": len(values), "p50": statistics.median(values),
            "mean": statistics.fmean(values), "min": min(values),
            "tail": tail(values)}


class Samples:
    """Latency samples keyed by ``(kind, problem index)``."""

    def __init__(self) -> None:
        self.data: dict[tuple[str, int], list[float]] = {}

    def add(self, kind: str, index: int, seconds: float) -> None:
        self.data.setdefault((kind, index), []).append(seconds)

    def get(self, kind: str, index: int) -> list[float]:
        return self.data.get((kind, index), [])

    def total(self, kind: str, problems) -> float | None:
        """Sum over problems of each problem's median; None if any is empty."""
        vals = [self.get(kind, p.index) for p in problems]
        if not all(vals):
            return None
        return sum(statistics.median(v) for v in vals)


def call_checked(kind: Kind, p, checker, check: bool, tracer=None,
                 call_id: int = 0) -> float | None:
    """One closed-loop call: seconds taken, or None when it failed."""
    checker.attempt()
    try:
        with (nullcontext() if tracer is None
              else tracer.span(kind.name, call_id=call_id, problem=p.index)):
            t0 = time.perf_counter()
            C = kind.fn(p)
            dt = time.perf_counter() - t0
    except Exception as exc:  # a failing kind must not abort the run
        checker.fail(kind.name, p, f"raised {type(exc).__name__}: {exc}")
        return None
    if dt > CALL_TIMEOUT_S:
        checker.fail(kind.name, p, f"timed out after {dt:.1f}s")
        return None
    if check and not checker.check(kind.name, p, C, kind.spec(p)):
        return None
    return dt


def run_rounds(problems, kinds: list[Kind], seconds: float, checker, rng,
               check_rate: float, samples: Samples | None = None,
               tracer=None, min_rounds: int = 3) -> Samples:
    """Interleaved rounds until ``seconds`` have passed (at least ``min_rounds``).

    The first call of each ``(kind, problem)`` is always checked, later
    ones with probability ``check_rate`` drawn from ``rng``.
    """
    samples = samples if samples is not None else Samples()
    seen = set()
    deadline = time.perf_counter() + seconds
    rnd = 0
    call_id = 0
    while rnd < min_rounds or time.perf_counter() < deadline:
        shift = rnd % len(kinds)
        order = kinds[shift:] + kinds[:shift]
        for p in problems:
            for kind in order:
                call_id += 1
                first = (kind.name, p.index) not in seen
                seen.add((kind.name, p.index))
                dt = call_checked(kind, p, checker,
                                  first or rng.random() < check_rate,
                                  tracer, call_id)
                if dt is not None:
                    samples.add(kind.name, p.index, dt)
        rnd += 1
    return samples


def run_service(service, problems, schedule: str, seconds: float, burst: int,
                checker, rng, check_rate: float, min_bursts: int = 3) -> dict:
    """Closed loop of bursts: ``burst`` same-plan jobs submitted at once,
    all awaited before the next burst.  Problems rotate per burst; each
    job's latency runs from its submit to its result."""
    latencies, batch_sizes, exec_s = Samples(), [], []
    jobs = 0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    b = 0
    while b < min_bursts or time.perf_counter() < deadline:
        p = problems[b % len(problems)]
        b += 1
        handles = []
        for _ in range(burst):
            checker.attempt()
            try:
                handles.append((time.perf_counter(),
                                service.submit(p.A, p.B, algorithm=schedule)))
            except Exception as exc:
                checker.fail("serve", p, f"submit raised {type(exc).__name__}: {exc}")
        for t_sub, h in handles:
            try:
                C = h.result(timeout=CALL_TIMEOUT_S)
            except Exception as exc:
                checker.fail("serve", p, f"raised {type(exc).__name__}: {exc}")
                continue
            latency = time.perf_counter() - t_sub
            if rng.random() < check_rate and not checker.check(
                    "serve", p, C, (schedule, 1)):
                continue
            jobs += 1
            latencies.add("serve", p.index, latency)
            batch_sizes.append(h.batch_size)
            rep = h.report()
            if rep is not None:
                exec_s.append((latency, rep.duration_s))
    wall = time.perf_counter() - t_start
    return {"jobs": jobs, "wall_s": wall, "latencies": latencies,
            "batch_sizes": batch_sizes, "exec": exec_s, "bursts": b}


def shm_segments() -> dict[str, int]:
    """``reproshm*`` segments in ``/dev/shm`` and their sizes."""
    try:
        names = os.listdir(SHM_DIR)
    except FileNotFoundError:
        return {}
    out = {}
    for name in names:
        if name.startswith(SHM_PREFIX):
            try:
                out[name] = os.stat(os.path.join(SHM_DIR, name)).st_size
            except FileNotFoundError:
                pass
    return out

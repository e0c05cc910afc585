"""The benchmark's workloads: seeded problems, fixed schedules, and why each exists.

This module must not import :mod:`repro`: the cold-start children build
their first problem with it *before* they start the clock on
``import repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SCALES = ("full", "tiny")


@dataclass(frozen=True)
class Problem:
    """One ``A @ B`` the workload multiplies, operands included."""

    index: int
    A: np.ndarray
    B: np.ndarray

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.A.shape[0], self.A.shape[1], self.B.shape[1])

    @property
    def dtype(self) -> np.dtype:
        return self.A.dtype

    @property
    def label(self) -> str:
        m, k, n = self.shape
        return f"{m}x{k}x{n}/{self.dtype.name}"


@dataclass(frozen=True)
class Workload:
    """A named set of problems plus the fixed schedule ``fmm`` runs."""

    name: str
    why: str
    schedule: str
    cold_starts: int     # fresh interpreters timed for setup_s
    serve_burst: int     # same-plan jobs per service burst

    def problems(self, seed: int, scale: str = "full") -> list[Problem]:
        """The workload's problems for ``seed``: same seed, same bytes."""
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}; expected one of {SCALES}")
        rng = np.random.default_rng(seed)
        out = []
        for i, (m, k, n, dt) in enumerate(_SHAPES[self.name](rng, scale)):
            A = rng.standard_normal((m, k)).astype(dt)
            B = rng.standard_normal((k, n)).astype(dt)
            out.append(Problem(i, A, B))
        return out


def _square(rng, scale):
    s = 1024 if scale == "full" else 96
    return [(s, s, s, np.float64)]


def _rank_k(rng, scale):
    # 2048 (and the tiny 128) is not a multiple of 3, so <3,2,3> peels.
    mn, k = (2048, 256) if scale == "full" else (128, 16)
    return [(mn, k, mn, np.float32)]


def _pool(rng, scale):
    """16 shapes log-spaced over the size range; the seed moves each dim
    by an even offset so parity, dtype and size class stay fixed."""
    lo, hi, count = (32, 256, 16) if scale == "full" else (8, 40, 4)
    shapes = []
    for i in range(count):
        base = int(round(lo * (hi / lo) ** (i / (count - 1)))) // 2 * 2
        dt = np.float32 if i % 2 == 0 else np.float64
        odd = (i // 2) % 2
        m, k, n = (base + 2 * int(rng.integers(0, 4)) + odd for _ in range(3))
        shapes.append((m, k, n, dt))
    return shapes


_SHAPES = {"square_f64": _square, "rank_k_f32": _rank_k, "small_calls": _pool}

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "square_f64",
            "f64 1024^3 strassen@1: GEMM-bound square case. Not 2048: auto "
            "takes the process runtime there and a call takes 0.55 or 1.6 s, "
            "bimodally",
            "strassen@1", cold_starts=5, serve_burst=4,
        ),
        Workload(
            "rank_k_f32",
            "f32 2048x256x2048 <3,2,3>@1: memory-bound rank-k update with "
            "peeling; auto takes the threaded compiled kernel",
            "<3,2,3>@1", cold_starts=5, serve_burst=4,
        ),
        Workload(
            "small_calls",
            "16 seeded f32/f64 shapes in [32,256], half odd, strassen@1: fixed "
            "per-call overhead dominates; the only workload where the service "
            "coalesces",
            "strassen@1", cold_starts=5, serve_burst=16,
        ),
    )
}

"""Output checking: every product against a float64 reference under a
normwise forward-error bound.

The bound is :func:`repro.model.stability.estimate_forward_error` for the
schedule that produced the product, in Frobenius norms:

    ||C - A @ B||_F  <=  growth * (k / K~) * u * ||A||_F * ||B||_F

with ``u`` the machine epsilon of the output dtype (the stability module's
own convention for unit roundoff).  For classical multiplication
(growth 1, K~ 1) this is the textbook ``k u ||A|| ||B||`` bound, so
``np.matmul`` is checked against the same formula: a bound too tight for
the baseline shows up as a benchmark bug, not as a ``repro`` failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.spec import resolve_levels
from repro.model.stability import estimate_forward_error


def error_bound(ml, A: np.ndarray, B: np.ndarray, dtype) -> float:
    """Normwise bound for ``A @ B`` computed by schedule ``ml`` in ``dtype``."""
    est = estimate_forward_error(
        ml, A.shape[1], unit_roundoff=float(np.finfo(dtype).eps)
    )
    return est.absolute_bound(
        float(np.linalg.norm(A.astype(np.float64))),
        float(np.linalg.norm(B.astype(np.float64))),
    )


@dataclass
class Checker:
    """Checks products of one workload's problems; keeps the first 100
    failures with kind, problem, error and bound.

    ``failed`` counts calls that raised, timed out or returned a product
    outside the bound; ``ok_frac`` is the share of ``attempted`` calls
    that did not fail (a call not sampled for checking counts as ok).
    """

    failures: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    worst_ratio: dict = field(default_factory=dict)

    def __post_init__(self):
        self._refs = {}
        self._bounds = {}

    def reference(self, p) -> np.ndarray:
        if p.index not in self._refs:
            self._refs[p.index] = (
                p.A.astype(np.float64) @ p.B.astype(np.float64)
            )
        return self._refs[p.index]

    def bound(self, p, ml_spec) -> float:
        key = (p.index, repr(ml_spec))
        if key not in self._bounds:
            ml = resolve_levels(*ml_spec)
            self._bounds[key] = error_bound(ml, p.A, p.B, p.dtype)
        return self._bounds[key]

    def check(self, kind: str, p, C, ml_spec) -> bool:
        """Record one checked call; True when ``C`` is within bound.

        ``ml_spec`` is the ``(algorithm, levels)`` pair that produced ``C``.
        """
        self.checked += 1
        bound = self.bound(p, ml_spec)
        if C is None or np.shape(C) != self.reference(p).shape:
            err = float("inf")
        else:
            err = float(np.linalg.norm(np.asarray(C, np.float64) - self.reference(p)))
        ratio = err / bound if bound > 0 else float("inf")
        if not ratio <= 1.0:  # NaN fails too
            self.fail(kind, p, f"error {err:.3e} exceeds bound {bound:.3e}",
                      error=err, bound=bound)
            return False
        self.worst_ratio[kind] = max(self.worst_ratio.get(kind, 0.0), ratio)
        return True

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, kind: str, p, reason: str, **extra) -> None:
        self.failed += 1
        if len(self.failures) < 100:
            self.failures.append({"kind": kind, "problem": p.label,
                                  "reason": reason, **extra})

    @property
    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(self.attempted, 1)

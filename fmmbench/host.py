"""Host stamp for the detail record: what the numbers were measured on."""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _llc() -> str | None:
    caches = sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"))
    best = None
    for c in caches:
        try:
            level = int((c / "level").read_text())
            size = (c / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        if best is None or level > best[0]:
            best = (level, size)
    return None if best is None else f"L{best[0]} {best[1]}"


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {}


def host_stamp() -> dict:
    return {
        "cpu": _cpu_model(),
        "llc": _llc(),
        "nproc": os.cpu_count(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": np.__version__,
        "blas": _blas(),
        "python": platform.python_version(),
    }

"""The environment recorded with every benchmark result.

Python, numpy and BLAS versions, the BLAS thread count and the variables
that set it, the CPU count, the last-level cache size, and the measured
copy bandwidth of a 128 MiB array (four times a 32 MiB L3), which the
traced run divides the search iterate's computed bytes per second by.
"""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

COPY_MIB = 128
COPY_REPEATS = 7
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def copy_bandwidth(mib: int = COPY_MIB, repeats: int = COPY_REPEATS) -> float:
    """Bytes per second read plus written by np.copyto of a float64 array."""
    src = np.ones(mib * 2**20 // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault the pages in before timing
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return 2 * src.nbytes / statistics.median(times)


def blas_info() -> dict:
    try:
        config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": config.get("name"), "version": config.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def l3_bytes() -> int | None:
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 2**10, "M": 2**20, "G": 2**30}.get(size[-1], 1)
        return int(size.rstrip("KMG")) * scale
    return None


def describe(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "blas_threads": blas_threads(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "l3_bytes": l3_bytes(),
        "copy_bandwidth_Bps": copy_bandwidth(),
        "copy_array_bytes": COPY_MIB * 2**20,
        "workload_seed": seed,
    }

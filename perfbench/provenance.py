"""Provenance block attached to every benchmark result."""
from __future__ import annotations

import os
import platform
import subprocess
from pathlib import Path

import numpy as np
import scipy

THREAD_VARS = ("DISCFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git repository."""
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def blas_name() -> str | None:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return " ".join(str(blas.get(k)) for k in ("name", "version") if blas.get(k))


def cache_sizes() -> dict[str, str]:
    """L2 and L3 sizes as the kernel reports them under /sys."""
    sizes = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind == "Unified":
            sizes[f"L{level}"] = size
    return sizes


def provenance(root: Path, seed: int, working_set: dict) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "cpu0_caches": cache_sizes(),
        "working_set": working_set,
    }

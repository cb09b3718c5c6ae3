"""Adversary instances: columns uniform on the unit sphere, exactly unit
norm. The other ``discforge gen`` kinds (identity, dense Gaussian, planted)
are one call each in ``cli.cmd_gen``."""
from __future__ import annotations

import numpy as np

from .rng import RngHandle

__all__ = ["unit_columns"]


def unit_columns(m: int, t: int, rng: RngHandle) -> np.ndarray:
    """m x t matrix with columns uniform on the unit sphere, drawn from the
    start of rng's stream. Raises ValueError for m < 1, where no column
    can have unit norm."""
    if m < 1:
        raise ValueError(f"unit columns need m >= 1 rows, got m={m}")
    gen = rng.generator()
    cols = gen.standard_normal((m, t))
    norms = np.linalg.norm(cols, axis=0)
    for _ in range(100):
        bad = norms <= 1e-12
        if not np.any(bad):
            break
        cols[:, bad] = gen.standard_normal((m, int(bad.sum())))
        norms[bad] = np.linalg.norm(cols[:, bad], axis=0)
    return cols / norms

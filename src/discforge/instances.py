"""Adversary and benchmark instance generators.

Each kind declares a norm constraint and the generator guarantees it
exactly: identity streams, uniform unit columns, dense Gaussian blocks,
or the planted rounding family.
"""
from __future__ import annotations

import numpy as np

from .errors import BadSpecError
from .rng import RngHandle

__all__ = ["SHAPE_PARAMS", "gen", "unit_columns"]

# The kinds gen materializes, each with the shape parameters it needs.
SHAPE_PARAMS = {
    "identity": ("t",),
    "random-unit-columns": ("m", "t"),
    "gaussian-dense": ("m", "n"),
    "planted": ("m", "n"),
}


def unit_columns(m: int, t: int, rng: RngHandle) -> np.ndarray:
    """m x t matrix with columns uniform on the unit sphere, drawn from the
    start of rng's stream."""
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


def gen(
    kind: str,
    rng: RngHandle | None,
    m: int | None = None,
    n: int | None = None,
    t: int | None = None,
    scale: float = 1.0,
) -> np.ndarray:
    """Materialize an instance of the given kind; every kind but identity
    draws from the start of rng's stream, and scale multiplies a
    gaussian-dense block."""
    if kind not in SHAPE_PARAMS:
        raise BadSpecError(f"unknown instance kind {kind!r}; choose from {list(SHAPE_PARAMS)}")
    given = {"m": m, "n": n, "t": t}
    missing = [name for name in SHAPE_PARAMS[kind] if given[name] is None]
    if missing:
        raise BadSpecError(f"instance kind {kind!r} needs parameters {missing}")
    if kind == "identity":
        return np.eye(t)
    if rng is None:
        raise BadSpecError(f"instance kind {kind!r} needs a seed")
    if kind == "random-unit-columns":
        return unit_columns(m, t, rng)
    if kind == "gaussian-dense":
        return scale * rng.generator().standard_normal((m, n))
    from .rounding import make_planted

    return make_planted(m, n, rng.generator()).a

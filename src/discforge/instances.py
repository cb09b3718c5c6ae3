"""Adversary and benchmark instance generators.

Each kind declares a norm constraint and the generator guarantees it
exactly: identity streams, uniform unit columns, dense Gaussian blocks,
a single Gaussian row (number balancing), the planted rounding family,
or a matrix file.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from .errors import BadSpecError
from .linalg import read_matrix
from .rng import RngHandle

__all__ = ["InstanceSpec", "KINDS", "gen", "komlos_normalize", "unit_columns"]

KINDS = (
    "identity",
    "random-unit-columns",
    "gaussian-dense",
    "number-balancing-row",
    "planted",
    "from-file",
)


@dataclass(frozen=True)
class InstanceSpec:
    kind: str
    params: Mapping[str, Any] = field(default_factory=dict)
    seed: RngHandle | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise BadSpecError(f"unknown instance kind {self.kind!r}; choose from {KINDS}")


def _require(spec: InstanceSpec, *names: str) -> list[int]:
    vals = []
    for name in names:
        if name not in spec.params:
            raise BadSpecError(f"instance kind {spec.kind!r} needs parameter {name!r}")
        vals.append(spec.params[name])
    return vals


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


def gen(spec: InstanceSpec) -> np.ndarray:
    """Materialize the instance described by spec."""
    kind = spec.kind
    if kind == "from-file":
        (path,) = _require(spec, "path")
        return read_matrix(path)
    if kind == "identity":
        (t,) = _require(spec, "t")
        return np.eye(int(t))
    if spec.seed is None:
        raise BadSpecError(f"instance kind {kind!r} needs a seed")
    if kind == "random-unit-columns":
        m, t = _require(spec, "m", "t")
        return unit_columns(int(m), int(t), spec.seed)
    if kind == "gaussian-dense":
        m, n = _require(spec, "m", "n")
        scale = float(spec.params.get("scale", 1.0))
        return scale * spec.seed.generator().standard_normal((int(m), int(n)))
    if kind == "number-balancing-row":
        (n,) = _require(spec, "n")
        return spec.seed.generator().standard_normal((1, int(n)))
    if kind == "planted":
        from .rounding import make_planted

        m, n = _require(spec, "m", "n")
        return make_planted(int(m), int(n), spec.seed.generator()).a
    raise BadSpecError(f"unknown instance kind {kind!r}")


def komlos_normalize(a: np.ndarray) -> np.ndarray:
    """Rescale columns of norm above 1 down to norm exactly 1; columns of
    norm at most 1 pass through unchanged."""
    a = np.asarray(a, dtype=float)
    norms = np.linalg.norm(a, axis=0)
    factors = np.where(norms > 1.0, np.where(norms > 0.0, norms, 1.0), 1.0)
    return a / factors

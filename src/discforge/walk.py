"""Rank-r Gaussian fixed-point walk: an online balancer that receives
vectors v_t of norm at most 1 and emits unit vectors u_t in R^r while the
accumulator W_t = W_0 + sum v_s u_s^T stays exactly Gaussian in law.

Each round projects the accumulator onto the incoming direction, advances
that r-dimensional coordinate with one unit-increment kernel step at the
rescaled variance, and writes the step back. The balancing score is the
largest row norm of W_t - W_0 (the 2->inf norm of the signed sum).

Also provided: the equivalence between unit-vector streams and nested
correlation-matrix streams, in both directions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chilaw import sigma_star
from .errors import (
    DimMismatchError,
    InconsistentStreamError,
    NormTooLargeError,
    NotPsdError,
)
from .evals import coupling_from_units
from .kernel import KernelParams, kernel_step
from .linalg import PIVOT_RTOL, check_correlation
from .rng import RngHandle

__all__ = [
    "WalkConfig",
    "WalkState",
    "WalkRun",
    "walk_init",
    "walk_step",
    "walk_run",
    "gram_of_stream",
    "stream_of_grams",
    "komlos_rank",
    "banaszczyk_rank",
]

NORM_SLACK = 1e-12
CONSISTENCY_ATOL = 1e-10


@dataclass(frozen=True)
class WalkConfig:
    """Ambient dimension m, rank r >= 2, and the seed of the run."""

    m: int
    r: int
    seed: RngHandle

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {self.m}")
        sigma_star(self.r)  # raises RankTooSmallError for r < 2


@dataclass
class WalkState:
    """Accumulator, round index, and the (advancing) random stream.

    States are linear: walk_step returns a successor sharing the same
    accumulator (updated in place) and generator, so keep using the state
    it hands back.
    """

    w: np.ndarray
    t: int
    rng: np.random.Generator


@dataclass(frozen=True)
class WalkRun:
    """Outputs of a full run: unit vectors (rows of us), the per-round row
    norm of the signed sum, and its running maximum."""

    us: np.ndarray
    row_norms: np.ndarray
    running_max: np.ndarray


def walk_init(config: WalkConfig) -> WalkState:
    """Accumulator with i.i.d. N(0, 1/(4(r-1))) entries at round 0."""
    gen = config.seed.generator()
    sd = sigma_star(config.r)
    w = sd * gen.standard_normal((config.m, config.r))
    return WalkState(w=w, t=0, rng=gen)


def _advance(
    w: np.ndarray, v: np.ndarray, t: int, gen: np.random.Generator, step: np.ndarray
) -> np.ndarray:
    """One round in place: add v u^T to w and return the emitted unit u.

    step (an m x r scratch buffer) is left holding v u^T. A zero vector
    contributes nothing to the accumulator, so it is answered with the
    fixed unit vector e_1 without consuming randomness.
    """
    m, r = w.shape
    if v.shape != (m,):
        raise DimMismatchError(f"vector has shape {v.shape}, expected ({m},)")
    nsq = float(v @ v)
    norm = math.sqrt(nsq)
    if not norm <= 1.0 + NORM_SLACK:  # also true for nan and inf
        if not np.isfinite(v).all():
            raise ValueError(f"v_{t} has non-finite entries")
        raise NormTooLargeError(f"||v_{t}|| = {norm:.12g} exceeds 1")
    if nsq == 0.0:
        step.fill(0.0)
        u = np.zeros(r)
        u[0] = 1.0
        return u
    z = (w.T @ v) / nsq
    u = kernel_step(KernelParams(r, sigma_star(r) ** 2 / nsq), z, gen)
    np.multiply(v[:, None], u[None, :], out=step)
    w += step
    return u


def walk_step(state: WalkState, v: np.ndarray) -> tuple[np.ndarray, WalkState]:
    """Process one incoming vector; returns the emitted unit vector and the
    successor state, whose accumulator is state.w updated in place."""
    v = np.asarray(v, dtype=float)
    u = _advance(state.w, v, state.t, state.rng, np.empty_like(state.w))
    return u, WalkState(w=state.w, t=state.t + 1, rng=state.rng)


def walk_run(config: WalkConfig, vs: np.ndarray) -> WalkRun:
    """Run the walk over the columns of vs (an m x T array).

    row_norms[t] is the 2->inf norm of the signed sum after round t+1, and
    running_max[t] its maximum over rounds so far. The loop reuses its
    m x r buffers (a fresh 5 MB allocation per round dominates large runs).
    """
    vs = np.asarray(vs, dtype=float)
    if vs.ndim != 2 or vs.shape[0] != config.m:
        raise DimMismatchError(f"adversary matrix has shape {vs.shape}, expected ({config.m}, T)")
    big_t = vs.shape[1]
    state = walk_init(config)
    delta = np.zeros_like(state.w)  # signed sum, accumulated in place
    step = np.empty_like(state.w)
    sq = np.empty(config.m)
    us = np.empty((big_t, config.r))
    row_norms = np.empty(big_t)
    for t in range(big_t):
        us[t] = _advance(state.w, vs[:, t], t, state.rng, step)
        delta += step
        np.einsum("ij,ij->i", delta, delta, out=sq)
        row_norms[t] = math.sqrt(float(sq.max(initial=0.0)))
    return WalkRun(us=us, row_norms=row_norms, running_max=np.maximum.accumulate(row_norms))


def gram_of_stream(us: np.ndarray) -> list[np.ndarray]:
    """Nested Gram matrices of the prefixes of a unit-vector stream."""
    full = coupling_from_units(us)
    return [full[:t, :t].copy() for t in range(1, full.shape[0] + 1)]


def stream_of_grams(sigmas: list[np.ndarray]) -> np.ndarray:
    """Recover a unit-vector stream whose prefix Grams match the given
    nested correlation matrices.

    Row t of the result is supported on the first t coordinates (it is the
    last row of the rank-revealing Cholesky factor of the t-th matrix). The
    factor is extended by one row per matrix with forward substitution, so
    round t costs O(t^2) as the stream arrives.
    """
    big_t = len(sigmas)
    us = np.zeros((big_t, big_t))
    prev: np.ndarray | None = None
    l_prev = np.zeros((0, 0))
    for t, sig in enumerate(sigmas, start=1):
        sig = check_correlation(np.asarray(sig, dtype=float))
        if sig.shape != (t, t):
            raise DimMismatchError(f"matrix {t} has shape {sig.shape}, expected ({t}, {t})")
        if prev is not None:
            if float(np.abs(sig[: t - 1, : t - 1] - prev).max(initial=0.0)) > CONSISTENCY_ATOL:
                raise InconsistentStreamError(
                    f"matrix {t} does not restrict to matrix {t - 1}"
                )
        l_prev = _extend_cholesky(l_prev, sig)
        us[t - 1, :t] = l_prev[t - 1]
        prev = sig
    return us


def _extend_cholesky(l_prev: np.ndarray, sig: np.ndarray) -> np.ndarray:
    """Append the last row of the factor of sig to the factor of its
    leading principal submatrix."""
    t = sig.shape[0]
    scale = max(float(np.trace(sig)) / t, 1e-30)
    tol = PIVOT_RTOL * scale
    l = np.zeros((t, t))
    l[: t - 1, : t - 1] = l_prev
    b = sig[t - 1, : t - 1]
    y = np.zeros(t - 1)
    for i in range(t - 1):
        resid = b[i] - l_prev[i, :i] @ y[:i]
        y[i] = resid / l_prev[i, i] if l_prev[i, i] > 0.0 else 0.0
    d = sig[t - 1, t - 1] - y @ y
    if d < -tol:
        raise NotPsdError(f"negative pivot {d:.3e} extending to round {t}")
    l[t - 1, : t - 1] = y
    l[t - 1, t - 1] = math.sqrt(d) if d > tol else 0.0
    return l


def komlos_rank(m: int, big_t: int, delta: float, eps: float) -> int:
    """Rank making the walk's high-probability balancing bound come out at
    1 + eps with failure probability delta."""
    r_hp = 1 + math.ceil(8.0 * math.log(2.0 * m * big_t / delta) / (eps * eps))
    return max(r_hp, math.ceil(2.0 / eps))


def banaszczyk_rank(m: int, big_t: int, delta: float) -> int:
    """Default rank for the online Gaussian-discrepancy run: the boundary
    of the low-rank vs union-bound regimes."""
    return max(2, math.ceil(math.log(m * big_t / delta)))

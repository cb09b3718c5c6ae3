"""Rank-r Gaussian fixed-point walk: an online balancer that receives
vectors v_t of norm at most 1 and emits unit vectors u_t in R^r while the
accumulator W_t = W_0 + sum v_s u_s^T stays exactly Gaussian in law.

Each round projects the accumulator onto the incoming direction, advances
that r-dimensional coordinate with one unit-increment kernel step at the
rescaled variance, and writes the step back. The balancing score is the
largest row norm of W_t - W_0 (the 2->inf norm of the signed sum).

walk_step takes one vector at a time. walk_run, given the whole adversary
matrix, evaluates the same rounds in blocks: the projections, the
accumulator updates and the row norms of a block come from matrix-matrix
products, while each round still makes its own kernel step on the same
draws. The blocks are zero-padded to a fixed width, so the outputs of a
run on a prefix of the columns are bitwise those of the whole run.

Also provided: the equivalence between unit-vector streams and nested
correlation-matrix streams, in both directions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chilaw import sigma_star
from .errors import DimMismatchError, InconsistentStreamError, NormTooLargeError
from .evals import coupling_from_units
from .kernel import kernel_step
from .linalg import SLICE_BYTES, check_symmetric, check_unit_diagonal, psd_cholesky, slice_plan
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
# Bounds on walk_run's block width (rounds per block), and how many blocks
# pass between exact recomputations of the squared row norms.
BLOCK_MIN = 8
BLOCK_MAX = 64
RESYNC_BLOCKS = 4
# walk_run copies a block of columns in slices of this many rows: copying a
# whole column block of a C-order matrix at once was 1.4x (8 columns) to 3x
# (64 columns) slower at m = 10^4, as it misses the cache row after row.
COPY_ROWS = 256


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
    """Accumulator, round index, and the (advancing) random stream; walk_step
    advances all three in place."""

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
    w = gen.standard_normal((config.m, config.r))
    w *= sigma_star(config.r)
    return WalkState(w=w, t=0, rng=gen)


def _check_norms(nsq: list[float], vs: np.ndarray, t0: int) -> None:
    """Reject the first column of vs, round t0 onward, that is not finite
    (ValueError) or longer than 1 (NormTooLargeError); nsq holds the
    columns' squared norms."""
    for j, q in enumerate(nsq):
        norm = math.sqrt(q)
        if not norm <= 1.0 + NORM_SLACK:  # also true for nan and inf
            if not np.isfinite(vs[:, j]).all():
                raise ValueError(f"v_{t0 + j} has non-finite entries")
            raise NormTooLargeError(f"||v_{t0 + j}|| = {norm:.12g} exceeds 1")


def _unit(z: np.ndarray, nsq: float, s2: float, gen: np.random.Generator) -> np.ndarray:
    """The unit vector emitted for a vector v with z = W^T v and ||v||^2 = nsq,
    for s2 = sigma_star(r)^2; the one round rule of walk_step and walk_run.

    A zero vector contributes nothing to the accumulator, so it is answered
    with the fixed unit vector e_1 without consuming randomness.
    """
    r = z.shape[0]
    if nsq == 0.0:
        u = np.zeros(r)
        u[0] = 1.0
        return u
    return kernel_step(s2 / nsq, z / nsq, gen)


def walk_step(state: WalkState, v: np.ndarray) -> tuple[np.ndarray, WalkState]:
    """Process one incoming vector; returns the emitted unit vector and the
    state it was given, advanced in place."""
    v = np.asarray(v, dtype=float)
    w = state.w
    if v.shape != w.shape[:1]:
        raise DimMismatchError(f"vector has shape {v.shape}, expected ({w.shape[0]},)")
    # vdot checks no floating-point flags: an overflowing squared norm is inf,
    # with no RuntimeWarning, and _check_norms rejects it
    nsq = float(np.vdot(v, v))
    _check_norms([nsq], v[:, None], state.t)
    u = _unit(w.T @ v, nsq, sigma_star(w.shape[1]) ** 2, state.rng)
    w += v[:, None] * u
    state.t += 1
    return u, state


def walk_run(config: WalkConfig, vs: np.ndarray) -> WalkRun:
    """Run the walk over the columns of vs (an m x T array).

    row_norms[t] is the 2->inf norm of the signed sum after round t+1, and
    running_max[t] its maximum over rounds so far.

    The rounds are evaluated in blocks of b = min(max(r, 8), 64) columns V,
    copied into an m x b buffer that a short final block leaves
    zero-padded. With the block's Gram matrix G = V^T V and Z = V^T W for
    the accumulator W at the start of the block, the block's columns are
    checked from the diagonal of G before its first round (a non-finite or
    too long column raises, as in walk_step), and round j projects onto
    v_j as (Z[j] + G[j, :j] U[:j]) / G[j, j] and takes the same kernel
    step on the same draws as walk_step. Once the block's emitted rows U
    are known, D = Delta U^T + V triu(U U^T, 1) holds Delta_{j-1} u_j for
    every round j, the squared row norms of the signed sum Delta advance
    round by round by v_j * (2 D[:, j] + v_j) (u_j is a unit vector), and
    V U is added to W and Delta, formed in row slices of about SLICE_BYTES
    (linalg.slice_plan); W_0 is drawn as in walk_init into W in the same
    slices, so beside the buffer no m x r array exists. The increments
    are added in round order in one m x (b + 1) buffer whose first column
    holds the squared norms at the start of the block, so each sum is that
    of the round-by-round update, and the block's row norms take one max
    over the rows and one sqrt, not one of each per round. The squared
    norms are recomputed from Delta every few blocks, so their drift stays
    bounded. W, V and Delta sit side by side in one buffer, so [Z G] is
    one gemm and D another (numpy takes V^T V alone through syrk, 3x
    slower).

    Every BLAS product has the same shapes whatever T is, and a round's
    outputs depend on no later column: us and row_norms of a prefix of vs
    are bitwise those of the whole run (the walk is online to the bit).
    walk_run and walk_step sum in different orders, so they agree to
    rounding, and they consume the same randomness.
    """
    vs = np.asarray(vs, dtype=float)
    if vs.ndim != 2 or vs.shape[0] != config.m:
        raise DimMismatchError(f"adversary matrix has shape {vs.shape}, expected ({config.m}, T)")
    m, r = config.m, config.r
    big_t = vs.shape[1]
    s2 = sigma_star(r) ** 2
    b = min(max(r, BLOCK_MIN), BLOCK_MAX)
    buf = np.zeros((m, r + b + r), order="F")
    w, vblk, delta = buf[:, :r], buf[:, r : r + b], buf[:, r + b :]  # delta: signed sum
    rows = slice_plan(m, SLICE_BYTES // (8 * r))
    gen = config.seed.generator()
    for sl in rows:  # W_0 as walk_init draws it: in C order, then scaled
        w[sl] = gen.standard_normal((sl.stop - sl.start, r))
    w *= sigma_star(r)
    # column 0 holds the squared row norms of delta at the start of a block,
    # columns 1..b their per-round increments and then their running values
    tail = np.zeros((m, b + 1), order="F")
    sq, inc = tail[:, 0], tail[:, 1:]
    ublk = np.zeros((b, r))
    step = np.empty((max(sl.stop - sl.start for sl in rows), r), order="F")  # V U by rows
    coef = np.empty((b + r, b))  # [2 triu(U U^T, 1); 2 U^T], so [V Delta] coef = 2 D
    upper2 = np.triu(np.full((b, b), 2.0), 1)
    us = np.empty((big_t, r))
    row_norms = np.empty(big_t)
    for k, start in enumerate(range(0, big_t, b)):
        width = min(b, big_t - start)
        for i in range(0, m, COPY_ROWS):
            vblk[i : i + COPY_ROWS, :width] = vs[i : i + COPY_ROWS, start : start + width]
        vblk[:, width:] = 0.0
        # _check_norms rejects a column that is not finite or whose norm overflows
        with np.errstate(over="ignore", invalid="ignore"):
            zg = vblk.T @ buf[:, : r + b]
        z, g = zg[:, :r], zg[:, r:]
        nsq = g.diagonal()[:width].tolist()
        _check_norms(nsq, vblk, start)
        for j in range(width):
            ublk[j] = _unit(z[j] + g[j, :j] @ ublk[:j], nsq[j], s2, gen)
        us[start : start + width] = ublk[:width]
        np.multiply(ublk @ ublk.T, upper2, out=coef[:b])
        np.multiply(ublk.T, 2.0, out=coef[b:])
        np.matmul(buf[:, r:], coef, out=inc)
        inc += vblk
        inc *= vblk
        for j in range(width):
            np.add(tail[:, j], tail[:, j + 1], out=tail[:, j + 1])
        # initial=0.0: a squared norm can fall below 0 by rounding
        np.sqrt(inc[:, :width].max(axis=0, initial=0.0), out=row_norms[start : start + width])
        sq[:] = tail[:, width]
        for sl in rows:
            part = step[: sl.stop - sl.start]
            np.matmul(vblk[sl], ublk, out=part)
            w[sl] += part
            delta[sl] += part
        if k % RESYNC_BLOCKS == RESYNC_BLOCKS - 1:
            np.einsum("ij,ij->i", delta, delta, out=sq)
    return WalkRun(us=us, row_norms=row_norms, running_max=np.maximum.accumulate(row_norms))


def gram_of_stream(us: np.ndarray) -> list[np.ndarray]:
    """Nested Gram matrices of the prefixes of a unit-vector stream."""
    full = coupling_from_units(us)
    return [full[:t, :t].copy() for t in range(1, full.shape[0] + 1)]


def stream_of_grams(sigmas: list[np.ndarray]) -> np.ndarray:
    """Recover a unit-vector stream whose prefix Grams match the given
    nested correlation matrices.

    Each matrix must be symmetric with a unit diagonal and restrict to its
    predecessor. Row t of a T x T matrix is read from the last row of the
    t-th matrix, and the stream is that matrix's rank-revealing factor
    psd_cholesky, computed once. As the factor of a leading block is the
    leading block of the factor, row t is supported on the first t
    coordinates and is the last row of the t-th matrix's factor. Each
    pivot and zero-column bound reads only its leading block, and every
    unit-diagonal prefix has the same pivot tolerance, so the one
    factorization raises NotPsdError when psd_cholesky rejects any matrix.
    """
    big_t = len(sigmas)
    full = np.zeros((big_t, big_t))
    prev: np.ndarray | None = None
    for t, sig in enumerate(sigmas, start=1):
        sig = check_unit_diagonal(check_symmetric(sig))
        if sig.shape != (t, t):
            raise DimMismatchError(f"matrix {t} has shape {sig.shape}, expected ({t}, {t})")
        if prev is not None:
            if float(np.abs(sig[: t - 1, : t - 1] - prev).max(initial=0.0)) > CONSISTENCY_ATOL:
                raise InconsistentStreamError(
                    f"matrix {t} does not restrict to matrix {t - 1}"
                )
        full[t - 1, :t] = sig[t - 1]
        prev = sig
    return psd_cholesky(full + np.tril(full, -1).T)


def komlos_rank(m: int, big_t: int, delta: float, eps: float) -> int:
    """Rank making the walk's high-probability balancing bound come out at
    1 + eps with failure probability delta."""
    r_hp = 1 + math.ceil(8.0 * math.log(2.0 * m * big_t / delta) / (eps * eps))
    return max(r_hp, math.ceil(2.0 / eps))


def banaszczyk_rank(m: int, big_t: int, delta: float) -> int:
    """Default rank for the online Gaussian-discrepancy run: the boundary
    of the low-rank vs union-bound regimes."""
    return max(2, math.ceil(math.log(m * big_t / delta)))

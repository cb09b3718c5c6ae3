"""Objective evaluators and coupling constructors for the four notions of
discrepancy: combinatorial (over sign vectors), vector (unit-vector rows,
equivalently Gram matrices), spherical (radius sqrt(n)), and Gaussian
(expected sup-norm under a correlated standard Gaussian coupling).

Exact objectives are evaluated directly; the Gaussian expectation has no
closed form and is estimated by Monte Carlo with a reported standard
error. The Monte Carlo evaluators take an RngHandle and sample in
fixed-size blocks, block k drawing from the handle's substream k, so
estimates do not depend on how blocks are scheduled.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimMismatchError,
    InfeasibleTriangleError,
    NotUnitError,
    TooLargeError,
)
from .linalg import psd_cholesky
from .parallel import map_trials
from .rng import RngHandle

__all__ = [
    "McEstimate",
    "check_signing",
    "check_spherical",
    "disc_bruteforce",
    "vdisc_objective",
    "vdisc_objective_units",
    "discs_objective",
    "discG_mc",
    "online_discG",
    "coupling_from_signing",
    "coupling_from_units",
    "triangle_rank2",
    "random_signing_baseline",
]

BRUTE_FORCE_MAX_N = 26
MC_BLOCK = 8192
UNIT_ATOL = 1e-9


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo mean with its standard error."""

    mean: float
    std_error: float
    samples: int
    seed: RngHandle


def check_signing(sigma: np.ndarray) -> np.ndarray:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or not np.all(np.abs(sigma) == 1.0):
        raise ValueError("signing entries must be exactly +-1")
    return sigma


def check_spherical(x: np.ndarray) -> np.ndarray:
    """Validate a point of the sphere of radius sqrt(n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise DimMismatchError(f"expected a vector, got shape {x.shape}")
    target = math.sqrt(x.shape[0])
    if abs(float(np.linalg.norm(x)) - target) > UNIT_ATOL * max(1.0, target):
        raise NotUnitError(f"||x|| must equal sqrt({x.shape[0]})")
    return x


def _check_unit_rows(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 2:
        raise DimMismatchError(f"expected unit rows in a 2-d array, got shape {u.shape}")
    if u.shape[0] and float(np.abs(np.linalg.norm(u, axis=1) - 1.0).max()) > UNIT_ATOL:
        raise NotUnitError("rows must be unit vectors")
    return u


def _check_sampling(samples: int, rng: RngHandle) -> None:
    if samples < 1:
        raise ValueError(f"Monte Carlo sample count must be at least 1, got {samples}")
    if not isinstance(rng, RngHandle):
        raise TypeError(f"Monte Carlo evaluators take an RngHandle, got {type(rng).__name__}")


def _block_plan(samples: int) -> list[int]:
    sizes = [MC_BLOCK] * (samples // MC_BLOCK)
    if samples % MC_BLOCK:
        sizes.append(samples % MC_BLOCK)
    return sizes


def _map_blocks(fn, rng: RngHandle, samples: int) -> list:
    """Run fn(generator, block_size) over the sample blocks, block k on
    substream k of rng, on the trial thread pool."""
    plan = _block_plan(samples)
    return map_trials(lambda k: fn(rng.substream(k).generator(), plan[k]), range(len(plan)))


def _estimate(vals: np.ndarray, rng: RngHandle) -> McEstimate:
    """Sample mean and standard error of the per-sample values."""
    samples = vals.shape[0]
    std_error = float(vals.std(ddof=1) / math.sqrt(samples)) if samples >= 2 else 0.0
    return McEstimate(float(vals.mean()), std_error, samples, rng)


def disc_bruteforce(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact discrepancy min over signings of ||A sigma||_inf, with an
    argmin, by enumerating the 2^(n-1) signings that fix sigma_1 = +1
    (negating a signing never changes the objective)."""
    a = np.asarray(a, dtype=float)
    m, n = a.shape
    if n > BRUTE_FORCE_MAX_N:
        raise TooLargeError(f"n={n} exceeds the enumeration budget ({BRUTE_FORCE_MAX_N})")
    if n == 0 or m == 0:
        return 0.0, np.ones(n)
    shifts = np.arange(n - 1, dtype=np.uint64)
    best_val = math.inf
    best_sigma = np.ones(n)
    chunk = 1 << 16
    total = 1 << (n - 1)
    for start in range(0, total, chunk):
        ks = np.arange(start, min(start + chunk, total), dtype=np.uint64)
        signs = np.empty((n, ks.size))
        signs[0] = 1.0
        signs[1:] = 1.0 - 2.0 * ((ks[None, :] >> shifts[:, None]) & 1)
        vals = np.abs(a @ signs).max(axis=0)
        k = int(np.argmin(vals))
        if vals[k] < best_val:
            best_val = float(vals[k])
            best_sigma = signs[:, k].copy()
    return best_val, best_sigma


def vdisc_objective(a: np.ndarray, sigma: np.ndarray) -> float:
    """sqrt(max_i <A_i, Sigma A_i>): the largest row norm of the balanced
    sum under the coupling with Gram matrix Sigma."""
    a = np.asarray(a, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if a.ndim != 2 or sigma.shape != (a.shape[1], a.shape[1]):
        raise DimMismatchError(
            f"matrix {a.shape} incompatible with coupling {sigma.shape}"
        )
    quad = np.einsum("ij,ij->i", a @ sigma, a)
    return math.sqrt(max(float(quad.max(initial=0.0)), 0.0))


def vdisc_objective_units(a: np.ndarray, u: np.ndarray) -> float:
    """max_i ||sum_j A_ij u_j||_2 for unit rows u_j; agrees with
    vdisc_objective(a, u @ u.T) to working precision."""
    a = np.asarray(a, dtype=float)
    u = _check_unit_rows(u)
    if a.ndim != 2 or a.shape[1] != u.shape[0]:
        raise DimMismatchError(f"matrix {a.shape} incompatible with rows {u.shape}")
    sums = a @ u
    return float(np.linalg.norm(sums, axis=1).max(initial=0.0))


def discs_objective(a: np.ndarray, x: np.ndarray) -> float:
    """||A x||_inf for a point of the radius-sqrt(n) sphere."""
    a = np.asarray(a, dtype=float)
    x = check_spherical(x)
    if a.ndim != 2 or a.shape[1] != x.shape[0]:
        raise DimMismatchError(f"matrix {a.shape} incompatible with point {x.shape}")
    return float(np.abs(a @ x).max(initial=0.0))


def discG_mc(
    a: np.ndarray,
    sigma: np.ndarray,
    samples: int,
    rng: RngHandle,
) -> McEstimate:
    """Monte Carlo estimate of E ||A g||_inf for g ~ N(0, Sigma)."""
    _check_sampling(samples, rng)
    a = np.asarray(a, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    n = a.shape[1] if a.ndim == 2 else -1
    if a.ndim != 2 or sigma.shape != (n, n):
        raise DimMismatchError(
            f"matrix {a.shape} incompatible with coupling {sigma.shape}"
        )
    low = psd_cholesky(sigma)

    def block(gen: np.random.Generator, size: int) -> np.ndarray:
        xi = gen.standard_normal((n, size))
        return np.abs(a @ (low @ xi)).max(axis=0, initial=0.0)

    return _estimate(np.concatenate(_map_blocks(block, rng, samples)), rng)


def online_discG(
    vs: np.ndarray,
    us: np.ndarray,
    samples: int,
    rng: RngHandle,
) -> McEstimate:
    """Largest-prefix expected sup norm max_t E ||sum_{s<=t} g_s v_s||_inf
    where g has the Gram matrix of the stream rows.

    The same Gaussian samples are reused across all prefixes, so the
    per-prefix means are comparable and their maximum is stable.
    """
    _check_sampling(samples, rng)
    vs = np.asarray(vs, dtype=float)
    us = np.asarray(us, dtype=float)
    if vs.ndim != 2 or us.ndim != 2 or vs.shape[1] != us.shape[0]:
        raise DimMismatchError(
            f"columns {vs.shape} incompatible with stream rows {us.shape}"
        )
    big_t = vs.shape[1]
    if big_t == 0:
        return McEstimate(0.0, 0.0, samples, rng)
    def block(gen: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        g = us @ gen.standard_normal((us.shape[1], size))
        acc = np.zeros((vs.shape[0], size))
        part_sums = np.empty(big_t)
        part_sqs = np.empty(big_t)
        for t in range(big_t):
            acc += np.outer(vs[:, t], g[t])
            cur = np.abs(acc).max(axis=0, initial=0.0)
            part_sums[t] = cur.sum()
            part_sqs[t] = cur @ cur
        return part_sums, part_sqs

    sums = np.zeros(big_t)
    sqs = np.zeros(big_t)
    for part_sums, part_sqs in _map_blocks(block, rng, samples):
        sums += part_sums
        sqs += part_sqs
    means = sums / samples
    t_star = int(np.argmax(means))
    mean = float(means[t_star])
    if samples < 2:
        return McEstimate(mean, 0.0, samples, rng)
    var = (sqs[t_star] - samples * mean * mean) / (samples - 1)
    return McEstimate(mean, math.sqrt(max(var, 0.0) / samples), samples, rng)


def coupling_from_signing(sigma: np.ndarray) -> np.ndarray:
    """Rank-1 correlation matrix sigma sigma^T of a signing."""
    sigma = check_signing(sigma)
    return np.outer(sigma, sigma)


def coupling_from_units(u: np.ndarray) -> np.ndarray:
    """Gram matrix u u^T of unit rows; rank at most the row width."""
    u = _check_unit_rows(u)
    out = u @ u.T
    np.fill_diagonal(out, 1.0)
    return out


def _default_blocks(n: int) -> tuple[int, int, int]:
    base = n // 3
    rem = n - 3 * base
    return (base + (rem > 0), base + (rem > 1), base)


def triangle_rank2(
    a: np.ndarray, blocks: tuple[int, int, int] | None = None
) -> np.ndarray:
    """Unit rows u_j in R^2 with sum_j a_j u_j = 0, built from a 3-block
    partition of the coordinates.

    The block sums of |a_j| must satisfy the triangle inequality
    2 max_i l_i <= l_1 + l_2 + l_3; the three block directions are then the
    sides of a triangle with those lengths (first side along +e_1, second
    with nonnegative vertical component) and each coordinate takes its
    block's direction times sign(a_j)."""
    a = np.asarray(a, dtype=float).ravel()
    n = a.shape[0]
    if blocks is None:
        blocks = _default_blocks(n)
    if len(blocks) != 3 or any(b < 0 for b in blocks) or sum(blocks) != n:
        raise ValueError(f"blocks {blocks} do not partition {n} coordinates")
    edges = np.cumsum([0, *blocks])
    lens = np.array(
        [np.abs(a[edges[i] : edges[i + 1]]).sum() for i in range(3)]
    )
    if 2.0 * lens.max() > lens.sum():
        raise InfeasibleTriangleError(
            f"block sums {lens.tolist()} violate the triangle inequality"
        )
    w = np.zeros((3, 2))
    positive = lens > 0.0
    if positive.sum() == 0:
        w[:] = [1.0, 0.0]
    elif positive.sum() == 2:
        # two equal sides cancel head to head; the zero side is arbitrary
        i, j = np.flatnonzero(positive)
        w[i] = [1.0, 0.0]
        w[j] = [-1.0, 0.0]
        w[np.flatnonzero(~positive)[0]] = [0.0, 1.0]
    else:
        l1, l2, l3 = lens
        cos12 = min(1.0, max(-1.0, (l3 * l3 - l1 * l1 - l2 * l2) / (2.0 * l1 * l2)))
        w[0] = [1.0, 0.0]
        w[1] = [cos12, math.sqrt(max(0.0, 1.0 - cos12 * cos12))]
        w[2] = -(l1 * w[0] + l2 * w[1]) / l3
    signs = np.where(a < 0.0, -1.0, 1.0)
    block_of = np.repeat(np.arange(3), blocks)
    return signs[:, None] * w[block_of]


def random_signing_baseline(a: np.ndarray, trials: int, rng: RngHandle) -> McEstimate:
    """Monte Carlo mean of ||A sigma||_inf over uniform random signings."""
    _check_sampling(trials, rng)
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimMismatchError(f"expected a matrix, got shape {a.shape}")
    n = a.shape[1]

    def block(gen: np.random.Generator, size: int) -> np.ndarray:
        signs = 1.0 - 2.0 * gen.integers(0, 2, size=(n, size))
        return np.abs(a @ signs).max(axis=0, initial=0.0)

    return _estimate(np.concatenate(_map_blocks(block, rng, trials)), rng)

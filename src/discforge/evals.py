"""Objective evaluators and coupling constructors for the four notions of
discrepancy: combinatorial (over sign vectors), vector (unit-vector rows,
equivalently Gram matrices), spherical (radius sqrt(n)), and Gaussian
(expected sup-norm under a correlated standard Gaussian coupling).

Exact objectives are evaluated directly; the Gaussian expectation has no
closed form and is estimated by Monte Carlo with a reported standard
error. The Monte Carlo evaluators take an RngHandle and sample in
fixed-size blocks, block k drawing from the handle's substream k, so an
estimate depends only on the handle and the sample count.
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
from .linalg import SLICE_BYTES, check_correlation, check_matrix, psd_cholesky, slice_plan
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
PREFIX_ROUNDS = 4
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
    # math.hypot scales internally, so no square overflows for finite x
    if not abs(math.hypot(*x.tolist()) - target) <= UNIT_ATOL * max(1.0, target):
        if not np.isfinite(x).all():
            raise ValueError("point has non-finite entries")
        raise NotUnitError(f"||x|| must equal sqrt({x.shape[0]})")
    return x


def _check_unit_rows(u: np.ndarray) -> np.ndarray:
    u = check_matrix(u)
    if u.shape[0] and float(np.abs(np.linalg.norm(u, axis=1) - 1.0).max()) > UNIT_ATOL:
        raise NotUnitError("rows must be unit vectors")
    return u


def _check_sampling(samples: int, rng: RngHandle) -> None:
    if samples < 1:
        raise ValueError(f"Monte Carlo sample count must be at least 1, got {samples}")
    if not isinstance(rng, RngHandle):
        raise TypeError(f"Monte Carlo evaluators take an RngHandle, got {type(rng).__name__}")


def _map_blocks(fn, rng: RngHandle, samples: int) -> list:
    """Run fn(generator, block_size) over blocks of MC_BLOCK samples (the
    last one shorter) in order, block k on substream k of rng."""
    return [
        fn(rng.substream(k).generator(), min(MC_BLOCK, samples - start))
        for k, start in enumerate(range(0, samples, MC_BLOCK))
    ]


def _estimate(vals: np.ndarray, rng: RngHandle) -> McEstimate:
    """Sample mean and standard error of the per-sample values."""
    samples = vals.shape[0]
    std_error = float(vals.std(ddof=1) / math.sqrt(samples)) if samples >= 2 else 0.0
    return McEstimate(float(vals.mean()), std_error, samples, rng)


def _scale_exponent(x: np.ndarray) -> int:
    """The exponent e of frexp(max |x|), so 2^-e x has entries below 1 in
    magnitude and its per-sample values, their squares and their float32
    casts neither overflow nor flush to zero. A subnormal peak gives
    e = -1022, so 2^-e stays a finite float64."""
    peak = max(float(x.max(initial=0.0)), -float(x.min(initial=0.0)))
    return max(math.frexp(peak)[1], -1022)


def _scaled_back(est: McEstimate, exponent: int) -> McEstimate:
    """An estimate of 2^-e X as one of X: both numbers times 2^e, exactly."""
    return McEstimate(
        math.ldexp(est.mean, exponent),
        math.ldexp(est.std_error, exponent),
        est.samples,
        est.seed,
    )


def disc_bruteforce(a: np.ndarray) -> tuple[float, np.ndarray]:
    """Exact discrepancy min over signings of ||A sigma||_inf, with an
    argmin, by enumerating the 2^(n-1) signings that fix sigma_1 = +1
    (negating a signing never changes the objective)."""
    a = check_matrix(a)
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
    sum under the coupling with Gram matrix Sigma, a correlation matrix."""
    a = check_matrix(a)
    sigma = check_correlation(sigma)
    if sigma.shape != (a.shape[1], a.shape[1]):
        raise DimMismatchError(
            f"matrix {a.shape} incompatible with coupling {sigma.shape}"
        )
    quad = np.einsum("ij,ij->i", a @ sigma, a)
    return math.sqrt(max(float(quad.max(initial=0.0)), 0.0))


def vdisc_objective_units(a: np.ndarray, u: np.ndarray) -> float:
    """max_i ||sum_j A_ij u_j||_2 for unit rows u_j; agrees with
    vdisc_objective(a, u @ u.T) to working precision."""
    a = check_matrix(a)
    u = _check_unit_rows(u)
    if a.shape[1] != u.shape[0]:
        raise DimMismatchError(f"matrix {a.shape} incompatible with rows {u.shape}")
    sums = a @ u
    return float(np.linalg.norm(sums, axis=1).max(initial=0.0))


def discs_objective(a: np.ndarray, x: np.ndarray) -> float:
    """||A x||_inf for a point of the radius-sqrt(n) sphere."""
    a = check_matrix(a)
    x = check_spherical(x)
    if a.shape[1] != x.shape[0]:
        raise DimMismatchError(f"matrix {a.shape} incompatible with point {x.shape}")
    return float(np.abs(a @ x).max(initial=0.0))


def discG_mc(
    a: np.ndarray,
    sigma: np.ndarray,
    samples: int,
    rng: RngHandle,
) -> McEstimate:
    """Monte Carlo estimate of E ||A g||_inf for g ~ N(0, Sigma).

    Samples in the coupling's rank k: with L_k the k nonzero columns of
    L = psd_cholesky(Sigma), g = L_k xi for xi ~ N(0, I_k), so A L_k is
    formed once and each sample costs k normals and one product with it.
    A zero coupling (k = 0) estimates exactly 0. Once A L_k is formed the
    n x n factor is dropped, and each block's m x size product is taken,
    its absolute value in place, in column slices of about SLICE_BYTES.

    A L_k is scaled once by the power of two 2^-e, with e the exponent of
    frexp(max |A L_k|), and the mean and standard error are multiplied
    back by 2^e. Scaling by a power of two is exact, so at ordinary scales
    the estimate is bitwise that of the unscaled product; at extreme ones
    (A of order 1e200 or 1e-200) the sum of squares behind the standard
    error neither overflows nor underflows. The arithmetic is float64.
    """
    _check_sampling(samples, rng)
    a = check_matrix(a)
    # psd_cholesky rejects non-finite entries of sigma
    sigma = np.asarray(sigma, dtype=float)
    n = a.shape[1]
    if sigma.shape != (n, n):
        raise DimMismatchError(
            f"matrix {a.shape} incompatible with coupling {sigma.shape}"
        )
    low = psd_cholesky(sigma)
    ak = a @ low[:, np.diag(low) > 0.0]
    del low  # free the n x n factor before the sampling temporaries
    exponent = _scale_exponent(ak)
    np.ldexp(ak, -exponent, out=ak)
    m, k = ak.shape

    def block(gen: np.random.Generator, size: int) -> np.ndarray:
        xi = gen.standard_normal((k, size))
        plan = slice_plan(size, SLICE_BYTES // (8 * max(m, 1)))
        buf = np.empty((m, max(cols.stop - cols.start for cols in plan)))
        vals = np.empty(size)
        for cols in plan:
            prod = np.matmul(ak, xi[:, cols], out=buf[:, : cols.stop - cols.start])
            np.abs(prod, out=prod).max(axis=0, initial=0.0, out=vals[cols])
        return vals

    est = _estimate(np.concatenate(_map_blocks(block, rng, samples)), rng)
    return _scaled_back(est, exponent)


def online_discG(
    vs: np.ndarray,
    us: np.ndarray,
    samples: int,
    rng: RngHandle,
) -> McEstimate:
    """Largest-prefix expected sup norm max_t E ||sum_{s<=t} g_s v_s||_inf
    where g has the Gram matrix of the stream rows, which must be unit
    vectors (NotUnitError otherwise).

    The same Gaussian samples are reused across all prefixes, so the
    per-prefix means are comparable and their maximum is stable. Each
    Monte Carlo block draws its normals at once and evaluates the prefixes
    in blocks of PREFIX_ROUNDS (4) rounds: one product of the round
    block's V, stacked 4 times with the columns of later rounds masked,
    with those rows of g = us @ normals gives all 4 prefix increments,
    which are added to the running sum. The (4m x 4) stack is built for
    each round block as it is reached, so no 4m x T copy of the stream is
    made. The samples go through in column chunks of max(256, SLICE_BYTES
    // (4 * 4 * m)), each with its own g, so no T x size g exists and the
    product's 4m x cols output is SLICE_BYTES (1 MiB) up to m = 256; above
    it the 256-column floor makes it 4 m KiB (16 MiB at m = 4096).

    The prefix arithmetic runs in float32. V is scaled by the power of two
    2^-e, with e the exponent of frexp(max |V|), as each round block's
    float32 stack is built from it (the scale sits in the mask, so no
    scaled or float32 copy of V is made), and each chunk's g is cast to
    float32 as it is formed. The per-sample maxima of each round are
    summed, and their squares summed, in float64; the mean and standard
    error are formed in float64 and multiplied back by 2^e. The draws are
    those of the round-by-round float64 recursion acc += v_t g_t, and the
    estimate is within 1e-3 standard errors and 1e-6 relative of it (tested
    up to m = 4096, T = 384 and at 20 000 samples).
    """
    _check_sampling(samples, rng)
    vs = check_matrix(vs)
    us = _check_unit_rows(us)
    if vs.shape[1] != us.shape[0]:
        raise DimMismatchError(
            f"columns {vs.shape} incompatible with stream rows {us.shape}"
        )
    m, big_t = vs.shape
    if big_t == 0 or m == 0:
        return McEstimate(0.0, 0.0, samples, rng)
    b = PREFIX_ROUNDS
    exponent = _scale_exponent(vs)
    # slab j of a round block's stack is the block's V, times 2^-e, with the
    # columns of its rounds after j zeroed, so stack @ g[rows] gives the
    # increments of all b prefixes
    mask = np.ldexp(np.tri(b)[:, None], -exponent)
    chunk = max(256, SLICE_BYTES // (4 * b * m))

    def block(gen: np.random.Generator, size: int) -> tuple[np.ndarray, np.ndarray]:
        normals = gen.standard_normal((us.shape[1], size))
        part_sums = np.zeros(big_t)
        part_sqs = np.zeros(big_t)
        stack = np.empty((b, m, b), dtype=np.float32)
        for c0 in range(0, size, chunk):
            g = (us @ normals[:, c0 : c0 + chunk]).astype(np.float32)
            cols = g.shape[1]
            acc = np.zeros((m, cols), dtype=np.float32)
            buf = np.empty((b * m, cols), dtype=np.float32)
            maxima = np.empty((big_t, cols), dtype=np.float32)  # per round and sample
            for t0 in range(0, big_t, b):
                nb = min(b, big_t - t0)
                slabs = stack[:nb, :, :nb]
                np.multiply(vs[:, t0 : t0 + nb], mask[:nb, :, :nb], out=slabs)
                pre = buf[: nb * m]
                np.matmul(slabs.reshape(nb * m, nb), g[t0 : t0 + nb], out=pre)
                pre = pre.reshape(nb, m, cols)
                pre += acc
                acc[...] = pre[-1]
                np.abs(pre, out=pre)
                pre.max(axis=1, out=maxima[t0 : t0 + nb])
            part_sums += maxima.sum(axis=1, dtype=np.float64)
            part_sqs += np.einsum("ij,ij->i", maxima, maxima, dtype=np.float64)
        return part_sums, part_sqs

    sums = np.zeros(big_t)
    sqs = np.zeros(big_t)
    for part_sums, part_sqs in _map_blocks(block, rng, samples):
        sums += part_sums
        sqs += part_sqs
    means = sums / samples
    t_star = int(np.argmax(means))
    mean = float(means[t_star])
    std_error = 0.0
    if samples >= 2:
        var = (sqs[t_star] - samples * mean * mean) / (samples - 1)
        std_error = math.sqrt(max(var, 0.0) / samples)
    return _scaled_back(McEstimate(mean, std_error, samples, rng), exponent)


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
    if not np.isfinite(a).all():
        raise ValueError("coefficients have non-finite entries")
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
    """Monte Carlo mean of ||A sigma||_inf over uniform random signings.

    Each Monte Carlo block draws its n x size sign bits at once, 32 to a
    uint32 word, lowest bit first; these are the bits and the generator
    state of integers(0, 2, (n, size), dtype=bool), which takes one 32-bit
    draw per 32 bits in the same order.

    The products run in float32. A is scaled once by the power of two
    2^-e, with e the exponent of frexp(max |A|), so its entries lie below
    1 in magnitude and cast to float32 without overflow or flush to zero;
    r holds the float32 row sums of the scaled matrix A'. With b the bits
    as float32 0/1 values, sigma = 1 - 2b gives A' sigma = r - 2 A' b, so
    the bits are copied once into a float32 buffer in column slices of
    about SLICE_BYTES (linalg.slice_plan) and each slice costs one float32
    gemm plus in-place work on its small m x cols product. The per-sample
    maxima of A' are kept in float64, their mean and standard error are
    formed in float64, and both are multiplied back by 2^e, which is exact
    and cannot overflow the sum of squares. The estimate differs from the
    float64 products of the same bits by less than 1e-3 standard errors
    (tested at 80 x 502 and 263 x 2002, 2000 samples).
    """
    _check_sampling(trials, rng)
    a = check_matrix(a)
    n = a.shape[1]
    exponent = _scale_exponent(a)
    a32 = np.ldexp(a, -exponent).astype(np.float32)
    r = a32.sum(axis=1)[:, None]

    def block(gen: np.random.Generator, size: int) -> np.ndarray:
        words = gen.integers(0, 1 << 32, size=-(-n * size // 32), dtype=np.uint32)
        bits = np.unpackbits(
            words.astype("<u4", copy=False).view(np.uint8), count=n * size, bitorder="little"
        ).reshape(n, size)
        del words
        plan = slice_plan(size, SLICE_BYTES // (4 * max(n, 1)))
        buf = np.empty((n, max(cols.stop - cols.start for cols in plan)), dtype=np.float32)
        vals = np.empty(size)
        for cols in plan:
            part = buf[:, : cols.stop - cols.start]
            np.copyto(part, bits[:, cols])
            prod = a32 @ part
            prod *= -2.0
            prod += r
            np.abs(prod, out=prod)
            prod.max(axis=0, initial=0.0, out=vals[cols])
        return vals

    return _scaled_back(_estimate(np.concatenate(_map_blocks(block, rng, trials)), rng), exponent)

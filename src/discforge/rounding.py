"""Rounding correlation matrices to signings, and why that fails.

The planted family: for n = 2 (mod 4), the cosine/sine vectors c, s over
the n-th roots of unity span a two-dimensional space; the correlation
matrix c c^T + s s^T is a zero-objective Gaussian coupling for any matrix
whose rows are sampled orthogonal to span{c, s}. Rounding that coupling
with either a Gaussian sign draw (Goemans-Williamson) or the sign of a
top eigenvector (PCA) always lands in the cyclic-shift orbit of the
half-ones vector, whose combinatorial discrepancy on those instances is
large. ``rounding_experiment`` measures all of this on sampled instances.
"""
from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BadSizeError
from .evals import discG_mc, random_signing_baseline
from .linalg import psd_cholesky, top_eigvec
from .report import PASS_FRACTION, ExperimentReport, check_trials, verdict
from .rng import RngHandle

__all__ = [
    "PlantedInstance",
    "make_planted",
    "gw_round",
    "pca_round",
    "half_ones",
    "shift_orbit_index",
    "spencer_rows",
    "komlos_rows",
    "Setting",
    "SETTINGS",
    "rounding_experiment",
]

# Entry/column normalization A' = A / (scale * sqrt(ln n)) per setting.
# Spencer needs the largest entry of A' at most 1: entries are Gaussian with
# variance <= 1, so max |A_ij| ~ sqrt(2 ln(mn)) and scale 3 covers it far
# past n = 10^4. Komlos needs *column norms* at most 1: a column norm
# concentrates at sqrt(m) = sqrt(10 ln n), already 3.16 sqrt(ln n), so the
# scale must exceed sqrt(10) plus fluctuation room; 5 keeps the failure
# rate under 5% at desk sizes.
SPENCER_SCALE = 3.0
KOMLOS_SCALE = 5.0

# Frozen lower-bound factors for the rounded signings, calibrated by a
# pilot run (tools/calibrate_rounding.py: seed 20260811, 400 trials at
# n=502). Scaled sup norms of both rounding schemes concentrate near
# 0.155 sqrt(n) (Spencer, scale 3) and 0.225 sqrt(n/ln n) (Komlos,
# scale 5); the observed 0.5th percentiles were 0.108 and 0.147. The
# frozen factors sit below those, so single trials fail with probability
# well under 1%.
SPENCER_GW_FACTOR = 0.10
KOMLOS_GW_FACTOR = 0.14

PLANTED_DISCG_TOL = 1e-6
# Monte Carlo samples per trial for the planted coupling's Gaussian
# discrepancy and for the random-signing baseline.
MC_SAMPLES = BASELINE_SAMPLES = 2000


@dataclass(frozen=True)
class PlantedInstance:
    """Matrix with rows orthogonal to the planted trig plane, plus the
    plane itself and its zero-objective coupling."""

    m: int
    n: int
    a: np.ndarray
    c: np.ndarray
    s: np.ndarray
    sigma: np.ndarray


@functools.lru_cache(maxsize=1)
def _planted_plane(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The trig vectors c, s and the coupling c cT + s sT of size n = 2
    (mod 4), n >= 6, read-only and shared by every instance of that size."""
    if n % 4 != 2 or n < 6:
        raise BadSizeError(f"planted instances need n = 2 (mod 4), n >= 6; got {n}")
    angle = 2.0 * math.pi * np.arange(1, n + 1) / n
    c, s = np.cos(angle), np.sin(angle)
    sigma = np.outer(c, c)
    sigma += np.outer(s, s)
    for arr in (c, s, sigma):
        arr.flags.writeable = False
    return c, s, sigma


def make_planted(m: int, n: int, gen: np.random.Generator) -> PlantedInstance:
    """Sample an m x n matrix with i.i.d. rows isotropic on the orthogonal
    complement of the trig plane. The plane's c, s and sigma are read-only
    arrays shared by every instance of size n."""
    c, s, sigma = _planted_plane(n)
    g = gen.standard_normal((m, n))
    a = g - (2.0 / n) * np.outer(g @ c, c) - (2.0 / n) * np.outer(g @ s, s)
    return PlantedInstance(m=m, n=n, a=a, c=c, s=s, sigma=sigma)


def gw_round(sigma: np.ndarray, gen: np.random.Generator) -> np.ndarray:
    """Sign pattern of one N(0, sigma) draw L xi with L = psd_cholesky(sigma);
    zeros round up to +1."""
    sigma = np.asarray(sigma, dtype=float)
    g = psd_cholesky(sigma) @ gen.standard_normal(sigma.shape[0])
    return np.where(g >= 0.0, 1.0, -1.0)


def pca_round(sigma: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Sign pattern of the dominant eigenvector that power iteration reaches
    from ``init``; zeros round up to +1.

    When the top eigenvalue is not simple the start vector breaks the tie:
    the signing is that of init's projection onto the top eigenspace, so
    for a fully degenerate spectrum such as the identity it is the sign
    pattern of ``init`` itself.
    """
    v = top_eigvec(np.asarray(sigma, dtype=float), init)
    return np.where(v >= 0.0, 1.0, -1.0)


def half_ones(n: int) -> np.ndarray:
    """The vector of n/2 ones followed by n/2 minus-ones."""
    if n % 2 != 0:
        raise BadSizeError(f"need even length, got {n}")
    w = np.ones(n)
    w[n // 2 :] = -1.0
    return w


def shift_orbit_index(sigma: np.ndarray, w: np.ndarray) -> int | None:
    """Least exponent k with sigma equal to the k-fold left shift of the
    vector w, or None (also when the shapes differ)."""
    sigma = np.asarray(sigma)
    w = np.asarray(w)
    if sigma.shape != w.shape:
        return None
    n = w.shape[0]
    # row k of the windows is w[k:] followed by w[:k], the k-fold left shift
    shifts = sliding_window_view(np.concatenate([w, w]), n)[:n]
    hits = np.flatnonzero((shifts == sigma).all(axis=1))
    return int(hits[0]) if hits.size else None


def spencer_rows(n: int) -> int:
    return int(n / math.log(n))


def komlos_rows(n: int) -> int:
    return int(10.0 * math.log(n))


@dataclass(frozen=True)
class Setting:
    """One normalization setting: the row count m(n), the scale c of
    A' = A / (c sqrt(ln n)), the feasibility check on A', and the rate(n)
    and frozen factor of the signing lower bound factor * rate(n)."""

    rows: Callable[[int], int]
    scale: float
    feasible: Callable[[np.ndarray], bool]
    rate: Callable[[int], float]
    factor: float

    def normalize(self, a: np.ndarray, n: int) -> np.ndarray:
        return a / (self.scale * math.sqrt(math.log(n)))


SETTINGS = {
    "spencer": Setting(
        spencer_rows, SPENCER_SCALE, lambda a: np.abs(a).max() <= 1.0, math.sqrt, SPENCER_GW_FACTOR
    ),
    "komlos": Setting(
        komlos_rows, KOMLOS_SCALE, lambda a: np.linalg.norm(a, axis=0).max() <= 1.0,
        lambda n: math.sqrt(n / math.log(n)), KOMLOS_GW_FACTOR,
    ),
}


def _trial(
    setting: Setting, n: int, rng: RngHandle, sig_pca: np.ndarray, pca_orbit: bool
) -> dict:
    """One trial: the instance and the GW draw come from rng's own stream,
    the two Monte Carlo estimates from its substreams 1 and 2. The PCA
    signing and its orbit membership depend on n alone and come in from
    the experiment."""
    m = setting.rows(n)
    gen = rng.generator()
    inst = make_planted(m, n, gen)
    a_scaled = setting.normalize(inst.a, n)
    sig_gw = gw_round(inst.sigma, gen)
    baseline = random_signing_baseline(a_scaled, BASELINE_SAMPLES, rng.substream(1))
    planted = discG_mc(a_scaled, inst.sigma, MC_SAMPLES, rng.substream(2))
    return {
        "m": m,
        "feasible": bool(setting.feasible(a_scaled)),
        "gw_linf": float(np.abs(a_scaled @ sig_gw).max()),
        "pca_linf": float(np.abs(a_scaled @ sig_pca).max()),
        "gw_orbit": shift_orbit_index(sig_gw, half_ones(n)) is not None,
        "pca_orbit": pca_orbit,
        "random_baseline": baseline.mean,
        "random_baseline_se": baseline.std_error,
        "planted_discG": planted.mean,
        "planted_discG_se": planted.std_error,
    }


def rounding_experiment(setting: str, n: int, trials: int, rng: RngHandle) -> ExperimentReport:
    """Run the rounding-failure experiment and report verdicts.

    Verdicts: the planted coupling evaluates to (numerically) zero, every
    rounded signing lies in the shift orbit, the scaled instances are
    feasible for their setting, and the rounded signings incur at least
    the frozen lower-bound threshold, all in at least 95% of trials.
    """
    if setting not in SETTINGS:
        raise ValueError(f"unknown setting {setting!r}")
    c, s, sigma = _planted_plane(n)
    check_trials(trials)
    rules = SETTINGS[setting]
    sig_pca = pca_round(sigma, c + 1e-3 * s)
    pca_orbit = shift_orbit_index(sig_pca, half_ones(n)) is not None
    metrics = [_trial(rules, n, rng.substream(k), sig_pca, pca_orbit) for k in range(trials)]
    threshold = rules.factor * rules.rate(n)
    frac_feasible = float(np.mean([t["feasible"] for t in metrics]))
    frac_gw_low = float(np.mean([t["gw_linf"] >= threshold for t in metrics]))
    frac_pca_low = float(np.mean([t["pca_linf"] >= threshold for t in metrics]))
    orbit_all = bool(all(t["gw_orbit"] and t["pca_orbit"] for t in metrics))
    max_planted = float(max(t["planted_discG"] for t in metrics))
    verdicts = {
        "planted_coupling_zero": verdict(max_planted, PLANTED_DISCG_TOL, "<="),
        "orbit_membership": verdict(orbit_all, True, "=="),
        "feasible_fraction": verdict(frac_feasible, PASS_FRACTION, ">="),
        "gw_lower_bound_fraction": verdict(frac_gw_low, PASS_FRACTION, ">="),
        "pca_lower_bound_fraction": verdict(frac_pca_low, PASS_FRACTION, ">="),
    }
    summary = {
        "signing_threshold": threshold,
        "mean_gw_linf": float(np.mean([t["gw_linf"] for t in metrics])),
        "mean_pca_linf": float(np.mean([t["pca_linf"] for t in metrics])),
        "mean_random_baseline": float(np.mean([t["random_baseline"] for t in metrics])),
        "max_planted_discG": max_planted,
        "feasible_fraction": frac_feasible,
    }
    return ExperimentReport(
        name="rounding",
        spec={
            "setting": setting,
            "n": n,
            "m": metrics[0]["m"] if metrics else None,
            "c_scale": rules.scale,
            "trials": trials,
        },
        seed=asdict(rng),
        metrics=metrics,
        summary=summary,
        verdicts=verdicts,
    )

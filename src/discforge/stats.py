"""Statistical checks used to verify distributional claims: a one-sample
Kolmogorov-Smirnov test and an entrywise empirical-covariance test.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np
from scipy.stats import kstest

from .errors import TooFewSamplesError

__all__ = ["KsResult", "CovResult", "ks_test", "cov_test"]

KS_MIN_SAMPLES = 10
COV_MIN_SAMPLES = 100


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    p_value: float
    level: float
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class CovResult:
    passed: bool
    max_abs_deviation: float
    tol: float


def ks_test(
    samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray], level: float = 0.01
) -> KsResult:
    """One-sample KS test of samples against a continuous CDF, by
    ``scipy.stats.kstest`` with the asymptotic Kolmogorov p-value of
    sqrt(n) times the statistic sup |empirical - cdf|.
    """
    samples = np.asarray(samples, dtype=float).ravel()
    n = samples.shape[0]
    if n < KS_MIN_SAMPLES:
        raise TooFewSamplesError(f"KS test needs >= {KS_MIN_SAMPLES} samples, got {n}")
    res = kstest(samples, cdf, method="asymp")
    p = float(res.pvalue)
    return KsResult(statistic=float(res.statistic), n=n, p_value=p, level=level, passed=p >= level)


def cov_test(samples: np.ndarray, target: np.ndarray, tol: float) -> CovResult:
    """Entrywise check |empirical covariance - target| <= tol."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] < COV_MIN_SAMPLES:
        raise TooFewSamplesError(
            f"covariance test needs >= {COV_MIN_SAMPLES} samples, got {samples.shape[0]}"
        )
    target = np.atleast_2d(np.asarray(target, dtype=float))
    emp = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
    dev = float(np.abs(emp - target).max())
    return CovResult(passed=dev <= tol, max_abs_deviation=dev, tol=tol)

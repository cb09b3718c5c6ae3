"""Statistical measurements used to verify distributional claims: a
one-sample Kolmogorov-Smirnov test, an entrywise empirical-covariance
deviation, and Holm's step-down adjustment of a family of p-values.

All three return numbers only. A caller gates them through
``report.verdict`` (a p-value or an adjusted p-value against a level, a
deviation against a tolerance), which is the one place a number becomes
pass or fail.

The KS p-value comes from ``scipy.special.kolmogorov``, imported on first
use so that importing this module loads no scipy.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable

import numpy as np

from .errors import TooFewSamplesError

__all__ = ["KsResult", "ks_test", "cov_test", "holm_adjust"]

KS_MIN_SAMPLES = 10
COV_MIN_SAMPLES = 100


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n: int
    p_value: float

    def to_dict(self) -> dict:
        return asdict(self)


def ks_test(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> KsResult:
    """One-sample two-sided KS test of samples against a continuous CDF.

    The statistic is D = sup |empirical - cdf| over the sorted samples, and
    the p-value is the asymptotic Kolmogorov tail kolmogorov(sqrt(n) D):
    the numbers ``scipy.stats.kstest(method="asymp")`` computes.
    """
    from scipy.special import kolmogorov

    samples = np.sort(np.asarray(samples, dtype=float).ravel())
    n = samples.shape[0]
    if n < KS_MIN_SAMPLES:
        raise TooFewSamplesError(f"KS test needs >= {KS_MIN_SAMPLES} samples, got {n}")
    cdfvals = cdf(samples)
    d_plus = (np.arange(1.0, n + 1) / n - cdfvals).max()
    d_minus = (cdfvals - np.arange(0.0, n) / n).max()
    d = float(max(d_plus, d_minus))
    p = float(kolmogorov(d * math.sqrt(n)))
    return KsResult(statistic=d, n=n, p_value=p)


def cov_test(samples: np.ndarray, target: np.ndarray) -> float:
    """Largest entrywise |empirical covariance - target|."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] < COV_MIN_SAMPLES:
        raise TooFewSamplesError(
            f"covariance test needs >= {COV_MIN_SAMPLES} samples, got {samples.shape[0]}"
        )
    target = np.atleast_2d(np.asarray(target, dtype=float))
    emp = np.atleast_2d(np.cov(samples, rowvar=False, ddof=1))
    return float(np.abs(emp - target).max())


def holm_adjust(p_values) -> list[float]:
    """Holm's step-down adjusted p-values, in the input order.

    With the K p-values sorted ascending, the i-th (from 0) adjusts to the
    running maximum of (K - j) p_(j) over j <= i, capped at 1. Gating each
    adjusted value at a level rejects exactly the hypotheses Holm's
    procedure rejects, so the family-wise error stays at that level.
    """
    p = np.asarray(p_values, dtype=float)
    order = np.argsort(p, kind="stable")
    scaled = np.maximum.accumulate((p.size - np.arange(p.size)) * p[order])
    adjusted = np.empty(p.size)
    adjusted[order] = np.minimum(scaled, 1.0)
    return adjusted.tolist()

"""Scaled chi distribution and the critical variance threshold.

``ChiLaw(r, sigma2)`` is the law of ||g|| for g ~ N(0, sigma2 * I_r): the
chi law with r degrees of freedom and scale sqrt(sigma2). Its CDF and log
density come from ``scipy.special`` (the regularized lower incomplete
gamma function, ``gammaln`` and ``xlogy``), imported on first use so that
the walk, which needs only ``sigma_star``, never loads it. The radial
kernel is only well defined when the density mass at a reflected radius
1-s dominates the mass at s on [0, 1/2]; ``sigma_star`` gives the
smallest standard deviation for which that holds and
``ratio_condition_holds`` checks it numerically on a grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import RankTooSmallError

__all__ = [
    "ChiLaw",
    "RatioCheck",
    "sigma_star",
    "chi_log_density",
    "chi_density",
    "chi_cdf",
    "ratio_condition_holds",
]

# Absolute slack when scanning for density-ratio violations, and the
# number of grid points the scan takes on [0, 1/2].
RATIO_ATOL = 1e-12
RATIO_GRID = 100_000


@dataclass(frozen=True)
class ChiLaw:
    """Distribution of the Euclidean norm of an r-dim centered Gaussian
    with i.i.d. coordinates of variance sigma2."""

    r: int
    sigma2: float

    def __post_init__(self) -> None:
        if int(self.r) != self.r or self.r < 1:
            raise ValueError(f"degrees of freedom must be an integer >= 1, got {self.r}")
        if not (self.sigma2 > 0.0):
            raise ValueError(f"variance must be positive, got {self.sigma2}")
        object.__setattr__(self, "r", int(self.r))
        object.__setattr__(self, "sigma2", float(self.sigma2))


def sigma_star(r: int) -> float:
    """Smallest admissible standard deviation 1 / (2 sqrt(r - 1)).

    Below this value the density mode falls inside (0, 1/2) and the
    kernel's mixture weight exceeds 1 somewhere. Rank 1 has no admissible
    value at all (parity obstruction), hence RankTooSmallError.
    """
    if r < 2:
        raise RankTooSmallError(f"no unit-increment chain with Gaussian law for r={r}")
    return 1.0 / (2.0 * math.sqrt(r - 1.0))


def chi_log_density(law: ChiLaw, s):
    """Log density, elementwise on arrays; -inf outside the support and at
    s = inf.

    With x = s / sigma: log 2 - (r/2) log 2 - lgamma(r/2) + (r-1) log x
    - x^2/2 - log sigma, where xlogy makes the r = 1 term 0 at x = 0.
    """
    from scipy.special import gammaln, xlogy

    sigma = math.sqrt(law.sigma2)
    x = np.asarray(s, dtype=float) / sigma
    const = math.log(2.0) - 0.5 * math.log(2.0) * law.r - float(gammaln(0.5 * law.r))
    with np.errstate(invalid="ignore"):  # inf - inf at s = inf
        out = const + xlogy(law.r - 1.0, x) - 0.5 * x * x - math.log(sigma)
    out = np.where((x < 0.0) | (x == np.inf), -np.inf, out)
    return out if out.ndim else float(out)


def chi_density(law: ChiLaw, s):
    """Density of the scaled chi law; 0 for s < 0. Accepts arrays."""
    out = np.exp(chi_log_density(law, s))
    return out if np.ndim(out) else float(out)


def chi_cdf(law: ChiLaw, s):
    """CDF of the scaled chi law, gammainc(r/2, x^2/2) at x = s / sigma and
    0 for s < 0; accepts scalars or arrays."""
    from scipy.special import gammainc

    x = np.asarray(s, dtype=float) / math.sqrt(law.sigma2)
    out = np.where(x < 0.0, 0.0, gammainc(0.5 * law.r, 0.5 * x * x))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RatioCheck:
    """Outcome of the grid scan: largest density excess at a radius s over
    its reflection 1-s, and where it occurred."""

    holds: bool
    worst_s: float
    worst_gap: float


def ratio_condition_holds(r: int, sigma: float) -> RatioCheck:
    """Scan RATIO_GRID points s of [0, 1/2] for density(s) exceeding
    density(1-s).

    The kernel's mixture weight density(1-t)/density(t) for t in [1/2, 1)
    stays within [0, 1] exactly when no grid point violates
    density(s) <= density(1-s) beyond RATIO_ATOL. Holds iff
    sigma >= sigma_star(r).
    """
    if r < 2:
        raise RankTooSmallError(f"ratio condition undefined for r={r}")
    law = ChiLaw(r, sigma * sigma)
    s = np.linspace(0.0, 0.5, RATIO_GRID)
    gap = chi_density(law, s) - chi_density(law, 1.0 - s)
    k = int(np.argmax(gap))
    worst = float(gap[k])
    return RatioCheck(holds=worst <= RATIO_ATOL, worst_s=float(s[k]), worst_gap=worst)

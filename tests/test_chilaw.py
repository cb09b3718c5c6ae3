import math

import numpy as np
import pytest

from discforge.chilaw import (
    ChiLaw,
    chi_cdf,
    chi_density,
    chi_log_density,
    ratio_condition_holds,
    sigma_star,
)
from discforge.errors import RankTooSmallError

# Degrees of freedom and variances on which the law is checked against
# scipy.stats.chi.
GRID_R = (1, 2, 3, 8, 11, 50, 1000)
GRID_SIGMA2 = (0.04, 0.25, 1.0, 4.0)


def _grid_laws():
    for r in GRID_R:
        for sigma2 in GRID_SIGMA2:
            law = ChiLaw(r, sigma2)
            sigma = math.sqrt(sigma2)
            s = np.concatenate([
                [-1.0, -1e-300, 0.0, 1e-300, 1e-10],
                np.linspace(0.0, sigma * (math.sqrt(r) + 8.0), 2001),
            ])
            yield law, sigma, s


def test_sigma_star_values():
    assert sigma_star(2) == 0.5
    assert sigma_star(5) == 0.25
    with pytest.raises(RankTooSmallError):
        sigma_star(1)


def test_density_support_and_closed_form():
    law = ChiLaw(2, 1.0)
    assert chi_density(law, -1.0) == 0.0
    assert abs(chi_density(law, 1.0) - math.exp(-0.5)) < 1e-14
    # r=2, sigma=1 density is s exp(-s^2/2)
    s = np.linspace(0.0, 4.0, 200)
    assert np.abs(chi_density(law, s) - s * np.exp(-0.5 * s * s)).max() < 1e-14


def test_density_mode_matches_grid_argmax():
    law = ChiLaw(5, 0.09)
    s = np.linspace(0.0, 3.0, 300_001)
    argmax = s[int(np.argmax(chi_density(law, s)))]
    assert abs(argmax - 0.6) < 1e-5


def test_cdf_closed_form_and_limits():
    law = ChiLaw(2, 1.0)
    assert chi_cdf(law, 0.0) == 0.0
    assert chi_cdf(law, -3.0) == 0.0
    assert abs(chi_cdf(law, math.sqrt(2.0 * math.log(2.0))) - 0.5) < 1e-12
    assert abs(chi_cdf(law, 50.0) - 1.0) < 1e-12


def test_cdf_monotone_and_matches_quadrature():
    for r, sigma2 in [(2, 1.0), (3, 0.25), (8, 0.04), (50, 1.0 / 196.0)]:
        law = ChiLaw(r, sigma2)
        hi = 6.0 * math.sqrt(sigma2 * r)
        s = np.linspace(0.0, hi, 120_001)
        pdf = chi_density(law, s)
        h = s[1] - s[0]
        quad = np.concatenate([[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * h)])
        cdf = chi_cdf(law, s[:: 400])
        assert np.all(np.diff(cdf) >= -1e-15)
        assert np.abs(cdf - quad[::400]).max() < 1e-8
        # density integrates to one
        assert abs(quad[-1] - 1.0) < 1e-6


def test_cdf_agrees_with_scipy_stats():
    from scipy.stats import chi

    for law, sigma, s in _grid_laws():
        ref = chi.cdf(s, law.r, scale=sigma)
        assert np.abs(chi_cdf(law, s) - ref).max() <= 2e-13


def test_log_density_agrees_with_scipy_stats():
    from scipy.stats import chi

    for law, sigma, s in _grid_laws():
        out = chi_log_density(law, s)
        ref = chi.logpdf(s, law.r, scale=sigma)
        assert np.array_equal(np.isneginf(out), np.isneginf(ref))
        finite = np.isfinite(ref)
        assert np.isfinite(out[finite]).all()
        # relative error, absolute where |log density| < 1
        gap = np.abs(out[finite] - ref[finite])
        assert (gap <= 2e-13 * np.maximum(1.0, np.abs(ref[finite]))).all()


def test_scalar_input_gives_python_float():
    law = ChiLaw(3, 0.5)
    for f in (chi_cdf, chi_log_density, chi_density):
        assert type(f(law, 0.7)) is float
        assert type(f(law, -0.7)) is float
        assert f(law, np.array([0.7])).shape == (1,)
    assert chi_log_density(law, -0.7) == -math.inf


@pytest.mark.parametrize("r", [1, 2, 3, 11])
def test_density_vanishes_at_infinity(r):
    law = ChiLaw(r, 0.25)
    assert chi_log_density(law, math.inf) == -math.inf
    assert chi_density(law, math.inf) == 0.0
    s = np.array([0.0, 0.5, math.inf, 2.0, math.inf])
    logs = chi_log_density(law, s)
    dens = chi_density(law, s)
    finite = np.isfinite(s)
    assert np.isneginf(logs[~finite]).all() and (dens[~finite] == 0.0).all()
    assert np.array_equal(logs[finite], chi_log_density(law, s[finite]))


def test_ratio_condition_examples():
    assert ratio_condition_holds(2, 0.5).holds
    bad = ratio_condition_holds(2, 0.4)
    assert not bad.holds
    assert 0.0 < bad.worst_s < 0.5
    assert ratio_condition_holds(10, 10.0).holds


def test_ratio_condition_threshold_is_sharp():
    for r in (2, 3, 5, 10, 50):
        star = sigma_star(r)
        assert ratio_condition_holds(r, star * (1.0 + 1e-9)).holds
        assert not ratio_condition_holds(r, star * 0.9).holds


def test_ratio_condition_validation():
    with pytest.raises(RankTooSmallError):
        ratio_condition_holds(1, 1.0)


def test_chilaw_validation():
    with pytest.raises(ValueError):
        ChiLaw(0, 1.0)
    with pytest.raises(ValueError):
        ChiLaw(2, 0.0)

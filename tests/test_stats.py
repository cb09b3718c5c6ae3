import numpy as np
import pytest
from scipy.stats import norm

from discforge.errors import TooFewSamplesError
from discforge.rng import RngHandle
from discforge.stats import cov_test, holm_adjust, ks_test


def test_ks_self_consistency_rate():
    # samples drawn from the hypothesized law pass at level 0.01 ~99% of
    # the time; demand at least 98% over 300 independent batches
    handle = RngHandle(90)
    passes = 0
    meta = 300
    for k in range(meta):
        xs = handle.substream(k).generator().uniform(size=5000)
        if ks_test(xs, lambda s: np.clip(s, 0.0, 1.0)).p_value >= 0.01:
            passes += 1
    assert passes >= 0.98 * meta


def test_ks_separates_wrong_scale():
    xs = RngHandle(91).generator().standard_normal(5000)
    res = ks_test(xs, lambda s: norm.cdf(s, scale=2.0))
    assert res.p_value < 0.01
    assert res.p_value < 1e-10


def test_ks_result_contract():
    xs = RngHandle(92).generator().standard_normal(2000)
    res = ks_test(xs, norm.cdf)
    assert 0.0 <= res.statistic <= 1.0
    assert 0.0 <= res.p_value <= 1.0
    assert res.n == 2000


def test_ks_agrees_with_scipy_stats_kstest():
    from scipy.stats import chi, kstest

    gen = RngHandle(96).generator()
    cases = []
    for n in (10, 11, 57, 500, 5000):
        for scale in (0.8, 1.0, 1.3):
            cases.append((scale * gen.standard_normal(n), norm.cdf))
    for r in (2, 11):
        radii = np.linalg.norm(gen.standard_normal((800, r)), axis=1)
        cases.append((radii, chi(r).cdf))
        cases.append((1.1 * radii, chi(r).cdf))
    for xs, cdf in cases:
        res = ks_test(xs, cdf)
        ref = kstest(xs, cdf, method="asymp")
        assert abs(res.statistic - ref.statistic) <= 5e-14
        assert abs(res.p_value - ref.pvalue) <= 5e-14
        assert type(res.statistic) is float and type(res.p_value) is float


def test_ks_too_few_samples():
    with pytest.raises(TooFewSamplesError):
        ks_test(np.arange(5.0), lambda s: s)


def test_ks_unsorted_input_is_fine():
    gen = RngHandle(93).generator()
    xs = gen.standard_normal(1000)
    a = ks_test(xs, norm.cdf)
    b = ks_test(np.sort(xs), norm.cdf)
    assert a.statistic == b.statistic


def test_cov_test_pass_and_fail():
    xs = RngHandle(94).generator().standard_normal((10_000, 3))
    assert cov_test(xs, np.eye(3)) <= 0.05
    assert cov_test(xs, 2.0 * np.eye(3)) > 0.9


def test_cov_test_zero_samples_vs_zero_target():
    xs = np.zeros((200, 2))
    assert cov_test(xs, np.zeros((2, 2))) <= 1e-12


def test_cov_test_too_few():
    with pytest.raises(TooFewSamplesError):
        cov_test(np.zeros((50, 2)), np.eye(2))


def test_cov_test_one_dimensional():
    xs = 2.0 * RngHandle(95).generator().standard_normal(5000)
    assert cov_test(xs, np.array([[4.0]])) <= 0.5


def test_holm_adjust_on_a_fixed_family():
    # sorted: 0.005, 0.01, 0.03, 0.04 scale by 4, 3, 2, 1 to 0.02, 0.03,
    # 0.06, 0.04, whose running maximum is 0.02, 0.03, 0.06, 0.06; at 0.05
    # Holm rejects the two smallest and stops at 0.03 > 0.05 / 2
    adjusted = holm_adjust([0.01, 0.04, 0.03, 0.005])
    assert adjusted == pytest.approx([0.03, 0.06, 0.06, 0.02], abs=1e-15)
    assert [p < 0.05 for p in adjusted] == [True, False, False, True]
    assert holm_adjust([0.5, 0.9, 0.2]) == pytest.approx([1.0, 1.0, 0.6], abs=1e-15)
    assert holm_adjust([0.3, 0.3]) == pytest.approx([0.6, 0.6], abs=1e-15)
    assert holm_adjust([0.004]) == [0.004]

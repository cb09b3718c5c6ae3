import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from discforge.chilaw import ChiLaw, chi_density
from discforge.errors import (
    BadVarianceError,
    DimMismatchError,
    InfeasibleSliceError,
    RankTooSmallError,
)
from discforge import kernel
from discforge.kernel import (
    KernelParams,
    advance_chain_batch,
    kernel_step,
    kernel_step_batch,
    run_chain,
    slice_feasible,
    slice_sample,
)
from discforge.rng import RngHandle


def test_params_validation():
    KernelParams(2, 0.25)
    KernelParams(2, 0.25 - 1e-13)  # inside the slack
    with pytest.raises(BadVarianceError):
        KernelParams(2, 0.2)
    with pytest.raises(RankTooSmallError):
        KernelParams(1, 5.0)


def test_slice_feasible_examples():
    assert not slice_feasible(np.array([3.0, 0.0]), 0.5)
    assert slice_feasible(np.array([1.0, 0.0]), 1.0)
    assert slice_feasible(np.zeros(2), 1.0)
    assert not slice_feasible(np.zeros(2), 0.5)
    assert not slice_feasible(np.array([1.0, 0.0]), -0.5)


def test_slice_sample_unique_point():
    x = np.array([0.3, 0.0])
    y = x + slice_sample(x, 0.7, RngHandle(0).generator())
    assert np.allclose(y, (-7.0 / 3.0) * x, atol=1e-12)
    # generic direction too
    x = np.array([0.18, -0.24])  # norm 0.3
    y = x + slice_sample(x, 0.7, RngHandle(0).generator())
    assert np.allclose(y, ((0.3 - 1.0) / 0.3) * x, atol=1e-9)


def test_slice_sample_split_point():
    gen = RngHandle(5).generator()
    x = np.array([1.0, 0.0])
    for _ in range(20):
        y = x + slice_sample(x, 1.0, gen)
        assert abs(np.linalg.norm(y) - 1.0) < 1e-9
        assert abs(np.linalg.norm(y - x) - 1.0) < 1e-9
        assert abs(y[0] - 0.5) < 1e-9
        assert abs(abs(y[1]) - math.sqrt(0.75)) < 1e-9


def test_slice_sample_origin_is_uniform_sphere():
    gen = RngHandle(6).generator()
    ys = np.array([slice_sample(np.zeros(3), 1.0, gen) for _ in range(4000)])
    assert np.abs(np.linalg.norm(ys, axis=1) - 1.0).max() < 1e-9
    assert np.abs(ys.mean(axis=0)).max() < 3.0 / math.sqrt(4000) * 1.5


def test_slice_sample_rotational_symmetry():
    gen = RngHandle(7).generator()
    x = np.array([2.0, 0.0])
    ys = np.array([slice_sample(x, 2.0, gen) for _ in range(10_000)])
    signs = ys[:, 1] > 0
    # sign of the off-axis component is a fair coin: 3 binomial sigmas
    dev = abs(signs.mean() - 0.5)
    assert dev <= 3.0 * 0.5 / math.sqrt(len(ys))


def test_slice_sample_infeasible():
    with pytest.raises(InfeasibleSliceError):
        slice_sample(np.array([3.0, 0.0]), 0.5, RngHandle(0).generator())
    # ||x||^2 would overflow, but ||x|| is measured without squaring: the
    # step is a unit vector that lands on the slice
    x = np.array([1e155, 0.0, 0.0])
    u = slice_sample(x, 1e155, RngHandle(0).generator())
    assert not slice_feasible(x, 3e155)
    assert not slice_feasible(np.array([1e300, 1e300]), 1e300)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert abs(np.linalg.norm((x + u) / 1e155) - 1.0) <= 1e-12
    assert not slice_feasible(np.array([np.inf, 0.0]), 1.0)


def test_state_norm_measured_once_per_call(monkeypatch):
    # slice_sample measures ||x|| once and hands it to the feasibility
    # check; a kernel_step that slides measures it once more itself
    calls = []
    norm = kernel._norm

    def counted(x):
        calls.append(1)
        return norm(x)

    monkeypatch.setattr(kernel, "_norm", counted)
    gen = RngHandle(11).generator()
    slice_sample(np.array([2.0, 0.0, 0.0]), 2.0, gen)
    assert len(calls) == 1
    calls.clear()
    x = np.array([1.2, 1.6, 0.0])  # radius 2: the kernel slides
    u = kernel_step(KernelParams(3, 1.0 / 8.0), x, gen)
    assert abs(np.linalg.norm(x + u) - 2.0) <= 1e-12
    assert len(calls) == 2


def test_kernel_step_inner_branch():
    params = KernelParams(2, 0.25)
    gen = RngHandle(1).generator()
    x = np.array([0.25, 0.0])
    for _ in range(10):
        y = x + kernel_step(params, x, gen)
        assert abs(np.linalg.norm(y) - 0.75) < 1e-9
        assert abs(np.linalg.norm(y - x) - 1.0) < 1e-9


def test_kernel_step_outer_branch_preserves_radius():
    params = KernelParams(2, 0.25)
    gen = RngHandle(2).generator()
    x = np.array([2.0, 0.0])
    for _ in range(10):
        y = x + kernel_step(params, x, gen)
        assert abs(np.linalg.norm(y) - 2.0) < 1e-9
        x = y


def test_kernel_step_dimension_check():
    with pytest.raises(DimMismatchError):
        kernel_step(KernelParams(3, 1.0), np.zeros(2), RngHandle(0).generator())


def test_kernel_step_mixture_weight_matches_density_ratio():
    r, sigma2, t = 2, 0.25, 0.6
    params = KernelParams(r, sigma2)
    x = np.full((100_000, r), 0.0)
    x[:, 0] = t
    ys = x + kernel_step_batch(params, x, RngHandle(3).generator())
    radii = np.linalg.norm(ys, axis=1)
    frac = float(np.mean(np.abs(radii - (1.0 - t)) < 1e-9))
    law = ChiLaw(r, sigma2)
    p = chi_density(law, 1.0 - t) / chi_density(law, t)
    se = math.sqrt(p * (1.0 - p) / len(ys))
    assert abs(frac - p) <= 3.0 * se
    # everything else stayed at the current radius
    assert np.all((np.abs(radii - (1.0 - t)) < 1e-9) | (np.abs(radii - t) < 1e-9))


def test_double_reflection_is_identity():
    x = np.array([0.21, -0.37, 0.11])

    def reflect(v):
        t = np.linalg.norm(v)
        return ((t - 1.0) / t) * v

    assert np.allclose(reflect(reflect(x)), x, atol=1e-12)


def test_run_chain_contracts():
    params = KernelParams(3, 1.0 / 8.0)
    traj = run_chain(params, np.array([0.1, 0.2, 0.2]), 0, RngHandle(4).generator())
    assert traj.shape == (1, 3)
    traj = run_chain(params, np.array([0.1, 0.2, 0.2]), 200, RngHandle(4).generator())
    assert traj.shape == (201, 3)
    steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    assert np.abs(steps - 1.0).max() <= 1e-9


def test_run_chain_stationary_marginal():
    # scalar-path version of the big stationarity experiment: chains
    # started from the stationary law keep it at a later fixed time
    from discforge.chilaw import ChiLaw, chi_cdf
    from discforge.stats import ks_test

    r, sigma = 2, 0.5
    params = KernelParams(r, sigma * sigma)
    gen = RngHandle(10).generator()
    finals = np.empty((700, r))
    for k in range(finals.shape[0]):
        x0 = sigma * gen.standard_normal(r)
        finals[k] = run_chain(params, x0, 40, gen)[-1]
    law = ChiLaw(r, sigma * sigma)
    res = ks_test(np.linalg.norm(finals, axis=1), lambda s: chi_cdf(law, s), 0.01)
    assert res.passed


def test_run_chain_outer_start_keeps_radius():
    params = KernelParams(2, 0.25)
    x0 = np.array([1.2, 1.6])  # radius 2
    traj = run_chain(params, x0, 100, RngHandle(5).generator())
    assert np.abs(np.linalg.norm(traj, axis=1) - 2.0).max() < 1e-9


def test_batch_matches_scalar_in_law():
    params = KernelParams(3, 1.0 / 8.0)
    gen = RngHandle(6).generator()
    x0 = 0.9 * gen.standard_normal((4000, 3))
    batch = x0 + kernel_step_batch(params, x0, RngHandle(7).generator())
    scalar = x0 + np.array(
        [kernel_step(params, x0[i], gen) for i in range(x0.shape[0])]
    )
    # same start population: compare radius distributions after one step
    res = ks_2samp(np.linalg.norm(batch, axis=1), np.linalg.norm(scalar, axis=1))
    assert res.pvalue >= 0.01
    assert np.abs(np.linalg.norm(batch - x0, axis=1) - 1.0).max() <= 1e-9


def test_advance_chain_batch_shape():
    params = KernelParams(2, 0.25)
    out = advance_chain_batch(params, np.zeros((10, 2)), 5, RngHandle(8).generator())
    assert out.shape == (10, 2)
    # origin rows interleaved with reflecting, mixed and sliding rows
    xs = np.zeros((8, 2))
    xs[1::2] = [[0.3, 0.0], [0.0, -0.7], [1.5, 2.0], [-0.4, 0.4]]
    us = kernel_step_batch(params, xs, RngHandle(10).generator())
    assert np.abs(np.linalg.norm(us, axis=1) - 1.0).max() <= 1e-12
    from_origin = {tuple(u) for u in us[::2]}
    assert len(from_origin) == 4


def test_bad_variance_rejected_at_step():
    # construct params bypassing validation to hit the runtime guard
    params = KernelParams.__new__(KernelParams)
    object.__setattr__(params, "r", 2)
    object.__setattr__(params, "sigma2", 0.1)
    with pytest.raises(BadVarianceError):
        kernel_step(params, np.array([0.6, 0.0]), RngHandle(9).generator())
    with pytest.raises(BadVarianceError):
        kernel_step_batch(params, np.array([[0.6, 0.0]]), RngHandle(9).generator())

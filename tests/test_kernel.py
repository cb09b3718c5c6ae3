import math

import numpy as np
import pytest
from scipy.stats import ks_2samp

from discforge.chilaw import ChiLaw, chi_density, sigma_star
from discforge.errors import (
    BadVarianceError,
    DimMismatchError,
    InfeasibleSliceError,
    RankTooSmallError,
)
from discforge import kernel
from discforge.kernel import (
    FLOOR_RTOL,
    advance_chain_batch,
    kernel_step,
    kernel_step_batch,
    slice_sample,
)
from discforge.rng import RngHandle


def test_params_validation():
    # the variance is checked against the floor of the state's own r, in
    # the scalar and the batch step alike
    steps = [
        lambda s2, r: kernel_step(s2, np.full(r, 0.3), RngHandle(0).generator()),
        lambda s2, r: kernel_step_batch(s2, np.full((2, r), 0.3), RngHandle(0).generator()),
    ]
    for step in steps:
        step(0.25, 2)
        step(0.25 - 1e-13, 2)  # inside the slack
        with pytest.raises(BadVarianceError):
            step(0.2, 2)
        # a nan variance would never reflect; an infinite one is what the
        # walk builds for a vector below ||v|| ~ 1e-155
        with pytest.raises(BadVarianceError):
            step(float("nan"), 3)
        step(math.inf, 3)
        with pytest.raises(RankTooSmallError):
            step(5.0, 1)


def test_slice_feasible_examples():
    gen = RngHandle(0).generator()
    for x, s in [(np.array([1.0, 0.0]), 1.0), (np.zeros(2), 1.0)]:
        assert abs(np.linalg.norm(x + slice_sample(x, s, gen)) - s) < 1e-12
    for x, s in [(np.array([3.0, 0.0]), 0.5), (np.zeros(2), 0.5), (np.array([1.0, 0.0]), -0.5)]:
        with pytest.raises(InfeasibleSliceError):
            slice_sample(x, s, gen)


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
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    assert abs(np.linalg.norm((x + u) / 1e155) - 1.0) <= 1e-12
    for x, s in [(x, 3e155), (np.array([1e300, 1e300]), 1e300), (np.array([np.inf, 0.0]), 1.0)]:
        with pytest.raises(InfeasibleSliceError):
            slice_sample(x, s, RngHandle(0).generator())


def test_state_norm_measured_once_per_call(monkeypatch):
    # slice_sample measures ||x|| once and hands it to the feasibility
    # check; a kernel_step that slides measures it once more itself
    calls = []
    norm = kernel._norm

    def counted(*x):
        calls.append(1)
        return norm(*x)

    monkeypatch.setattr(kernel, "_norm", counted)
    gen = RngHandle(11).generator()
    slice_sample(np.array([2.0, 0.0, 0.0]), 2.0, gen)
    assert len(calls) == 1
    calls.clear()
    x = np.array([1.2, 1.6, 0.0])  # radius 2: the kernel slides
    u = kernel_step(1.0 / 8.0, x, gen)
    assert abs(np.linalg.norm(x + u) - 2.0) <= 1e-12
    assert len(calls) == 2


def test_kernel_step_inner_branch():
    gen = RngHandle(1).generator()
    x = np.array([0.25, 0.0])
    for _ in range(10):
        y = x + kernel_step(0.25, x, gen)
        assert abs(np.linalg.norm(y) - 0.75) < 1e-9
        assert abs(np.linalg.norm(y - x) - 1.0) < 1e-9


def test_kernel_step_at_origin_is_a_uniform_unit_vector():
    # at the origin the step direction is uniform on the sphere
    from discforge.stats import ks_test

    draws = 4000
    gen = RngHandle(14).generator()
    us = np.array([kernel_step(0.25, np.zeros(2), gen) for _ in range(draws)])
    assert np.abs(np.linalg.norm(us, axis=1) - 1.0).max() < 1e-12
    angles = np.arctan2(us[:, 1], us[:, 0])
    assert ks_test(angles, lambda v: (v + math.pi) / (2.0 * math.pi)).p_value >= 0.01
    gen = RngHandle(15).generator()
    us = np.array([kernel_step(0.25, np.zeros(3), gen) for _ in range(draws)])
    assert np.abs(np.linalg.norm(us, axis=1) - 1.0).max() < 1e-12
    # each coordinate of a uniform unit vector in R^3 has variance 1/3
    assert np.abs(us.mean(axis=0)).max() <= 3.0 * math.sqrt(1.0 / 3.0 / draws)


def test_kernel_step_outer_branch_preserves_radius():
    gen = RngHandle(2).generator()
    x = np.array([2.0, 0.0])
    for _ in range(10):
        y = x + kernel_step(0.25, x, gen)
        assert abs(np.linalg.norm(y) - 2.0) < 1e-9
        x = y


def test_kernel_step_dimension_check():
    # r is the state's length, so only the number of axes can be wrong
    gen = RngHandle(0).generator()
    with pytest.raises(DimMismatchError):
        kernel_step(1.0, np.zeros((1, 3)), gen)
    with pytest.raises(DimMismatchError):
        kernel_step_batch(1.0, np.zeros(3), gen)
    with pytest.raises(DimMismatchError):
        advance_chain_batch(1.0, np.zeros(3), 1, gen)


def test_kernel_step_mixture_weight_matches_density_ratio():
    # both forms, each with its own reflection weight: the batch over
    # 100 000 rows, and the scalar step the walk takes over 50 000 calls
    r, sigma2, t = 2, 0.25, 0.6
    x = np.full((100_000, r), 0.0)
    x[:, 0] = t
    batch = kernel_step_batch(sigma2, x, RngHandle(3).generator())
    gen = RngHandle(17).generator()
    scalar = np.array([kernel_step(sigma2, x[0], gen) for _ in range(50_000)])
    law = ChiLaw(r, sigma2)
    p = chi_density(law, 1.0 - t) / chi_density(law, t)
    for us in (batch, scalar):
        radii = np.linalg.norm(x[: len(us)] + us, axis=1)
        frac = float(np.mean(np.abs(radii - (1.0 - t)) < 1e-9))
        se = math.sqrt(p * (1.0 - p) / len(us))
        assert abs(frac - p) <= 3.0 * se
        # everything else stayed at the current radius
        assert np.all((np.abs(radii - (1.0 - t)) < 1e-9) | (np.abs(radii - t) < 1e-9))


def test_double_reflection_is_identity():
    x = np.array([0.21, -0.37, 0.11])

    def reflect(v):
        t = np.linalg.norm(v)
        return ((t - 1.0) / t) * v

    assert np.allclose(reflect(reflect(x)), x, atol=1e-12)


def chain(sigma2, x0, steps, gen):
    """Trajectory of steps + 1 states (rows) from x0 by repeated kernel_step."""
    traj = np.empty((steps + 1, len(x0)))
    traj[0] = x0
    for k in range(steps):
        traj[k + 1] = traj[k] + kernel_step(sigma2, traj[k], gen)
    return traj


def test_kernel_chain_contracts():
    traj = chain(1.0 / 8.0, np.array([0.1, 0.2, 0.2]), 0, RngHandle(4).generator())
    assert traj.shape == (1, 3)
    traj = chain(1.0 / 8.0, np.array([0.1, 0.2, 0.2]), 200, RngHandle(4).generator())
    assert traj.shape == (201, 3)
    steps = np.linalg.norm(np.diff(traj, axis=0), axis=1)
    assert np.abs(steps - 1.0).max() <= 1e-9


def test_kernel_chain_stationary_marginal():
    # scalar-path version of the big stationarity experiment: chains
    # started from the stationary law keep it at a later fixed time
    from discforge.chilaw import ChiLaw, chi_cdf
    from discforge.stats import ks_test

    r, sigma = 2, 0.5
    gen = RngHandle(10).generator()
    finals = np.empty((700, r))
    for k in range(finals.shape[0]):
        x0 = sigma * gen.standard_normal(r)
        finals[k] = chain(sigma * sigma, x0, 40, gen)[-1]
    law = ChiLaw(r, sigma * sigma)
    res = ks_test(np.linalg.norm(finals, axis=1), lambda s: chi_cdf(law, s))
    assert res.p_value >= 0.01


def test_kernel_chain_outer_start_keeps_radius():
    x0 = np.array([1.2, 1.6])  # radius 2
    traj = chain(0.25, x0, 100, RngHandle(5).generator())
    assert np.abs(np.linalg.norm(traj, axis=1) - 2.0).max() < 1e-9


def test_batch_matches_scalar_in_law():
    sigma2 = 1.0 / 8.0
    gen = RngHandle(6).generator()
    x0 = 0.9 * gen.standard_normal((4000, 3))
    batch = x0 + kernel_step_batch(sigma2, x0, RngHandle(7).generator())
    scalar = x0 + np.array(
        [kernel_step(sigma2, x0[i], gen) for i in range(x0.shape[0])]
    )
    # same start population: compare radius distributions after one step
    res = ks_2samp(np.linalg.norm(batch, axis=1), np.linalg.norm(scalar, axis=1))
    assert res.pvalue >= 0.01
    assert np.abs(np.linalg.norm(batch - x0, axis=1) - 1.0).max() <= 1e-9


class _Scripted:
    """Stand-in generator: the given coin (a float, or one per row) and
    the given normals in turn."""

    def __init__(self, normals, coin=0.99):
        self.normals = list(normals)
        self.coin = coin

    def random(self, size=None):
        return self.coin if size is None else np.broadcast_to(self.coin, size).copy()

    def standard_normal(self, size):
        return np.reshape(np.array(self.normals.pop(0), dtype=float), size)


# one state per kernel branch at r = 3 and sigma2 = 1/4, where the
# reflection weight at t = 0.6 is 0.66: (state, coin, normals, radius
# after the step)
BRANCHES = [
    pytest.param([0.0, 0.0, 0.0], 0.5, [[0.3, -1.2, 0.4]], 1.0, id="origin"),
    pytest.param([0.1, -0.2, 0.15], 0.5, [[0.3, -1.2, 0.4]], 1.0 - math.sqrt(0.0725), id="inner"),
    pytest.param([0.36, 0.48, 0.0], 0.01, [[0.3, -1.2, 0.4]], 0.4, id="coin-reflects"),
    pytest.param([0.36, 0.48, 0.0], 0.99, [[0.3, -1.2, 0.4]], 0.6, id="coin-slides"),
    pytest.param([0.3, 0.4, 0.0], 0.99, [[0.3, -1.2, 0.4]], 0.5, id="half"),
    pytest.param([0.6, 0.8, 0.0], 0.5, [[0.3, -1.2, 0.4]], 1.0, id="one"),
    pytest.param([1.2, 1.6, 0.0], 0.5, [[0.3, -1.2, 0.4]], 2.0, id="two"),
    pytest.param([1e200, 1e200, 0.0], 0.5, [[0.3, -1.2, 0.4]], math.sqrt(2.0) * 1e200, id="1e200"),
    pytest.param([1e308, 0.0, 0.0], 0.5, [[0.3, -1.2, 0.4]], 1e308, id="1e308"),
    pytest.param([1e-200, 1e-200, 0.0], 0.5, [[0.3, -1.2, 0.4]], 1.0, id="1e-200"),
    pytest.param([2.0, 0.0, 0.0], 0.5, [[4.0, 0.0, 0.0], [0.0, 3.0, 0.0]], 2.0, id="redraw"),
]


@pytest.mark.parametrize("x, coin, normals, radius", BRANCHES)
def test_both_forms_take_one_rule_on_the_same_draws(x, coin, normals, radius):
    # handed the same coin and normals, kernel_step and the one-row batch
    # return the same step, whichever branch the state takes
    x = np.array(x)
    scalar = kernel_step(0.25, x, _Scripted(normals, coin))
    batch = kernel_step_batch(0.25, x[None, :], _Scripted(normals, coin))[0]
    assert np.abs(scalar - batch).max() <= 1e-12
    assert abs(np.linalg.norm(scalar) - 1.0) <= 1e-12
    assert abs(math.hypot(*(x + scalar)) / radius - 1.0) <= 1e-12


def test_a_batch_of_every_branch_steps_each_row_as_the_scalar_form():
    # the batch draws every row's normals at once, then the redraw's
    cases = [case.values for case in BRANCHES]
    xs = np.array([x for x, *_ in cases])
    coins = np.array([coin for _, coin, *_ in cases])
    script = [[drawn[0] for _, _, drawn, _ in cases]] + [
        more for _, _, drawn, _ in cases for more in drawn[1:]
    ]
    us = kernel_step_batch(0.25, xs, _Scripted(script, coins))
    for u, (x, coin, drawn, _) in zip(us, cases):
        assert np.abs(u - kernel_step(0.25, np.array(x), _Scripted(drawn, coin))).max() <= 1e-12


@pytest.mark.parametrize("x", [[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]])
def test_a_degenerate_slide_draw_is_redrawn_in_both_forms(x):
    # normals with no part orthogonal to x are redrawn from the same
    # generator, once by kernel_step and once by the one-row batch
    x = np.array(x)
    script = [[4.0, 0.0, 0.0] if x.any() else [0.0, 0.0, 0.0], [0.0, 3.0, 0.0]]
    for step in (kernel_step, lambda s2, x, gen: kernel_step_batch(s2, x[None, :], gen)[0]):
        gen = _Scripted(script)
        u = step(0.25, x, gen)
        assert not gen.normals
        lam = -1.0 / (2.0 * np.linalg.norm(x)) if x.any() else 0.0
        assert np.abs(u - [lam, math.sqrt(1.0 - lam * lam), 0.0]).max() <= 1e-15


def test_advance_chain_batch_shape():
    out = advance_chain_batch(0.25, np.zeros((10, 2)), 5, RngHandle(8).generator())
    assert out.shape == (10, 2)
    # origin rows interleaved with reflecting, mixed and sliding rows
    xs = np.zeros((8, 2))
    xs[1::2] = [[0.3, 0.0], [0.0, -0.7], [1.5, 2.0], [-0.4, 0.4]]
    us = kernel_step_batch(0.25, xs, RngHandle(10).generator())
    assert np.abs(np.linalg.norm(us, axis=1) - 1.0).max() <= 1e-12
    from_origin = {tuple(u) for u in us[::2]}
    assert len(from_origin) == 4


@pytest.mark.parametrize(
    "x", [[np.nan, 0.0, 0.0], [np.inf, 0.0, 0.0], [np.inf, np.nan, 0.0], [0.1, np.nan, 0.2]]
)
def test_kernel_step_rejects_non_finite_state(x):
    with pytest.raises(ValueError, match="non-finite"):
        kernel_step(1.0 / 8.0, np.array(x), RngHandle(12).generator())


def test_kernel_step_batch_rejects_non_finite_rows():
    xs = np.array([[0.3, 0.0], [1.5, 2.0], [np.nan, 0.0], [0.0, np.inf]])
    for rows in (xs[[0, 1, 2]], xs[[0, 1, 3]]):
        with pytest.raises(ValueError, match="non-finite"):
            kernel_step_batch(0.25, rows, RngHandle(13).generator())


def test_bad_variance_rejected_at_step():
    # at sigma2 = 0.1 < sigma_star(2)^2 the weight at radius 0.6 would exceed 1
    with pytest.raises(BadVarianceError):
        kernel_step(0.1, np.array([0.6, 0.0]), RngHandle(9).generator())
    with pytest.raises(BadVarianceError):
        kernel_step_batch(0.1, np.array([[0.6, 0.0]]), RngHandle(9).generator())
    with pytest.raises(BadVarianceError):
        advance_chain_batch(0.1, np.array([[0.6, 0.0]]), 1, RngHandle(9).generator())


def test_variance_just_below_the_floor_rejected_before_any_draw():
    # an absolute slack of 1e-12 is 1.6e-8 of the floor at r = 4096, where
    # the weight at radius 0.500064 exceeds 1 by about 1e-8; the relative
    # slack rejects that variance before the coin is drawn
    r = 4096
    sigma2 = sigma_star(r) ** 2 - 1e-12
    x = np.zeros(r)
    x[0] = 0.500064
    gen = RngHandle(16).generator()
    with pytest.raises(BadVarianceError):
        kernel_step(sigma2, x, gen)
    with pytest.raises(BadVarianceError):
        kernel_step_batch(sigma2, x[None, :], gen)
    # the generator is where a fresh one starts
    assert gen.random() == RngHandle(16).generator().random()


@pytest.mark.parametrize("r", [2, 11, 4096, 10**6])
def test_reflection_weight_at_the_slack_floor_stays_a_probability(r):
    # at sigma2 = floor (1 - delta) the weight peaks near t = 1/2 + sqrt(delta)/2,
    # 1 + (4/3)(r - 1) delta^(3/2) there
    delta = FLOOR_RTOL
    sigma2 = sigma_star(r) ** 2 * (1.0 - delta)
    grid = np.concatenate([np.linspace(0.5, 1.0, 10_001)[:-1], [0.5 + math.sqrt(delta) / 2.0]])
    # the walk's math form, float by float, and the batch's numpy form
    scalar = np.array([kernel._reflection_weight(r, sigma2, float(t), math) for t in grid])
    batch = kernel._reflection_weight(r, sigma2, grid, np)
    assert max(scalar.max(), batch.max()) <= 1.0 + 1e-9
    # an ulp of either log is scaled by r - 1 in the exponent
    assert np.abs(batch - scalar).max() <= 1e-15 * r

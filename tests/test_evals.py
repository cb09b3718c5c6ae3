import itertools
import math
import warnings

import numpy as np
import pytest

from discforge.errors import (
    DimMismatchError,
    InfeasibleTriangleError,
    NotPsdError,
    NotUnitError,
    TooLargeError,
)
from discforge.evals import (
    MC_BLOCK,
    PREFIX_ROUNDS,
    check_spherical,
    coupling_from_signing,
    coupling_from_units,
    discG_mc,
    disc_bruteforce,
    discs_objective,
    online_discG,
    random_signing_baseline,
    triangle_rank2,
    vdisc_objective,
    vdisc_objective_units,
)
from discforge.instances import unit_columns
from discforge.linalg import SLICE_BYTES, psd_cholesky
from discforge.rng import RngHandle
from discforge.rounding import BASELINE_SAMPLES, SETTINGS, make_planted

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def unit_rows(n, r, seed):
    u = RngHandle(seed).generator().standard_normal((n, r))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def test_bruteforce_examples():
    val, sigma = disc_bruteforce(np.eye(2))
    assert val == 1.0
    val, sigma = disc_bruteforce(np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert val == 2.0
    val, sigma = disc_bruteforce(np.array([[1.0, 1.0]]))
    assert val == 0.0
    assert np.array_equal(sigma * sigma[0], [1.0, -1.0])
    with pytest.raises(TooLargeError):
        disc_bruteforce(np.zeros((2, 27)))


def test_bruteforce_argmin_attains_value():
    a = RngHandle(21).generator().standard_normal((4, 9))
    val, sigma = disc_bruteforce(a)
    assert abs(np.abs(a @ sigma).max() - val) < 1e-12
    assert np.all(np.abs(sigma) == 1.0)


def test_bruteforce_invariances():
    gen = RngHandle(22).generator()
    a = gen.standard_normal((3, 10))
    val, _ = disc_bruteforce(a)
    for _ in range(5):
        perm = gen.permutation(3)
        flips = 1.0 - 2.0 * gen.integers(0, 2, size=10)
        val2, _ = disc_bruteforce(a[perm] * flips)
        assert abs(val - val2) < 1e-12


def test_vdisc_objective_examples():
    a = unit_rows(3, 4, 23).T  # 4x3? no: rows must be unit in the instance
    a = unit_rows(4, 3, 23)  # 4 unit rows of length 3
    assert abs(vdisc_objective(a, np.eye(3)) - 1.0) < 1e-12
    sigma = np.array([1.0, -1.0, 1.0])
    cov = coupling_from_signing(sigma)
    b = RngHandle(24).generator().standard_normal((5, 3))
    assert abs(vdisc_objective(b, cov) - np.abs(b @ sigma).max()) < 1e-10
    with pytest.raises(DimMismatchError):
        vdisc_objective(b, np.eye(4))


def test_vdisc_objective_rejects_a_coupling_that_is_not_a_correlation_matrix():
    # an eigenvalue of -1, an asymmetric matrix, and a diagonal of 4: on the
    # all-ones row they would read 2.449, 1.414 and 2.83
    a = np.ones((1, 2))
    for bad in ([[1.0, 2.0], [2.0, 1.0]], [[1.0, 0.9], [-0.9, 1.0]], 4.0 * np.eye(2)):
        with pytest.raises(NotPsdError):
            vdisc_objective(a, np.array(bad))


def test_vdisc_planted_coupling_is_zero():
    inst = make_planted(20, 102, RngHandle(25).generator())
    u = np.column_stack([inst.c, inst.s])  # trig rows, unit norm
    # the rows of A kill span{c, s}, so A @ U vanishes to rounding error
    assert vdisc_objective_units(inst.a, u) < 1e-8
    # the Gram form squares first: the value is the square root of pure
    # cancellation noise, so its floor is ~1e-7, not 1e-8
    assert abs(vdisc_objective(inst.a, u @ u.T)) < 2e-6


def test_vdisc_units_matches_gram_formula():
    gen = RngHandle(26).generator()
    for r in (2, 3, 5):
        a = gen.standard_normal((4, 8))
        u = gen.standard_normal((8, r))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        lhs = vdisc_objective_units(a, u)
        rhs = vdisc_objective(a, u @ u.T)
        assert abs(lhs - rhs) < 1e-10
    with pytest.raises(NotUnitError):
        vdisc_objective_units(a, 0.5 * u)


def test_vdisc_units_all_same_direction():
    a = RngHandle(27).generator().standard_normal((3, 6))
    u = np.zeros((6, 2))
    u[:, 0] = 1.0
    assert abs(vdisc_objective_units(a, u) - np.abs(a @ np.ones(6)).max()) < 1e-12


def test_check_spherical_measures_without_overflow():
    # the squared norm of a finite point overflows past about 1.3e154
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnitError):
            check_spherical(np.array([1e200, 1.0]))


def test_discs_objective():
    # signings live on the sqrt(n) sphere
    sigma = np.array([1.0, -1.0, -1.0, 1.0])
    a = RngHandle(28).generator().standard_normal((3, 4))
    assert abs(discs_objective(a, sigma) - np.abs(a @ sigma).max()) < 1e-12
    # identity instance: some coordinate is at least 1 in magnitude
    x = np.array([2.0, 0.0, 0.0, 0.0])
    assert discs_objective(np.eye(4), x) >= 1.0
    with pytest.raises(NotUnitError):
        discs_objective(a, np.ones(4) * 2.0)


def test_discs_planted_direction_is_zero():
    inst = make_planted(15, 102, RngHandle(29).generator())
    x = inst.c + inst.s
    x *= math.sqrt(inst.n) / np.linalg.norm(x)
    assert discs_objective(inst.a, x) < 1e-8


def test_discg_scalar_instance():
    est = discG_mc(np.array([[1.0]]), np.array([[1.0]]), 100_000, RngHandle(30))
    assert abs(est.mean - ROOT_2_OVER_PI) <= 3.0 * est.std_error
    est = discG_mc(np.zeros((2, 3)), np.eye(3), 1000, RngHandle(31))
    assert est.mean == 0.0


@pytest.mark.parametrize("sigma", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
], ids=["swap", "path"])
def test_discg_rejects_indefinite_behind_a_zero_pivot(sigma):
    with pytest.raises(NotPsdError):
        discG_mc(np.eye(sigma.shape[0]), sigma, 1000, RngHandle(1))


def test_discg_planted_cancellation():
    inst = make_planted(10, 102, RngHandle(32).generator())
    est = discG_mc(inst.a, inst.sigma, 2000, RngHandle(33))
    assert est.mean <= 1e-6


def test_discg_frees_the_factor_before_sampling(traced_peak):
    # the rounding-spencer shape: the n x n factor and the m x samples
    # sample products are never held at once
    m, n, samples = 80, 502, 2000
    inst = make_planted(m, n, RngHandle(94).generator())
    peak = traced_peak(lambda: discG_mc(inst.a, inst.sigma, samples, RngHandle(95)))
    assert peak <= 8 * n * n + 8 * m * samples


def test_discg_column_slices_match_the_whole_block_product():
    # m = 512 takes the block's product in slices of 256 samples, here five
    # and a partial one of 3; with the identity coupling A L_k is A, and the
    # estimate is bitwise that of the whole block's product on the same draws.
    # Each row of A holds two entries of +-1, so each entry of A xi is one
    # rounded sum, the same in any BLAS kernel: the slices cannot hide in it
    m, n = 512, 6
    width = SLICE_BYTES // (8 * m)
    samples = 5 * width + 3
    gen = RngHandle(96).generator()
    a = np.zeros((m, n))
    for _ in range(2):
        a[np.arange(m), gen.integers(0, n, m)] += gen.choice([-1.0, 1.0], m)
    est = discG_mc(a, np.eye(n), samples, RngHandle(97))
    xi = RngHandle(97).substream(0).generator().standard_normal((n, samples))
    vals = np.abs(a @ xi).max(axis=0)
    assert est.mean == vals.mean()
    assert est.std_error == vals.std(ddof=1) / math.sqrt(samples)


def test_discg_holds_one_column_slice_of_the_product(traced_peak):
    # at m = 512 a block's m x MC_BLOCK product is 32 MiB, and its absolute
    # value another; sliced, the block's normals, A L_k and one slice remain
    m, n = 512, 16
    a = RngHandle(98).generator().standard_normal((m, n))
    peak = traced_peak(lambda: discG_mc(a, np.eye(n), MC_BLOCK, RngHandle(99)))
    assert peak <= 8 * n * MC_BLOCK + 8 * m * n + 2 * SLICE_BYTES


def test_discg_rank_one_coupling_identity():
    gen = RngHandle(34).generator()
    a = gen.standard_normal((3, 6))
    sigma = 1.0 - 2.0 * gen.integers(0, 2, size=6)
    est = discG_mc(a, coupling_from_signing(sigma), 50_000, RngHandle(35))
    target = ROOT_2_OVER_PI * np.abs(a @ sigma).max()
    assert abs(est.mean - target) <= 3.0 * est.std_error


def test_discg_rank_one_draws_one_normal_per_sample():
    # a signing coupling has rank 1: sample i is ||A sigma||_inf |xi_i| with
    # xi the first `samples` normals of block 0's substream
    gen = RngHandle(70).generator()
    a = gen.standard_normal((4, 9))
    sigma = 1.0 - 2.0 * gen.integers(0, 2, size=9)
    samples = 3000
    est = discG_mc(a, coupling_from_signing(sigma), samples, RngHandle(71))
    xi = RngHandle(71).substream(0).generator().standard_normal(samples)
    target = np.mean(np.abs(a @ sigma).max() * np.abs(xi))
    assert est.mean == pytest.approx(target, rel=1e-12, abs=0.0)


def test_discg_zero_coupling_is_exactly_zero():
    a = RngHandle(72).generator().standard_normal((3, 5))
    est = discG_mc(a, np.zeros((5, 5)), 500, RngHandle(73))
    assert est.mean == 0.0 and est.std_error == 0.0


def test_discg_planted_coupling_matches_dense_factor():
    # the planted coupling's two pivots are its leading columns, so the
    # rank-2 sampler uses the first 2 x samples normals that the dense
    # n x n factor would have multiplied
    n, samples = 102, 1500
    inst = make_planted(12, n, RngHandle(74).generator())
    low = psd_cholesky(inst.sigma)
    for a in (inst.a, RngHandle(75).generator().standard_normal((12, n))):
        est = discG_mc(a, inst.sigma, samples, RngHandle(76))
        xi = RngHandle(76).substream(0).generator().standard_normal((n, samples))
        dense = np.abs(a @ (low @ xi)).max(axis=0).mean()
        assert abs(est.mean - dense) <= 1e-12


@pytest.mark.parametrize("k", [1e200, 1e-200])
def test_discg_scales_with_the_matrix(k):
    # unscaled, the sum of squares behind the standard error overflows (inf)
    # or underflows (0.0) at these scales while the mean stays right
    a = RngHandle(99).generator().standard_normal((5, 6))
    ref = discG_mc(a, np.eye(6), 100, RngHandle(1))
    est = discG_mc(k * a, np.eye(6), 100, RngHandle(1))
    assert abs(est.mean / k - ref.mean) <= 1e-6 * ref.mean
    assert abs(est.std_error / k - ref.std_error) <= 1e-6 * ref.std_error


def test_discg_block_layout_is_deterministic():
    a = RngHandle(36).generator().standard_normal((2, 4))
    e1 = discG_mc(a, np.eye(4), 20_000, RngHandle(37))
    e2 = discG_mc(a, np.eye(4), 20_000, RngHandle(37))
    assert e1.mean == e2.mean and e1.std_error == e2.std_error


def test_online_discg_single_round():
    vs = np.zeros((3, 1))
    vs[0, 0] = 1.0
    us = np.array([[0.6, 0.8]])
    est = online_discG(vs, us, 60_000, RngHandle(38))
    assert abs(est.mean - ROOT_2_OVER_PI) <= 3.0 * est.std_error


def test_online_discg_one_sample_has_zero_std_error():
    est = online_discG(np.eye(3), unit_rows(3, 2, 63), 1, RngHandle(64))
    assert est.samples == 1 and est.std_error == 0.0
    assert est.mean > 0.0


def test_online_discg_rejects_non_unit_stream():
    # a stream row of norm c gives g_t variance c^2: not a Gaussian
    # discrepancy, so it is rejected like vdisc_objective_units rejects it
    for us in (2.0 * np.eye(3)[:, :2], np.eye(3)[:, :2]):
        with pytest.raises(NotUnitError):
            online_discG(np.eye(3), us, 1000, RngHandle(65))


def test_online_discg_zero_and_empty():
    est = online_discG(np.zeros((3, 4)), unit_rows(4, 2, 39), 1000, RngHandle(40))
    assert est.mean == 0.0
    est = online_discG(np.zeros((3, 0)), np.zeros((0, 2)), 1000, RngHandle(41))
    assert est.mean == 0.0
    with pytest.raises(DimMismatchError):
        online_discG(np.zeros((3, 4)), unit_rows(5, 2, 42), 100, RngHandle(0))


def test_evaluators_take_matrices_through_check_matrix():
    with pytest.raises(DimMismatchError):
        disc_bruteforce(np.ones(3))
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    calls = [
        lambda: disc_bruteforce(bad),
        lambda: vdisc_objective(bad, np.eye(2)),
        lambda: vdisc_objective(np.eye(2), bad),
        lambda: vdisc_objective_units(np.eye(2), bad),
        lambda: discs_objective(bad, np.ones(2)),
        lambda: discG_mc(bad, np.eye(2), 10, RngHandle(0)),
        lambda: discG_mc(np.eye(2), bad, 10, RngHandle(0)),
        lambda: online_discG(bad, np.eye(2), 10, RngHandle(0)),
        lambda: random_signing_baseline(bad, 10, RngHandle(0)),
        lambda: discs_objective(np.eye(2), np.array([np.nan, 1.0])),
        lambda: triangle_rank2(np.array([1.0, np.nan, 1.0, 1.0, 1.0, 1.0])),
        lambda: triangle_rank2(np.array([1.0, np.inf, 1.0, 1.0, 1.0, 1.0])),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="non-finite"):
            call()


def online_discg_loop(vs, us, samples, rng):
    """Reference: the round-by-round recursion acc += v_t g_t over the same
    blocks, substreams and g = us @ normals as online_discG."""
    m, big_t = vs.shape
    sizes = [MC_BLOCK] * (samples // MC_BLOCK) + [samples % MC_BLOCK] * bool(samples % MC_BLOCK)
    sums = np.zeros(big_t)
    sqs = np.zeros(big_t)
    for k, size in enumerate(sizes):
        g = us @ rng.substream(k).generator().standard_normal((us.shape[1], size))
        acc = np.zeros((m, size))
        for t in range(big_t):
            acc += np.outer(vs[:, t], g[t])
            cur = np.abs(acc).max(axis=0, initial=0.0)
            sums[t] += cur.sum()
            sqs[t] += cur @ cur
    means = sums / samples
    t_star = int(np.argmax(means))
    mean = float(means[t_star])
    var = (sqs[t_star] - samples * mean * mean) / (samples - 1)
    return mean, math.sqrt(max(var, 0.0) / samples)


@pytest.mark.parametrize(
    "m, big_t, r, samples",
    [
        (16, 128, 11, 1000),  # banaszczyk-small
        (5, 1, 3, 700),  # T below one round block
        (5, 3, 3, 700),
        (5, 13, 3, 700),  # a partial last round block
        (1, 9, 2, 700),
        (0, 6, 2, 700),
        (4, 10, 3, MC_BLOCK + 5),  # two Monte Carlo blocks
        (16, 9, 4, SLICE_BYTES // (4 * PREFIX_ROUNDS * 16) + 7),  # two sample chunks
        (32, 9, 4, 2 * SLICE_BYTES // (4 * PREFIX_ROUNDS * 32) + 7),  # three sample chunks
        (2048, 6, 3, 2 * 256 + 7),  # three chunks at the 256-column floor
        (16, 128, 11, 20_000),  # criterion 07's sample count
        (4096, 384, 18, 200),  # the longest rounds: float32 error accumulates over 384
    ],
)
def test_online_discg_matches_the_round_by_round_recursion(m, big_t, r, samples):
    # the float32 prefix arithmetic stays within the error budget of the
    # float64 recursion on the same draws: 1e-3 standard errors and 1e-6
    # relative, for the mean and for the standard error
    vs = unit_columns(m, big_t, RngHandle(70)) if m else np.zeros((0, big_t))
    us = unit_rows(big_t, r, 71)
    est = online_discG(vs, us, samples, RngHandle(72))
    if m == 0:
        assert est.mean == 0.0 and est.std_error == 0.0
        return
    mean, std_error = online_discg_loop(vs, us, samples, RngHandle(72))
    assert abs(est.mean - mean) <= min(1e-3 * std_error, 1e-6 * mean)
    assert abs(est.std_error - std_error) <= 1e-6 * std_error


def test_online_discg_pins_the_float32_prefixes():
    # one round block and one sample chunk: the estimate is bitwise that of
    # the float32 stack of 2^-e V times the float32 cast of g, so a product
    # silently upcast to float64 fails
    m, big_t, samples = 5, 3, 700
    vs = unit_columns(m, big_t, RngHandle(70))
    us = unit_rows(big_t, 3, 71)
    est = online_discG(vs, us, samples, RngHandle(72))
    exponent = math.frexp(np.abs(vs).max())[1]
    stack = (np.ldexp(vs, -exponent) * np.tri(big_t)[:, None]).astype(np.float32)
    normals = RngHandle(72).substream(0).generator().standard_normal((3, samples))
    g = (us @ normals).astype(np.float32)
    cur = np.abs(stack.reshape(big_t * m, big_t) @ g).reshape(big_t, m, samples).max(axis=1)
    assert cur.dtype == np.float32
    means = cur.sum(axis=1, dtype=np.float64) / samples
    assert est.mean == math.ldexp(float(means.max()), exponent)


@pytest.mark.parametrize("k", [1e200, 1e-200])
def test_online_discg_scales_with_the_stream(k):
    # in float64 the sum of squares behind the standard error overflows (inf)
    # or underflows (0.0) at these scales; a float32 cast would too
    vs = unit_columns(16, 24, RngHandle(96))
    us = unit_rows(24, 5, 97)
    ref = online_discG(vs, us, 500, RngHandle(98))
    est = online_discG(k * vs, us, 500, RngHandle(98))
    assert abs(est.mean / k - ref.mean) <= 1e-6 * ref.mean
    assert abs(est.std_error / k - ref.std_error) <= 1e-6 * ref.std_error


def test_online_discg_builds_one_round_block_stack_at_a_time(traced_peak):
    # at m = 256, T = 1000 and 64 samples a 4 m x T stack of masked V would
    # be the largest array of a call (8.2 MB against 0.5 MB for g)
    m, big_t, samples = 256, 1000, 64
    vs = unit_columns(m, big_t, RngHandle(83))
    us = unit_rows(big_t, 4, 84)
    peak = traced_peak(lambda: online_discG(vs, us, samples, RngHandle(85)))
    assert peak <= 8 * PREFIX_ROUNDS * m * big_t // 2


def test_online_discg_forms_g_one_sample_chunk_at_a_time(traced_peak):
    # at m = 300, T = 200 a block's float64 g = us @ normals would take
    # 8 T MC_BLOCK bytes (13 MB), beside its float32 cast; formed per chunk
    # of 256 samples, the block's r x MC_BLOCK normals and a few chunk
    # buffers of about SLICE_BYTES remain
    m, big_t, r, samples = 300, 200, 12, 9000
    bound = 8 * r * MC_BLOCK + 4 * SLICE_BYTES
    assert 8 * big_t * MC_BLOCK > bound  # a whole block's g alone breaks it
    vs = unit_columns(m, big_t, RngHandle(86))
    us = unit_rows(big_t, r, 87)
    assert traced_peak(lambda: online_discG(vs, us, samples, RngHandle(88))) <= bound


def test_online_discg_is_monotone_max_over_prefixes():
    # a prefix of the stream can never have a larger estimate
    m, big_t = 4, 12
    vs = unit_columns(m, big_t, RngHandle(43))
    us = unit_rows(big_t, 3, 44)
    full = online_discG(vs, us, 20_000, RngHandle(45))
    half = online_discG(vs[:, :6], us[:6], 20_000, RngHandle(45))
    assert full.mean >= half.mean - 3.0 * (full.std_error + half.std_error)


def test_coupling_constructors():
    assert np.array_equal(coupling_from_signing(np.array([1.0, 1.0])), np.ones((2, 2)))
    assert np.array_equal(
        coupling_from_signing(np.array([1.0, -1.0])), np.array([[1.0, -1.0], [-1.0, 1.0]])
    )
    with pytest.raises(ValueError):
        coupling_from_signing(np.array([1.0, 0.5]))
    assert np.array_equal(coupling_from_units(np.eye(3)), np.eye(3))
    u = unit_rows(6, 2, 46)
    gram = coupling_from_units(u)
    assert np.linalg.matrix_rank(gram, tol=1e-8) <= 2


def test_low_rank_coupling_inequality():
    # expected sup norm is at most sqrt(r) times the unit-row objective
    gen = RngHandle(47).generator()
    for r in (2, 3):
        a = gen.standard_normal((4, 8))
        u = gen.standard_normal((8, r))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        est = discG_mc(a, coupling_from_units(u), 20_000, RngHandle(48))
        bound = math.sqrt(r) * vdisc_objective_units(a, u)
        assert est.mean <= bound + 3.0 * est.std_error


def test_union_bound_coupling_inequality():
    # expected sup norm is at most sqrt(2 ln 2m) times the Gram objective
    gen = RngHandle(49).generator()
    for m in (2, 6):
        a = gen.standard_normal((m, 7))
        u = gen.standard_normal((7, 7))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        sigma = coupling_from_units(u)
        est = discG_mc(a, sigma, 20_000, RngHandle(50))
        bound = math.sqrt(2.0 * math.log(2.0 * m)) * vdisc_objective(a, sigma)
        assert est.mean <= bound + 3.0 * est.std_error


def test_triangle_equilateral():
    u = triangle_rank2(np.ones(3), (1, 1, 1))
    assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-12
    assert np.linalg.norm(u.sum(axis=0)) < 1e-12
    # 120 degrees between block directions
    assert abs(u[0] @ u[1] + 0.5) < 1e-12
    assert abs(u[1] @ u[2] + 0.5) < 1e-12


def test_triangle_infeasible():
    with pytest.raises(InfeasibleTriangleError):
        triangle_rank2(np.array([3.0, 1.0, 1.0]), (1, 1, 1))


def test_triangle_degenerate_flat():
    u = triangle_rank2(np.array([2.0, 1.0, 1.0]), (1, 1, 1))
    assert np.linalg.norm(np.array([2.0, 1.0, 1.0]) @ u) < 1e-12


def test_triangle_gaussian_rows():
    gen = RngHandle(51).generator()
    for _ in range(10):
        a = gen.standard_normal(300)
        u = triangle_rank2(a)
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-9
        assert np.linalg.norm(a @ u) < 1e-8
        assert vdisc_objective_units(a[None, :], u) < 1e-8


def test_triangle_zero_and_two_equal_sides():
    # all block sums zero, and one zero block beside two equal ones
    for a in ([0.0, 0.0, 0.0], [1.0, 0.0, -1.0]):
        a = np.array(a)
        u = triangle_rank2(a, (1, 1, 1))
        assert np.abs(np.linalg.norm(u, axis=1) - 1.0).max() < 1e-12
        assert np.linalg.norm(a @ u) < 1e-12


def test_triangle_signs_applied():
    a = np.array([1.0, -2.0, 2.0])
    u = triangle_rank2(a, (1, 1, 1))
    assert np.linalg.norm(a @ u) < 1e-12


def test_random_signing_baseline():
    est = random_signing_baseline(np.zeros((2, 5)), 500, RngHandle(52))
    assert est.mean == 0.0
    est = random_signing_baseline(np.eye(5), 500, RngHandle(53))
    assert est.mean == 1.0 and est.std_error == 0.0


def block_bits(rng, k, n, size):
    return rng.substream(k).generator().integers(0, 2, size=(n, size), dtype=bool)


def signing_maxima32(a, bits):
    """Reference of random_signing_baseline's per-sample maxima: A scaled
    by 2^-e and cast to float32, r - 2 A b on the 0/1 bits, abs and max in
    float32, then scaled back by 2^e in float64."""
    e = int(np.frexp(np.abs(a).max())[1])
    a32 = np.ldexp(a, -e).astype(np.float32)
    prod = a32.sum(axis=1)[:, None] - 2 * (a32 @ bits.astype(np.float32))
    assert prod.dtype == np.float32
    return np.ldexp(np.abs(prod).max(axis=0).astype(float), e)


def test_random_signing_baseline_pins_block_zero_draw():
    # exact pins: a float64 product of the same bits would differ in its
    # last bits, so these cases also check that the products run in float32
    n, samples = 7, 900
    a = RngHandle(77).generator().standard_normal((3, n))
    est = random_signing_baseline(a, samples, RngHandle(78))
    vals = signing_maxima32(a, block_bits(RngHandle(78), 0, n, samples))
    assert est.mean == vals.mean()
    assert est.std_error == vals.std(ddof=1) / math.sqrt(samples)
    # a block in several column slices ending in a partial one: integer
    # entries make every product exact, so the slices cannot hide in rounding
    n = 2000
    width = SLICE_BYTES // (8 * n) // 8 * 8
    samples = 5 * width + 3
    a = RngHandle(79).generator().integers(-9, 10, size=(4, n)).astype(float)
    est = random_signing_baseline(a, samples, RngHandle(78))
    bits = RngHandle(78).substream(0).generator().integers(0, 2, size=(n, samples), dtype=bool)
    vals = np.abs(a @ (1.0 - 2.0 * bits)).max(axis=0)
    assert est.mean == vals.mean()
    assert est.std_error == vals.std(ddof=1) / math.sqrt(samples)
    # two Monte Carlo blocks: block k is the bool draw of substream k
    n, samples = 3, MC_BLOCK + 5
    a = RngHandle(77).generator().standard_normal((3, n))
    est = random_signing_baseline(a, samples, RngHandle(78))
    vals = np.concatenate([
        signing_maxima32(a, block_bits(RngHandle(78), k, n, size))
        for k, size in enumerate((MC_BLOCK, 5))
    ])
    assert est.mean == vals.mean()
    assert est.std_error == vals.std(ddof=1) / math.sqrt(samples)


@pytest.mark.parametrize("n", [502, 2002])
def test_random_signing_baseline_float32_error_budget(n):
    # the rounding-spencer shape (80 x 502) and 263 x 2002: the float32
    # estimate is within 1e-3 standard errors of float64 products of the
    # same bits
    setting = SETTINGS["spencer"]
    inst = make_planted(setting.rows(n), n, RngHandle(86).generator())
    a = setting.normalize(inst.a, n)
    est = random_signing_baseline(a, BASELINE_SAMPLES, RngHandle(87))
    bits = block_bits(RngHandle(87), 0, n, BASELINE_SAMPLES)
    vals = np.abs(a @ (1.0 - 2.0 * bits)).max(axis=0)
    std_error = vals.std(ddof=1) / math.sqrt(BASELINE_SAMPLES)
    assert abs(est.mean - vals.mean()) <= 1e-3 * std_error
    assert abs(est.std_error - std_error) <= 1e-3 * std_error


@pytest.mark.parametrize("k", [1e200, 1e-200])
def test_random_signing_baseline_scales_with_the_matrix(k):
    # a plain float32 cast of k A overflows (NaN) or flushes to zero (0.0)
    a = RngHandle(88).generator().standard_normal((20, 102))
    ref = random_signing_baseline(a, 500, RngHandle(89))
    est = random_signing_baseline(k * a, 500, RngHandle(89))
    assert abs(est.mean / k - ref.mean) <= 1e-6 * ref.mean
    assert abs(est.std_error / k - ref.std_error) <= 1e-6 * ref.std_error


def test_random_signing_baseline_holds_one_slice_of_floats(traced_peak):
    # the rounding-spencer shape: the bits of the block, one slice of float32
    # 0/1 values and small per-slice products, never the n x size float matrix
    m, n, samples = 80, 502, 2000
    a = RngHandle(81).generator().standard_normal((m, n))
    peak = traced_peak(lambda: random_signing_baseline(a, samples, RngHandle(82)))
    assert peak <= n * samples + 2 * SLICE_BYTES


def test_random_signing_baseline_matches_enumerated_mean():
    # the law, independent of how the draw is made: the exact mean over
    # all 2^8 signings lies within 4 standard errors of the estimate
    a = RngHandle(79).generator().standard_normal((3, 8))
    signings = np.array(list(itertools.product((-1.0, 1.0), repeat=8))).T
    exact = np.abs(a @ signings).max(axis=0).mean()
    est = random_signing_baseline(a, 20_000, RngHandle(80))
    assert est.samples == 20_000
    assert abs(est.mean - exact) <= 4.0 * est.std_error


def test_random_signing_baseline_planted_scale():
    # the planted family needs n = 2 (mod 4); 514 is the size closest to 512
    n = 514
    m = int(n / math.log(n))
    inst = make_planted(m, n, RngHandle(54).generator())
    est = random_signing_baseline(inst.a, 400, RngHandle(55))
    assert est.mean <= 4.0 * math.sqrt(n * math.log(n))


@pytest.mark.parametrize("count", [0, -3])
def test_monte_carlo_evaluators_reject_sample_counts_below_one(count):
    a = np.eye(2)
    for estimate in (
        lambda: discG_mc(a, np.eye(2), count, RngHandle(56)),
        lambda: random_signing_baseline(a, count, RngHandle(57)),
        lambda: online_discG(a, unit_rows(2, 2, 58), count, RngHandle(59)),
    ):
        with pytest.raises(ValueError, match=f"got {count}$"):
            estimate()


def test_monte_carlo_evaluators_take_only_rng_handles():
    a = np.eye(2)
    gen = RngHandle(60).generator()
    for estimate in (
        lambda: discG_mc(a, np.eye(2), 10, gen),
        lambda: random_signing_baseline(a, 10, gen),
        lambda: online_discG(a, unit_rows(2, 2, 61), 10, gen),
    ):
        with pytest.raises(TypeError, match="RngHandle"):
            estimate()


def test_monte_carlo_evaluators_need_a_seed():
    a = np.eye(2)
    for estimate in (
        lambda: discG_mc(a, np.eye(2), 10),
        lambda: random_signing_baseline(a, 10),
        lambda: online_discG(a, unit_rows(2, 2, 62), 10),
    ):
        with pytest.raises(TypeError, match="'rng'"):
            estimate()

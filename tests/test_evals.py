import math

import numpy as np
import pytest

from discforge.errors import (
    DimMismatchError,
    InfeasibleTriangleError,
    NotUnitError,
    TooLargeError,
)
from discforge.evals import (
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
from discforge.rng import RngHandle
from discforge.rounding import make_planted

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


def test_discg_planted_cancellation():
    inst = make_planted(10, 102, RngHandle(32).generator())
    est = discG_mc(inst.a, inst.sigma, 2000, RngHandle(33))
    assert est.mean <= 1e-6


def test_discg_rank_one_coupling_identity():
    gen = RngHandle(34).generator()
    a = gen.standard_normal((3, 6))
    sigma = 1.0 - 2.0 * gen.integers(0, 2, size=6)
    est = discG_mc(a, coupling_from_signing(sigma), 50_000, RngHandle(35))
    target = ROOT_2_OVER_PI * np.abs(a @ sigma).max()
    assert abs(est.mean - target) <= 3.0 * est.std_error


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


def test_online_discg_zero_and_empty():
    est = online_discG(np.zeros((3, 4)), unit_rows(4, 2, 39), 1000, RngHandle(40))
    assert est.mean == 0.0
    est = online_discG(np.zeros((3, 0)), np.zeros((0, 2)), 1000, RngHandle(41))
    assert est.mean == 0.0
    with pytest.raises(DimMismatchError):
        online_discG(np.zeros((3, 4)), unit_rows(5, 2, 42), 100, RngHandle(0))


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


def test_triangle_signs_applied():
    a = np.array([1.0, -2.0, 2.0])
    u = triangle_rank2(a, (1, 1, 1))
    assert np.linalg.norm(a @ u) < 1e-12


def test_random_signing_baseline():
    est = random_signing_baseline(np.zeros((2, 5)), 500, RngHandle(52))
    assert est.mean == 0.0
    est = random_signing_baseline(np.eye(5), 500, RngHandle(53))
    assert est.mean == 1.0 and est.std_error == 0.0


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

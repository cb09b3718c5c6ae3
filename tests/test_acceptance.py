"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured values (run pytest -s to see them live).

Statistical criteria run at fixed seeds, so the suite is deterministic;
tolerances and trial counts are part of the criteria themselves.
"""
import math
import time

import numpy as np
import pytest
from scipy.stats import norm

from discforge.chilaw import ChiLaw, chi_cdf, sigma_star, ratio_condition_holds
from discforge.cli import BANASZCZYK_FACTOR, bench_per_round
from discforge.errors import InconsistentStreamError, InfeasibleTriangleError
from discforge.evals import (
    coupling_from_signing,
    coupling_from_units,
    discG_mc,
    disc_bruteforce,
    online_discG,
    triangle_rank2,
    vdisc_objective,
    vdisc_objective_units,
)
from discforge.instances import unit_columns
from discforge.kernel import (
    advance_chain_batch,
    kernel_step,
    kernel_step_batch,
    slice_sample,
)
from discforge.rng import RngHandle
from discforge.rounding import (
    KOMLOS_GW_FACTOR,
    SPENCER_GW_FACTOR,
    rounding_experiment,
)
from discforge.stats import cov_test, ks_test
from discforge.walk import (
    WalkConfig,
    banaszczyk_rank,
    gram_of_stream,
    komlos_rank,
    stream_of_grams,
    walk_init,
    walk_run,
    walk_step,
)

SEED = RngHandle(0xD15CF043)


def report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} PASS  {detail}")


def test_criterion_01_kernel_unit_increments():
    """10^6 kernel steps at random states keep |  ||step|| - 1 | <= 1e-9."""
    t0 = time.perf_counter()
    worst = 0.0
    total = 0
    for r in (2, 3, 8):
        sigma2 = (1.25 * sigma_star(r)) ** 2
        gen = SEED.substream(100 + r).generator()
        # radii spread over all three kernel branches, incl. boundaries
        n_batch, n_scalar = 294_000, 40_000
        radii = np.concatenate([
            gen.uniform(0.0, 0.5, n_batch // 3),
            gen.uniform(0.5, 1.0, n_batch // 3),
            gen.uniform(1.0, 3.0, n_batch - 2 * (n_batch // 3) - 3),
            [0.0, 0.5, 1.0],
        ])
        dirs = gen.standard_normal((n_batch, r))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        xs = radii[:, None] * dirs
        us = kernel_step_batch(sigma2, xs, gen)
        worst = max(worst, float(np.abs(np.linalg.norm(us, axis=1) - 1.0).max()))
        total += n_batch
        for i in range(n_scalar):
            x = xs[i % n_batch]
            u = kernel_step(sigma2, x, gen)
            dev = abs(float(np.linalg.norm(u)) - 1.0)
            if dev > worst:
                worst = dev
        total += n_scalar
    elapsed = time.perf_counter() - t0
    assert total >= 1_000_000
    assert worst <= 1e-9
    assert elapsed < 30.0
    report(1, f"{total} steps, worst |increment-1| = {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_stationarity_marginal():
    """From a stationary start, the time-100 marginal matches the law."""
    t0 = time.perf_counter()
    r, sigma, runs, steps = 2, 0.5, 5000, 100
    gen = SEED.substream(2).generator()
    x0 = sigma * gen.standard_normal((runs, r))
    xs = advance_chain_batch(sigma * sigma, x0, steps, gen)
    law = ChiLaw(r, sigma * sigma)
    ks_radius = ks_test(np.linalg.norm(xs, axis=1), lambda s: chi_cdf(law, s))
    assert ks_radius.p_value >= 0.01
    for j in range(r):
        ks_coord = ks_test(xs[:, j], lambda s: norm.cdf(s, scale=sigma))
        assert ks_coord.p_value >= 0.01
    cov_dev = cov_test(xs, sigma * sigma * np.eye(r))
    assert cov_dev <= 0.05
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    report(
        2,
        f"KS radius p={ks_radius.p_value:.3f}, cov dev={cov_dev:.4f}, {elapsed:.1f}s",
    )


def test_criterion_03_variance_threshold_is_sharp():
    """The density-ratio condition flips exactly at the critical sigma."""
    t0 = time.perf_counter()
    for r in (2, 3, 5, 10, 50):
        star = sigma_star(r)
        assert ratio_condition_holds(r, star * 1.000001).holds
        assert not ratio_condition_holds(r, star * 0.9).holds
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    report(3, f"r in (2,3,5,10,50) at grid 1e5, {elapsed:.1f}s")


def test_criterion_04_walk_accumulator_distribution():
    """W_T entries are i.i.d. N(0, sigma_star^2) for a fixed adversary."""
    t0 = time.perf_counter()
    m, r, big_t, runs = 4, 3, 200, 2000
    sd = sigma_star(r)
    vs = unit_columns(m, big_t, SEED.substream(400))
    finals = np.empty((runs, m * r))
    for k in range(runs):
        state = walk_init(WalkConfig(m=m, r=r, seed=SEED.substream(401).substream(k)))
        for t in range(big_t):
            _, state = walk_step(state, vs[:, t])
        finals[k] = state.w.ravel()
    mean_dev = float(np.abs(finals.mean(axis=0)).max())
    assert mean_dev <= 0.05
    cov_dev = cov_test(finals, sd * sd * np.eye(m * r))
    assert cov_dev <= 0.05
    worst_p = 1.0
    for j in range(m * r):
        res = ks_test(finals[:, j], lambda s: norm.cdf(s, scale=sd))
        worst_p = min(worst_p, res.p_value)
        assert res.p_value >= 0.01
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        4,
        f"mean dev={mean_dev:.4f}, cov dev={cov_dev:.4f}, "
        f"min KS p={worst_p:.3f}, {elapsed:.1f}s",
    )


def test_criterion_05_online_komlos_bound():
    """Balanced row norms stay below 1+eps w.h.p.; identity is sharp."""
    t0 = time.perf_counter()
    m, big_t, eps, delta = 10, 500, 0.5, 0.05
    r = komlos_rank(m, big_t, delta, eps)
    assert r == 1 + math.ceil(8.0 * math.log(2.0 * m * big_t / delta) / eps**2)
    trials, hits, values = 100, 0, []
    for k in range(trials):
        h = SEED.substream(500).substream(k)
        vs = unit_columns(m, big_t, h.substream(1))
        run = walk_run(WalkConfig(m=m, r=r, seed=h.substream(2)), vs)
        val = float(run.running_max[-1])
        values.append(val)
        hits += val <= 1.0 + eps
    assert hits >= 95
    # identity sharpness: the objective is exactly 1 >= 1 - eps
    r_id = komlos_rank(10, 10, delta, eps)
    for k in range(5):
        run = walk_run(
            WalkConfig(m=10, r=r_id, seed=SEED.substream(501).substream(k)), np.eye(10)
        )
        assert float(run.running_max[-1]) >= 1.0 - eps
    elapsed = time.perf_counter() - t0
    report(
        5,
        f"r={r}, {hits}/100 trials <= 1.5 (max {max(values):.3f}), "
        f"identity >= 0.5, {elapsed:.1f}s",
    )


def test_criterion_06_expected_max_row_norm_bound():
    """Identity stream: mean of the worst row norm obeys the closed bound."""
    t0 = time.perf_counter()
    m = big_t = 64
    r = 32
    bound = math.sqrt(2.0 * math.log(m * big_t) / (r - 1)) + math.sqrt(r / (r - 1))
    maxima = []
    for k in range(50):
        run = walk_run(
            WalkConfig(m=m, r=r, seed=SEED.substream(600).substream(k)), np.eye(m)
        )
        maxima.append(float(run.running_max[-1]))
    mean_max = float(np.mean(maxima))
    assert mean_max <= bound
    elapsed = time.perf_counter() - t0
    report(6, f"mean max row norm {mean_max:.4f} <= bound {bound:.4f}, {elapsed:.1f}s")


def test_criterion_07_online_gaussian_banaszczyk():
    """End-to-end: the online expected sup norm stays below the frozen
    multiple of sqrt(ln(2mT/delta)) in at least 95% of trials."""
    t0 = time.perf_counter()
    m, big_t, delta, trials, samples = 16, 128, 0.05, 50, 20_000
    r = banaszczyk_rank(m, big_t, delta)
    threshold = BANASZCZYK_FACTOR * math.sqrt(math.log(2.0 * m * big_t / delta))
    estimates = []
    for k in range(trials):
        h = SEED.substream(700).substream(k)
        vs = unit_columns(m, big_t, h.substream(1))
        run = walk_run(WalkConfig(m=m, r=r, seed=h.substream(2)), vs)
        est = online_discG(vs, run.us, samples, h.substream(3))
        assert est.std_error < 0.05
        estimates.append(est.mean)
    hits = int(np.sum(np.asarray(estimates) <= threshold))
    assert hits >= math.ceil(0.95 * trials)
    elapsed = time.perf_counter() - t0
    report(
        7,
        f"r={r}, {hits}/{trials} <= {threshold:.2f} "
        f"(max estimate {max(estimates):.3f}), {elapsed:.1f}s",
    )


def test_criterion_08_per_round_time_linear_in_m_r():
    """Median per-round time fits a + b (m r) with R^2 >= 0.95."""
    t0 = time.perf_counter()
    sizes, times = [], []
    for m in (100, 1000, 10_000):
        for r in (4, 16, 64):
            res = bench_per_round(m, 48, r, reps=7, seed=8)
            sizes.append(m * r)
            times.append(res["median_round_seconds"])
    x = np.asarray(sizes, dtype=float)
    y = np.asarray(times)
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ coef
    r2 = 1.0 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())
    elapsed = time.perf_counter() - t0
    assert r2 >= 0.95
    report(8, f"R^2 = {r2:.4f} over (m, r) grid, slope {coef[1]:.2e} s/entry, {elapsed:.1f}s")


def test_criterion_09_relaxation_identities():
    """Rank-1 coupling equality, Gram/unit-row identity, low-rank bound."""
    t0 = time.perf_counter()
    gen = SEED.substream(900).generator()
    root = math.sqrt(2.0 / math.pi)
    for i in range(20):
        a = gen.standard_normal((4, 8))
        disc, sigma = disc_bruteforce(a)
        est = discG_mc(a, coupling_from_signing(sigma), 50_000, SEED.substream(901).substream(i))
        assert abs(est.mean - root * disc) <= 3.0 * est.std_error
        for r in (2, 3):
            u = gen.standard_normal((8, r))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            assert abs(vdisc_objective_units(a, u) - vdisc_objective(a, u @ u.T)) <= 1e-10
            est = discG_mc(a, coupling_from_units(u), 20_000, SEED.substream(902).substream(10 * i + r))
            assert est.mean <= math.sqrt(r) * vdisc_objective_units(a, u) + 3.0 * est.std_error
    # low-rank bound with the constructive rank-2 rows on balancing rows;
    # both sides are exact cancellations (~1e-16 float noise from two
    # different contraction orders), so allow an absolute 1e-12 slack
    for i in range(5):
        row = gen.standard_normal((1, 30))
        u = triangle_rank2(row[0], (10, 10, 10))
        est = discG_mc(row, coupling_from_units(u), 20_000, SEED.substream(903).substream(i))
        bound = math.sqrt(2.0) * vdisc_objective_units(row, u) + 3.0 * est.std_error
        assert est.mean <= bound + 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    report(9, f"20 instances x (rank-1 equality, Gram identity, low-rank bound), {elapsed:.1f}s")


def test_criterion_10_gram_stream_round_trip():
    """Nested-correlation streams and unit-vector streams are equivalent."""
    t0 = time.perf_counter()
    gen = SEED.substream(1000).generator()
    for case in range(100):
        big_t = int(gen.integers(1, 21))
        width = int(gen.integers(1, 5))
        rows = []
        for t in range(big_t):
            if t >= 1 and gen.random() < 0.3:
                rows.append(rows[int(gen.integers(0, t))])  # duplicates drop rank
            else:
                v = gen.standard_normal(width)
                n = np.linalg.norm(v)
                rows.append(v / n if n > 0 else np.eye(width)[0])
        us_in = np.array(rows)
        sigmas = gram_of_stream(us_in)
        us_out = stream_of_grams(sigmas)
        for t in range(big_t):
            assert np.all(us_out[t, t + 1 :] == 0.0)
        recon = us_out @ us_out.T
        assert np.abs(recon - sigmas[-1]).max() <= 1e-8
    # inconsistent streams are rejected: change a committed correlation in
    # the last matrix (small enough to stay a valid correlation matrix)
    rows = gen.standard_normal((5, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    sigmas = gram_of_stream(rows)
    broken = [s.copy() for s in sigmas]
    broken[-1][0, 1] += 0.05
    broken[-1][1, 0] += 0.05
    with pytest.raises(InconsistentStreamError):
        stream_of_grams(broken)
    elapsed = time.perf_counter() - t0
    report(10, f"100 mixed-rank streams round-tripped, {elapsed:.1f}s")


def test_criterion_11_rounding_failure():
    """Planted couplings evaluate to zero but round to high-discrepancy
    signings in both normalization settings."""
    t0 = time.perf_counter()
    n, trials = 502, 50
    spencer = rounding_experiment("spencer", n, trials, SEED.substream(1100))
    komlos = rounding_experiment("komlos", n, trials, SEED.substream(1101))
    for rep in (spencer, komlos):
        assert rep.verdicts["planted_coupling_zero"]["passed"]
        assert rep.verdicts["orbit_membership"]["passed"]
        assert rep.verdicts["feasible_fraction"]["passed"]
        assert rep.verdicts["gw_lower_bound_fraction"]["passed"]
        assert rep.verdicts["pca_lower_bound_fraction"]["passed"]
    assert spencer.summary["signing_threshold"] == SPENCER_GW_FACTOR * math.sqrt(n)
    assert komlos.summary["signing_threshold"] == KOMLOS_GW_FACTOR * math.sqrt(n / math.log(n))
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(
        11,
        f"spencer gw mean {spencer.summary['mean_gw_linf']:.2f} >= "
        f"{spencer.summary['signing_threshold']:.2f}; komlos gw mean "
        f"{komlos.summary['mean_gw_linf']:.2f} >= {komlos.summary['signing_threshold']:.2f}; "
        f"max planted value {max(spencer.summary['max_planted_discG'], komlos.summary['max_planted_discG']):.1e}, {elapsed:.1f}s",
    )


def test_criterion_12_triangle_construction():
    """Gaussian balancing rows admit an exact rank-2 zero balancing."""
    t0 = time.perf_counter()
    n, rows = 300, 100
    gen = SEED.substream(1200).generator()
    feasible = 0
    worst_resid = 0.0
    worst_mean = 0.0
    for i in range(rows):
        a = gen.standard_normal(n)
        try:
            u = triangle_rank2(a, (100, 100, 100))
        except InfeasibleTriangleError:
            continue
        feasible += 1
        resid = float(np.linalg.norm(a @ u))
        worst_resid = max(worst_resid, resid)
        assert resid < 1e-8
        est = discG_mc(a[None, :], coupling_from_units(u), 1500, SEED.substream(1201).substream(i))
        worst_mean = max(worst_mean, est.mean)
        assert est.mean <= 1e-6
    assert feasible >= 99
    elapsed = time.perf_counter() - t0
    report(
        12,
        f"{feasible}/100 feasible, worst residual {worst_resid:.1e}, "
        f"worst objective {worst_mean:.1e}, {elapsed:.1f}s",
    )


def test_criterion_13_slice_sampler():
    """Both slice constraints hold to 1e-9 and the conditional law is
    uniform on the slice."""
    t0 = time.perf_counter()
    worst = 0.0
    for r in (2, 3, 8):
        gen = SEED.substream(1300 + r).generator()
        for _ in range(3334):
            t = gen.uniform(0.0, 3.0)
            s2 = gen.uniform((t - 1.0) ** 2, (t + 1.0) ** 2)
            d = gen.standard_normal(r)
            x = t * d / np.linalg.norm(d)
            u = slice_sample(x, math.sqrt(s2), gen)
            worst = max(
                worst,
                abs(float(np.linalg.norm(u)) - 1.0),
                abs(float(np.linalg.norm(x + u)) - math.sqrt(s2)),
            )
    assert worst <= 1e-9

    # uniformity around the axis at a fixed interior slice
    draws = 4000
    for r in (3, 8):
        gen = SEED.substream(1310 + r).generator()
        x = np.zeros(r)
        x[0] = 2.0
        basis = np.eye(r)[1:]
        angles = []
        for _ in range(draws):
            w = slice_sample(x, 2.0, gen)
            angles.append(math.atan2(float(w @ basis[1]), float(w @ basis[0])))
        res = ks_test(np.asarray(angles), lambda v: (np.asarray(v) + math.pi) / (2.0 * math.pi))
        assert res.p_value >= 0.01
        signs = np.asarray(angles) > 0.0
        assert abs(signs.mean() - 0.5) <= 3.0 * 0.5 / math.sqrt(draws)
    # r = 2: the slice has two points, each carrying half the mass
    gen = SEED.substream(1320).generator()
    x = np.array([2.0, 0.0])
    ys = np.array([slice_sample(x, 2.0, gen) for _ in range(draws)])
    up = ys[:, 1] > 0.0
    assert np.abs(np.abs(ys[:, 1]) - math.sqrt(1.0 - 1.0 / 16.0)).max() < 1e-9
    assert abs(up.mean() - 0.5) <= 3.0 * 0.5 / math.sqrt(draws)
    elapsed = time.perf_counter() - t0
    report(13, f"worst constraint dev {worst:.1e}; angular KS passed, {elapsed:.1f}s")

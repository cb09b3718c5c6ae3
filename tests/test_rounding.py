import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import ks_2samp

from discforge.errors import BadSizeError, NotPsdError
from discforge.rng import RngHandle
from discforge.rounding import (
    SETTINGS,
    gw_round,
    half_ones,
    komlos_rows,
    make_planted,
    pca_round,
    rounding_experiment,
    shift_orbit_index,
    spencer_rows,
)


def test_make_planted_invariants():
    inst = make_planted(20, 102, RngHandle(60).generator())
    assert abs(inst.c @ inst.s) < 1e-9
    assert abs(inst.c @ inst.c - inst.n / 2) < 1e-9
    assert abs(inst.s @ inst.s - inst.n / 2) < 1e-9
    assert np.abs(inst.a @ inst.c).max() < 1e-8
    assert np.abs(inst.a @ inst.s).max() < 1e-8
    assert np.abs(np.diag(inst.sigma) - 1.0).max() < 1e-10


def test_make_planted_shares_one_read_only_plane_per_n():
    n = 102
    first = make_planted(4, n, RngHandle(90).generator())
    again = make_planted(7, n, RngHandle(91).generator())
    angle = 2.0 * math.pi * np.arange(1, n + 1) / n
    assert first.c.tobytes() == np.cos(angle).tobytes()
    assert first.s.tobytes() == np.sin(angle).tobytes()
    outer = np.outer(first.c, first.c) + np.outer(first.s, first.s)
    assert first.sigma.tobytes() == outer.tobytes()
    for name in ("c", "s", "sigma"):
        assert getattr(again, name) is getattr(first, name)
        assert not getattr(first, name).flags.writeable
    with pytest.raises(ValueError):
        first.sigma[0, 0] = 0.0
    with pytest.raises(ValueError):
        first.c[0] = 0.0
    # another size gets its own plane, and the first size comes back intact
    other = make_planted(3, 22, RngHandle(92).generator())
    assert other.a.shape == (3, 22) and other.c.shape == other.s.shape == (22,)
    assert other.sigma.shape == (22, 22)
    back = make_planted(4, n, RngHandle(90).generator())
    assert back.sigma.tobytes() == outer.tobytes()
    assert np.array_equal(back.a, first.a)


def test_make_planted_rejects_bad_sizes():
    for n in (8, 100, 5, 3):
        with pytest.raises(BadSizeError):
            make_planted(4, n, RngHandle(0).generator())


def test_planted_column_norms_are_controlled():
    # entries have variance at most 1, so column norms hover near sqrt(m)
    m = 40
    inst = make_planted(m, 202, RngHandle(61).generator())
    norms = np.linalg.norm(inst.a, axis=0)
    assert norms.max() <= math.sqrt(m) + 3.0


def test_gw_round_rank_one_recovers_signing():
    sigma = np.array([1.0, -1.0, 1.0, 1.0, -1.0])
    gen = RngHandle(62).generator()
    for _ in range(20):
        out = gw_round(np.outer(sigma, sigma), gen)
        assert np.array_equal(out, sigma) or np.array_equal(out, -sigma)


def test_gw_round_identity_gives_fair_coins():
    gen = RngHandle(63).generator()
    n, draws = 8, 10_000
    outs = np.array([gw_round(np.eye(n), gen) for _ in range(draws)])
    se = 1.0 / math.sqrt(draws)
    assert np.abs(outs.mean(axis=0)).max() <= 3.0 * se


def test_gw_round_zero_covariance_rounds_up():
    assert np.array_equal(gw_round(np.zeros((4, 4)), RngHandle(0).generator()), np.ones(4))


@pytest.mark.parametrize("sigma", [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
], ids=["swap", "path"])
def test_gw_round_rejects_indefinite_behind_a_zero_pivot(sigma):
    with pytest.raises(NotPsdError):
        gw_round(sigma, RngHandle(1).generator())


def test_pca_round_rank_one_recovers_signing():
    sigma = np.array([1.0, 1.0, -1.0])
    out = pca_round(np.outer(sigma, sigma), np.ones(3))
    assert np.array_equal(out, sigma) or np.array_equal(out, -sigma)


def test_pca_round_identity_returns_signs():
    init = RngHandle(64).generator().standard_normal(5)
    out = pca_round(np.eye(5), init)
    assert np.all(np.abs(out) == 1.0)
    # a fully degenerate spectrum leaves the tie-break to the start vector
    assert np.array_equal(out, np.where(init >= 0.0, 1.0, -1.0))


def _orbit_index_by_roll(sigma, w):
    """Reference: try the left shifts of w in turn."""
    if np.shape(sigma) != np.shape(w):
        return None
    for k in range(len(w)):
        if np.array_equal(sigma, np.roll(w, -k)):
            return k
    return None


def test_shift_orbit_index():
    w = half_ones(6)
    assert shift_orbit_index(w, w) == 0
    assert shift_orbit_index(np.roll(w, -2), w) == 2
    assert shift_orbit_index(np.ones(6), w) is None
    alt = np.array([1.0, -1.0, 1.0, -1.0, 1.0, -1.0])
    w10 = half_ones(10)
    off_orbit = w10.copy()
    off_orbit[3] = -1.0
    cases = [(alt, alt), (-alt, alt), (np.ones(6), alt), (alt, w)]
    cases += [(np.roll(w10, -k), w10) for k in range(10)]
    cases += [(off_orbit, w10), (-np.ones(10), w10), (w10[:8], w10), (w10, w10[:8]),
              (w10.reshape(2, 5), w10)]
    for sigma, ref in cases:
        assert shift_orbit_index(sigma, ref) == _orbit_index_by_roll(sigma, ref)
    # the first hit is returned when w has several
    assert shift_orbit_index(alt, alt) == 0 and shift_orbit_index(-alt, alt) == 1
    assert [shift_orbit_index(np.roll(w10, -k), w10) for k in range(10)] == list(range(10))


def test_planted_rounding_lands_in_shift_orbit():
    n = 102
    inst = make_planted(10, n, RngHandle(65).generator())
    w = half_ones(n)
    gen = RngHandle(66).generator()
    for _ in range(25):
        assert shift_orbit_index(gw_round(inst.sigma, gen), w) is not None
    pca = pca_round(inst.sigma, init=inst.c + 1e-3 * inst.s)
    assert shift_orbit_index(pca, w) is not None
    # with the in-plane tie-break toward c, the output is exactly sgn(c)
    assert np.array_equal(pca, np.where(inst.c >= 0.0, 1.0, -1.0))


def test_balanced_sum_norm_is_shift_invariant():
    # the trig rows rotate under shifting, so the planted balanced sum has
    # the same Euclidean norm for every shift of the half-ones vector
    n = 102
    inst = make_planted(4, n, RngHandle(67).generator())
    u = np.column_stack([inst.c, inst.s])
    w = half_ones(n)
    ref = np.linalg.norm(w @ u)
    cur = w
    for _ in range(n):
        cur = np.roll(cur, -1)
        assert abs(np.linalg.norm(cur @ u) - ref) < 1e-9


def test_row_projections_same_law_across_shifts():
    n = 102
    gen = RngHandle(68).generator()
    inst = make_planted(4000, n, gen)
    w = half_ones(n)
    a = inst.a @ w
    b = inst.a @ np.roll(w, -1)
    res = ks_2samp(a, b)
    assert res.pvalue >= 0.01


def test_quadratic_form_limit():
    # w' (I - projections) w / n approaches 1 - 8/pi^2
    limit = 1.0 - 8.0 / math.pi**2
    for n, tol in ((102, 0.01), (502, 0.002), (2002, 0.0005)):
        j = np.arange(1, n + 1)
        c = np.cos(2.0 * math.pi * j / n)
        s = np.sin(2.0 * math.pi * j / n)
        w = half_ones(n)
        val = (w @ w - (2.0 / n) * ((c @ w) ** 2 + (s @ w) ** 2)) / n
        assert abs(val - limit) < tol


def test_row_counts():
    assert spencer_rows(502) == 80
    assert komlos_rows(502) == 62


def test_rounding_experiment_small():
    report = rounding_experiment("spencer", 102, trials=4, rng=RngHandle(69))
    assert report.spec["m"] == spencer_rows(102)
    assert report.verdicts["orbit_membership"]["passed"]
    assert report.verdicts["feasible_fraction"]["passed"]
    assert report.verdicts["planted_coupling_zero"]["passed"]
    assert len(report.metrics) == 4
    report = rounding_experiment("komlos", 102, trials=3, rng=RngHandle(70))
    assert report.spec["c_scale"] == 5.0
    assert report.verdicts["feasible_fraction"]["passed"]
    with pytest.raises(ValueError):
        rounding_experiment("other", 102, 1, RngHandle(0))
    with pytest.raises(BadSizeError):
        rounding_experiment("spencer", 100, 1, RngHandle(0))
    with pytest.raises(ValueError, match="trial count must be at least 1, got 0$"):
        rounding_experiment("spencer", 102, 0, RngHandle(0))


@pytest.mark.parametrize(("setting", "n", "trials"), [("komlos", 102, 4), ("spencer", 62, 3)])
def test_pca_signing_computed_once_matches_each_trial(setting, n, trials):
    # the experiment rounds the planted coupling by PCA once; each trial's
    # fields equal a signing built from that trial's own instance
    rng = RngHandle(93)
    report = rounding_experiment(setting, n, trials, rng)
    rules = SETTINGS[setting]
    for k, got in enumerate(report.metrics):
        inst = make_planted(rules.rows(n), n, rng.substream(k).generator())
        sig_pca = pca_round(inst.sigma, inst.c + 1e-3 * inst.s)
        a_scaled = rules.normalize(inst.a, n)
        assert got["pca_linf"] == float(np.abs(a_scaled @ sig_pca).max())
        assert got["pca_orbit"] == (shift_orbit_index(sig_pca, half_ones(n)) is not None)


def test_calibration_tool_runs(capsys):
    path = Path(__file__).resolve().parents[1] / "tools" / "calibrate_rounding.py"
    spec = importlib.util.spec_from_file_location("calibrate_rounding", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    tool.pilot("spencer", 22, 2, RngHandle(1))
    out = capsys.readouterr().out
    assert out.startswith("--- spencer n=22 ") and "gw: mean ratio" in out

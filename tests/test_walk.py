import math
import warnings

import numpy as np
import pytest

from discforge import linalg
from discforge.errors import (
    InconsistentStreamError,
    NormTooLargeError,
    NotPsdError,
    NotUnitError,
    RankTooSmallError,
)
from discforge import walk
from discforge.instances import unit_columns
from discforge.linalg import psd_cholesky
from discforge.rng import RngHandle
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


def test_config_validation():
    with pytest.raises(RankTooSmallError):
        WalkConfig(m=3, r=1, seed=RngHandle(0))
    with pytest.raises(ValueError):
        WalkConfig(m=0, r=2, seed=RngHandle(0))


def test_init_entry_variance():
    # r=2: entries are N(0, 0.25); estimate the variance over many runs
    total = []
    for k in range(20_000):
        state = walk_init(WalkConfig(m=2, r=2, seed=RngHandle(42).substream(k)))
        total.append(state.w)
    entries = np.array(total).ravel()
    assert abs(entries.var() - 0.25) / 0.25 < 0.02
    assert abs(entries.mean()) < 0.01


def test_init_deterministic():
    a = walk_init(WalkConfig(m=3, r=4, seed=RngHandle(7, 9)))
    b = walk_init(WalkConfig(m=3, r=4, seed=RngHandle(7, 9)))
    assert np.array_equal(a.w, b.w)


def test_step_zero_vector():
    state = walk_init(WalkConfig(m=3, r=2, seed=RngHandle(1)))
    w_before = state.w.copy()
    u, nxt = walk_step(state, np.zeros(3))
    assert np.array_equal(u, [1.0, 0.0])
    assert np.array_equal(nxt.w, w_before)
    assert nxt.t == 1


def test_step_advances_the_state_it_is_given():
    # one state object per run: w, t and the generator advance together, so
    # no older handle is left with a stale round index
    state = walk_init(WalkConfig(m=3, r=2, seed=RngHandle(1)))
    for t in range(1, 4):
        _, nxt = walk_step(state, np.array([0.6, 0.0, 0.8]))
        assert nxt is state
        assert state.t == t


def test_step_rejects_long_vectors():
    state = walk_init(WalkConfig(m=2, r=2, seed=RngHandle(1)))
    with pytest.raises(NormTooLargeError):
        walk_step(state, np.array([1.0, 0.1]))


@pytest.mark.parametrize("r", [2, 11, 4096])
def test_longest_admitted_vector_passes_the_kernel_variance_check(r):
    # ||v|| = 1 + NORM_SLACK hands the kernel sigma_star^2 / ||v||^2, about
    # 2e-12 below the floor, which the kernel's relative slack admits
    v = np.array([1.0 + walk.NORM_SLACK, 0.0, 0.0])
    config = WalkConfig(m=3, r=r, seed=RngHandle(1))
    u, _ = walk_step(walk_init(config), v)
    assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    run = walk_run(config, np.repeat(v[:, None], 3, axis=1))
    assert np.abs(np.linalg.norm(run.us, axis=1) - 1.0).max() <= 1e-12


def test_non_finite_input_is_rejected_before_the_kernel():
    config = WalkConfig(m=3, r=2, seed=RngHandle(1))
    for bad in (np.nan, np.inf):
        vs = np.full((3, 4), 0.5)
        vs[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            walk_run(config, vs)
        with pytest.raises(ValueError, match="non-finite"):
            walk_step(walk_init(config), vs[:, 2])
    # finite entries whose squared norm overflows are merely too long, and
    # make no overflow warning on the way
    with pytest.raises(NormTooLargeError):
        walk_run(config, np.full((3, 1), 1e200))
    with pytest.raises(NormTooLargeError):
        walk_step(walk_init(config), np.full(3, 1e200))


@pytest.mark.parametrize("bad", [3, walk.BLOCK_MIN + 2])
def test_first_bad_column_of_a_block_is_named_by_its_round(bad):
    # walk_run checks a whole block's columns before the block's first
    # round: a too-long column at round `bad` (in the first block, or the
    # second one, b = BLOCK_MIN at r <= 8) and a NaN column two rounds
    # later raise for the first of them, as walk_step driven in order does
    m, r = 5, 3
    config = WalkConfig(m=m, r=r, seed=RngHandle(27))
    vs = unit_columns(m, bad + 4, RngHandle(28))
    vs[:, bad] *= 1.5
    vs[0, bad + 2] = np.nan
    message = rf"^\|\|v_{bad}\|\| = 1\.5 exceeds 1$"
    with pytest.raises(NormTooLargeError, match=message):
        walk_run(config, vs)
    state = walk_init(config)
    with pytest.raises(NormTooLargeError, match=message):
        for t in range(vs.shape[1]):
            _, state = walk_step(state, vs[:, t])
    assert state.t == bad
    # the rounds before the bad column still run, and are bitwise those of
    # the same prefix followed by a valid column
    prefix = walk_run(config, vs[:, :bad])
    valid = walk_run(config, np.column_stack([vs[:, :bad], vs[:, bad] / 1.5]))
    assert np.array_equal(prefix.us, valid.us[:bad])
    assert np.array_equal(prefix.row_norms, valid.row_norms[:bad])


def test_outputs_are_unit_and_telescoping():
    m, r, big_t = 5, 3, 60
    config = WalkConfig(m=m, r=r, seed=RngHandle(3))
    vs = unit_columns(m, big_t, RngHandle(4))
    vs[:, 10] = 0.0  # zero column mid-stream
    vs[:, 20] *= 0.3  # shorter vector: kernel runs at larger variance
    # tiny vectors: the projected state W^T v / ||v||^2 grows like 1/||v||
    vs[:, 30] *= 1e-12
    vs[:, 40] *= 1e-50
    vs[:, 50] *= 1e-150
    state = walk_init(config)
    w0 = state.w.copy()
    us = []
    for t in range(big_t):
        u, state = walk_step(state, vs[:, t])
        us.append(u)
    us = np.array(us)
    assert np.abs(np.linalg.norm(us, axis=1) - 1.0).max() <= 1e-12
    assert np.abs((w0 + vs @ us) - state.w).max() < 1e-7
    run = walk_run(config, vs)
    assert np.abs(np.linalg.norm(run.us, axis=1) - 1.0).max() <= 1e-12
    # below ||v|| = 1e-155 the squared norm of W^T v / ||v||^2 would
    # overflow; the kernel measures the norm without squaring and still
    # steps by a unit
    tiny = (1e-155, 1e-158, 1e-160, 1e-161)
    for k, scale in enumerate(tiny):
        u, state = walk_step(state, scale * vs[:, k])
        assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
    run = walk_run(config, vs[:, : len(tiny)] * np.array(tiny))
    assert np.abs(np.linalg.norm(run.us, axis=1) - 1.0).max() <= 1e-12


def test_tiny_vectors_raise_no_warning():
    # at these norms the projected state is beyond 1e150; measuring it must
    # not overflow, so no RuntimeWarning reaches the caller
    tiny = np.array([1e-155, 1e-158, 1e-161])
    config = WalkConfig(m=16, r=11, seed=RngHandle(18))
    vs = unit_columns(16, len(tiny), RngHandle(19)) * tiny
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        state = walk_init(config)
        for t in range(len(tiny)):
            u, state = walk_step(state, vs[:, t])
            assert abs(np.linalg.norm(u) - 1.0) <= 1e-12
        run = walk_run(config, vs)
    assert np.abs(np.linalg.norm(run.us, axis=1) - 1.0).max() <= 1e-12


def test_walk_run_matches_stepwise_composition():
    m, r, big_t = 6, 3, 25
    vs = unit_columns(m, big_t, RngHandle(16))
    vs[:, 7] = 0.0
    run = walk_run(WalkConfig(m=m, r=r, seed=RngHandle(17)), vs)
    state = walk_init(WalkConfig(m=m, r=r, seed=RngHandle(17)))
    w0 = state.w.copy()
    for t in range(big_t):
        u, state = walk_step(state, vs[:, t])
        # same draws; the blocked run sums in another order
        assert np.abs(u - run.us[t]).max() < 1e-12
        norm_t = np.linalg.norm(state.w - w0, axis=1).max()
        assert abs(norm_t - run.row_norms[t]) < 1e-12


def test_online_prefix_replay():
    # round t's outputs depend on no later column, to the bit, including
    # prefixes that end inside walk_run's blocks
    m, r, big_t = 4, 2, 30
    vs = unit_columns(m, big_t, RngHandle(5))
    full = walk_run(WalkConfig(m=m, r=r, seed=RngHandle(6)), vs)
    prefix = walk_run(WalkConfig(m=m, r=r, seed=RngHandle(6)), vs[:, :12])
    assert np.array_equal(full.us[:12], prefix.us)
    for m, big_t, r in ((64, 100, 16), (300, 150, 40), (1000, 140, 64)):
        config = WalkConfig(m=m, r=r, seed=RngHandle(6))
        vs = unit_columns(m, big_t, RngHandle(5))
        full = walk_run(config, vs)
        for t in range(1, big_t):
            prefix = walk_run(config, vs[:, :t])
            assert np.array_equal(full.us[:t], prefix.us)
            assert np.array_equal(full.row_norms[:t], prefix.row_norms)


def test_walk_run_row_slices_agree_with_one_product(monkeypatch):
    # rows of 8 at m = 41: four slices and a last one that takes the
    # remainder of one row; the outputs agree with the one-slice run to
    # rounding and a prefix still replays to the bit
    m, r, big_t = 41, 3, 30
    config = WalkConfig(m=m, r=r, seed=RngHandle(23))
    vs = unit_columns(m, big_t, RngHandle(24))
    whole = walk_run(config, vs)
    monkeypatch.setattr(walk, "SLICE_BYTES", 8 * 8 * r)
    sliced = walk_run(config, vs)
    assert np.abs(sliced.us - whole.us).max() < 1e-12
    assert np.abs(sliced.row_norms - whole.row_norms).max() < 1e-12
    for t in (5, 17):
        prefix = walk_run(config, vs[:, :t])
        assert np.array_equal(sliced.us[:t], prefix.us)
        assert np.array_equal(sliced.row_norms[:t], prefix.row_norms)


def test_walk_run_holds_no_m_by_r_product_buffer(traced_peak):
    # the run buffer (W, V and Delta side by side, m (2r + b) floats) and
    # the m x (b + 1) norm tail are the only arrays of m rows: W_0 is drawn
    # into the buffer and the block's V U formed, both in row slices of
    # SLICE_BYTES. At r >> b an m x r copy of W_0 or of V U would show
    m, r, big_t = 4096, 256, 16
    b = min(max(r, walk.BLOCK_MIN), walk.BLOCK_MAX)
    vs = unit_columns(m, big_t, RngHandle(25))
    peak = traced_peak(lambda: walk_run(WalkConfig(m=m, r=r, seed=RngHandle(26)), vs))
    assert peak <= 8 * m * (2 * r + b) + 8 * m * (b + 1) + 2 * walk.SLICE_BYTES


def test_row_norms_do_not_drift_on_long_streams():
    m, r, big_t = 50, 8, 5000
    vs = unit_columns(m, big_t, RngHandle(19))
    run = walk_run(WalkConfig(m=m, r=r, seed=RngHandle(20)), vs)
    signed = np.zeros((m, r))
    for t in range(big_t):
        signed += np.outer(vs[:, t], run.us[t])
        exact = np.linalg.norm(signed, axis=1).max()
        assert abs(run.row_norms[t] - exact) <= 1e-12 * exact


def test_row_norms_resync_every_few_blocks(monkeypatch):
    # the incremental squared row norms drift too slowly for any test stream
    # to tell a run without the exact recomputation from Delta, so watch the
    # recomputation itself: once per RESYNC_BLOCKS blocks, on the signed sum
    # of every round so far
    m, r, blocks = 20, 8, 10
    b = walk.BLOCK_MIN  # the block width at r <= BLOCK_MIN
    vs = unit_columns(m, blocks * b - 3, RngHandle(21))
    seen = []
    einsum = np.einsum

    def spy(subscripts, *operands, **kwargs):
        seen.append(operands[0].copy())
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    run = walk_run(WalkConfig(m=m, r=r, seed=RngHandle(22)), vs)
    monkeypatch.undo()
    assert len(seen) == blocks // walk.RESYNC_BLOCKS
    for k, delta in enumerate(seen, start=1):
        end = k * walk.RESYNC_BLOCKS * b
        assert np.abs(delta - vs[:, :end] @ run.us[:end]).max() <= 1e-12


def test_walk_run_empty_stream():
    run = walk_run(WalkConfig(m=4, r=2, seed=RngHandle(0)), np.zeros((4, 0)))
    assert run.us.shape == (0, 2)
    assert run.row_norms.shape == (0,)


def test_walk_run_identity_stream_rows():
    m = 8
    run = walk_run(WalkConfig(m=m, r=4, seed=RngHandle(9)), np.eye(m))
    # each coordinate receives exactly one unit vector
    assert np.abs(run.row_norms - 1.0).max() < 1e-9
    assert np.abs(run.running_max - 1.0).max() < 1e-9


def test_walk_accumulator_stays_gaussian_small():
    # reduced marginal check; the acceptance suite runs the full one
    m, r, big_t, runs = 2, 2, 40, 600
    vs = unit_columns(m, big_t, RngHandle(11))
    finals = []
    for k in range(runs):
        config = WalkConfig(m=m, r=r, seed=RngHandle(12).substream(k))
        state = walk_init(config)
        for t in range(big_t):
            _, state = walk_step(state, vs[:, t])
        finals.append(state.w.ravel())
    finals = np.array(finals)
    sd = 0.5  # sigma_star(2)
    assert np.abs(finals.mean(axis=0)).max() < 4.0 * sd / math.sqrt(runs)
    assert np.abs(finals.var(axis=0, ddof=1) - 0.25).max() < 0.06


def test_single_row_ambient_dimension():
    # m=1 with v=[1]: the projected coordinate is the whole accumulator,
    # and its law is preserved round over round
    big_t, runs = 30, 800
    vs = np.ones((1, big_t))
    finals = []
    for k in range(runs):
        run_k = walk_run(WalkConfig(m=1, r=2, seed=RngHandle(18).substream(k)), vs)
        state = walk_init(WalkConfig(m=1, r=2, seed=RngHandle(18).substream(k)))
        for t in range(big_t):
            _, state = walk_step(state, vs[:, t])
        finals.append(state.w[0])
        assert np.abs(np.linalg.norm(run_k.us, axis=1) - 1.0).max() <= 1e-9
    finals = np.array(finals)
    assert np.abs(finals.var(axis=0, ddof=1) - 0.25).max() < 0.08
    assert np.abs(finals.mean(axis=0)).max() < 0.07


def test_gram_of_stream_examples():
    grams = gram_of_stream(np.eye(3))
    assert all(np.array_equal(g, np.eye(t + 1)) for t, g in enumerate(grams))
    grams = gram_of_stream(np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert np.array_equal(grams[1], np.ones((2, 2)))
    with pytest.raises(NotUnitError):
        gram_of_stream(np.array([[0.5, 0.0]]))


def test_gram_of_stream_random_is_psd_with_unit_diag():
    gen = RngHandle(13).generator()
    us = gen.standard_normal((6, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    grams = gram_of_stream(us)
    last = grams[-1]
    assert np.array_equal(np.diag(last), np.ones(6))
    assert np.linalg.eigvalsh(last).min() > -1e-10


def test_stream_of_grams_identity_and_ones():
    sigmas = [np.eye(t) for t in range(1, 5)]
    us = stream_of_grams(sigmas)
    assert np.array_equal(us, np.eye(4))
    sigmas = [np.eye(1), np.ones((2, 2))]
    us = stream_of_grams(sigmas)
    assert np.array_equal(us[0], [1.0, 0.0])
    assert np.array_equal(us[1], [1.0, 0.0])


def test_stream_of_grams_round_trip_mixed_rank():
    gen = RngHandle(14).generator()
    rows = []
    for t in range(12):
        if t >= 2 and t % 3 == 0:
            rows.append(rows[t - 2])  # repeat: forces rank deficiency
        else:
            v = gen.standard_normal(4)
            rows.append(v / np.linalg.norm(v))
    us_in = np.array(rows)
    sigmas = gram_of_stream(us_in)
    us_out = stream_of_grams(sigmas)
    for t in range(12):
        # support on the first t coordinates
        assert np.all(us_out[t, t + 1 :] == 0.0)
        assert abs(np.linalg.norm(us_out[t]) - 1.0) < 1e-8
    recon = us_out @ us_out.T
    target = sigmas[-1]
    assert np.abs(recon - target).max() < 1e-8


def test_stream_of_grams_rows_match_psd_cholesky():
    # each prefix's factor is the leading block of the whole stream's factor
    gen = RngHandle(15).generator()
    us_in = gen.standard_normal((10, 4))
    us_in[[2, 7]] = us_in[[1, 0]]  # a repeat before full rank: zero pivot mid-factor
    us_in /= np.linalg.norm(us_in, axis=1, keepdims=True)
    sigmas = gram_of_stream(us_in)
    us_out = stream_of_grams(sigmas)
    for t, sig in enumerate(sigmas):
        assert np.abs(us_out[t, : t + 1] - psd_cholesky(sig)[t]).max() < 1e-9


def test_stream_of_grams_rejects_inconsistent():
    sigmas = [np.eye(1), np.eye(2), np.eye(3)]
    sigmas[2] = sigmas[2].copy()
    sigmas[2][0, 1] = sigmas[2][1, 0] = 0.5  # changes a committed correlation
    with pytest.raises(InconsistentStreamError):
        stream_of_grams(sigmas)


@pytest.mark.parametrize(
    "third, message",
    [
        ([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]], "at column 2"),
        # two zero pivots with a residual of 1e-4 between them
        ([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0001], [1.0, 1.0001, 1.0]], r"residual entry \(2, 1\)"),
    ],
    ids=["negative-pivot", "coupled-zero-pivots"],
)
def test_stream_of_grams_rejects_an_indefinite_prefix(third, message):
    # nested and unit-diagonal, but the third matrix of four has a negative
    # eigenvalue (-0.8, and -1e-4)
    s = np.eye(4)
    s[:3, :3] = third
    with pytest.raises(NotPsdError, match=message):
        stream_of_grams([s[:t, :t] for t in range(1, 5)])


def test_stream_of_grams_factors_once(monkeypatch):
    # one psd_cholesky of the assembled matrix decides every prefix
    calls = []

    def counted(s):
        calls.append(s.shape)
        return psd_cholesky(s)

    monkeypatch.setattr(walk, "psd_cholesky", counted)
    monkeypatch.setattr(linalg, "psd_cholesky", counted)
    us = RngHandle(16).generator().standard_normal((12, 3))
    us /= np.linalg.norm(us, axis=1, keepdims=True)
    stream_of_grams(gram_of_stream(us))
    assert calls == [(12, 12)]


def test_rank_rules():
    assert komlos_rank(10, 500, 0.05, 0.5) == 392
    assert komlos_rank(2, 2, 0.5, 2.0) == max(1 + math.ceil(2.0 * math.log(16.0)), 1)
    assert banaszczyk_rank(16, 128, 0.05) == math.ceil(math.log(16 * 128 / 0.05))
    assert banaszczyk_rank(1, 1, 0.9) == 2

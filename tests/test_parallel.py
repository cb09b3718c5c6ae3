from discforge.parallel import map_trials, thread_count
from discforge.rng import RngHandle
from discforge.rounding import rounding_experiment


def test_thread_count_env(monkeypatch):
    monkeypatch.delenv("DISCFORGE_THREADS", raising=False)
    assert thread_count() == 1
    monkeypatch.setenv("DISCFORGE_THREADS", "4")
    assert thread_count() == 4
    monkeypatch.setenv("DISCFORGE_THREADS", "junk")
    assert thread_count() == 1
    monkeypatch.setenv("DISCFORGE_THREADS", "-2")
    assert thread_count() == 1


def test_map_trials_preserves_order(monkeypatch):
    monkeypatch.setenv("DISCFORGE_THREADS", "3")
    out = map_trials(lambda k: k * k, list(range(20)))
    assert out == [k * k for k in range(20)]


def test_results_independent_of_thread_schedule(monkeypatch):
    # trials carry their own substreams, so the report is identical
    # whether it ran sequentially or on a pool
    monkeypatch.setenv("DISCFORGE_THREADS", "1")
    seq = rounding_experiment("spencer", 102, trials=4, rng=RngHandle(99))
    monkeypatch.setenv("DISCFORGE_THREADS", "4")
    par = rounding_experiment("spencer", 102, trials=4, rng=RngHandle(99))
    for field in ("spec", "seed", "metrics", "summary", "verdicts"):
        assert getattr(seq, field) == getattr(par, field)


def test_mc_blocks_independent_of_thread_schedule(monkeypatch):
    import numpy as np

    from discforge.evals import discG_mc

    a = RngHandle(100).generator().standard_normal((3, 6))
    monkeypatch.setenv("DISCFORGE_THREADS", "1")
    seq = discG_mc(a, np.eye(6), 30_000, RngHandle(101))
    monkeypatch.setenv("DISCFORGE_THREADS", "4")
    par = discG_mc(a, np.eye(6), 30_000, RngHandle(101))
    assert seq.mean == par.mean
    assert seq.std_error == par.std_error


def test_map_trials_sequential_fallback(monkeypatch):
    monkeypatch.delenv("DISCFORGE_THREADS", raising=False)
    calls = []
    out = map_trials(lambda k: calls.append(k) or -k, [3, 1, 2])
    assert out == [-3, -1, -2]
    assert calls == [3, 1, 2]
    assert map_trials(lambda k: k, []) == []

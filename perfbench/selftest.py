"""The benchmark's own checks, at tiny shapes; they take seconds.

    python3 perfbench/run.py --self-test
"""
from __future__ import annotations

import traceback
from pathlib import Path

import numpy as np

import run
from discforge.linalg import write_matrix
from layers import ALL, PER_LAYER, WALK, Trace, layer_metrics
from tracing import Span, self_times
from workloads import FULL, TINY, WalkDense, load_matrix

SECONDS = 0.5
SEED = 3
SETUP_REPEATS = 2  # one import-only interpreter and the peak-RSS call


def test_every_named_metric_is_implemented() -> None:
    assert set(run.WORKLOADS) == set(FULL) == set(TINY)
    assert set(run.PER_LAYER_UNITS) == set(PER_LAYER)


def test_every_metric_printed_with_unit() -> None:
    for wl in TINY.values():
        out = run.run_workload(wl, SEED, SECONDS, False, SETUP_REPEATS)
        assert out.result["failed"] == 0, out.details["failures"]
        metrics = out.result["metrics"]
        assert {k: v["unit"] for k, v in metrics.items()} == run.END_TO_END
        for name, m in metrics.items():
            assert any(line.startswith(f"{name} ") and f" {m['unit']}" in line
                       for line in out.lines), (wl.name, name)
        assert any(line.startswith("failed_ratio 0 ") for line in out.lines), out.lines


class CorruptedWalk(WalkDense):
    """Tiny walk whose stream gets one non-unit row before the check."""

    def check(self, inputs, work: Path, rc: int, stdout: str) -> list[str]:
        path = work / "walk_out" / "stream.mat"
        us = load_matrix(path)
        us[0] *= 1.0 + 1e-6
        write_matrix(path, us)
        return super().check(inputs, work, rc, stdout)


def test_non_unit_row_counts_as_failed() -> None:
    tiny = TINY[WALK]
    wl = CorruptedWalk(m=tiny.m, t=tiny.t, rank=tiny.rank)
    out = run.run_workload(wl, SEED, SECONDS, False, SETUP_REPEATS)
    res = out.result
    assert res["attempted"] >= 1 and res["failed"] == res["attempted"], res
    assert res["correct"] is False
    assert "unit sphere" in out.details["failures"][0]["problems"][0]
    assert any(line.startswith("failed_ratio 1 ") for line in out.lines), out.lines


def test_call_that_writes_nothing_fails() -> None:
    """Calls that exit 0 without writing must not pass on an earlier call's files."""
    real, calls = run.call_cli, []

    def warm_up_then_nothing(argv: list[str]):
        calls.append(argv)
        return real(argv) if len(calls) == 1 else (1e-3, 0, "", "")

    run.call_cli = warm_up_then_nothing
    try:
        out = run.run_workload(TINY[WALK], SEED, 0.05, False, SETUP_REPEATS)
    finally:
        run.call_cli = real
    res = out.result
    # The fresh-interpreter call and the warm-up wrote outputs; no timed call did.
    assert res["attempted"] >= 2 and res["failed"] == res["attempted"] - 1, res
    assert "unreadable output" in out.details["failures"][0]["problems"][0]


def test_traced_run_lists_every_expected_layer() -> None:
    for wl in TINY.values():
        out = run.run_workload(wl, SEED, SECONDS, True, SETUP_REPEATS)
        assert out.details["missing_layers"] == [], (wl.name, out.details["missing_layers"])
        assert list(out.result["metrics"]) == list(run.PER_LAYER_UNITS), wl.name
        values = {k: v["value"] for k, v in out.result["metrics"].items()}
        for name, m in PER_LAYER.items():
            if wl.name in m.expected:
                assert values[name] > 0, (wl.name, name)
        if wl.name == "rounding-spencer":
            assert values["linalg.psd_cholesky.calls_per_trial"] == 2.0, values


def test_missing_layer_is_reported_not_zero() -> None:
    for workload in ALL:
        values, missing = layer_metrics(Trace([], ["call-0"], ["setup-0"], 1), workload)
        expected = {name for name, m in PER_LAYER.items()
                    if workload in m.expected and m.stat is not None}
        assert set(missing) == expected, workload
        assert not expected & set(values), workload
        assert all(v == 0.0 for v in values.values()), workload


def test_self_time_subtracts_covered_children() -> None:
    spans = [
        Span("u", 0, None, "cli.main", 0.0, 10.0),
        Span("u", 1, 0, "linalg.read_matrix", 1.0, 3.0),
        Span("u", 2, 0, "walk.walk_run", 4.0, 9.0),
        Span("u", 3, 2, "kernel.kernel_step", 5.0, 6.0),
    ]
    st = self_times(spans)
    assert np.allclose([st[0], st[1], st[2], st[3]], [3.0, 2.0, 4.0, 1.0]), st


TESTS = [
    test_every_named_metric_is_implemented,
    test_self_time_subtracts_covered_children,
    test_missing_layer_is_reported_not_zero,
    test_every_metric_printed_with_unit,
    test_non_unit_row_counts_as_failed,
    test_call_that_writes_nothing_fails,
    test_traced_run_lists_every_expected_layer,
]


def main() -> int:
    failed = 0
    for test in TESTS:
        try:
            test()
        except Exception:  # report every test, then fail the run
            failed += 1
            print(f"FAIL {test.__name__}\n{traceback.format_exc()}")
        else:
            print(f"ok   {test.__name__}")
    print(f"{len(TESTS) - failed} passed, {failed} failed")
    return 1 if failed else 0

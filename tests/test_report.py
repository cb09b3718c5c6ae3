from discforge.report import ExperimentReport, verdict
from discforge.rng import RngHandle
from discforge.rounding import rounding_experiment


def make_report():
    return ExperimentReport(
        name="demo",
        spec={"n": 4, "flag": True},
        seed={"seed": 1, "stream": 0},
        metrics=[{"trial": 0, "value": 0.125}, {"trial": 1, "value": 2.5}],
        summary={"mean": 1.3125},
        verdicts={"bound": {"value": 2.5, "threshold": 3.0, "op": "<=", "passed": True}},
        timings={"total_seconds": 0.01},
    )


def test_verdict_computes_passed_from_op():
    assert verdict(2.5, 3.0, "<=") == {"value": 2.5, "threshold": 3.0, "op": "<=", "passed": True}
    assert not verdict(0.9, 0.95, ">=")["passed"]
    assert verdict(True, True, "==")["passed"]
    assert not verdict(float("nan"), 1.0, "<=")["passed"]


def test_passed_reflects_verdicts():
    report = make_report()
    assert report.passed
    report.verdicts["bound"]["passed"] = False
    assert not report.passed


def test_experiment_reproducible_from_seed():
    a = rounding_experiment("spencer", 102, trials=2, rng=RngHandle(7))
    b = rounding_experiment("spencer", 102, trials=2, rng=RngHandle(7))
    # everything the report holds except its wall-clock timings
    for field in ("spec", "seed", "metrics", "summary", "verdicts"):
        assert getattr(a, field) == getattr(b, field)


def test_files_written(tmp_path):
    report = make_report()
    path = report.save(tmp_path)
    assert path.name == "demo.json"
    lines = (tmp_path / "demo.metrics.jsonl").read_text().splitlines()
    assert len(lines) == 2

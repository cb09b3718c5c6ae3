"""Structured experiment reports.

A report carries the full input spec, the seed, raw per-trial or per-round
metrics, summary statistics, and pass/fail verdicts with their thresholds.
Serialization is a single JSON summary plus a line-delimited JSON file of
raw metrics; loading either way round-trips losslessly, and verdicts can
be recomputed from the stored metrics because thresholds are stored next
to the values they gate.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1

__all__ = ["ExperimentReport", "SCHEMA_VERSION", "check_trials", "verdict"]

_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def verdict(value, threshold, op: str) -> dict:
    """A verdict entry: the value, the threshold it is gated by, and
    whether ``value op threshold`` holds."""
    passed = bool(_OPS[op](value, threshold))
    return {"value": value, "threshold": threshold, "op": op, "passed": passed}


def check_trials(trials: int) -> None:
    """Reject an experiment trial count below 1."""
    if trials < 1:
        raise ValueError(f"trial count must be at least 1, got {trials}")


@dataclass
class ExperimentReport:
    name: str
    spec: dict
    seed: dict
    metrics: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    schema: int = SCHEMA_VERSION

    @property
    def passed(self) -> bool:
        return all(v.get("passed", False) for v in self.verdicts.values())

    def to_summary_dict(self) -> dict:
        return {
            "schema": self.schema,
            "experiment": self.name,
            "spec": self.spec,
            "seed": self.seed,
            "summary": self.summary,
            "verdicts": self.verdicts,
            "timings": self.timings,
        }

    def save(self, out_dir: str | Path, stem: str | None = None) -> Path:
        """Write {stem}.json and {stem}.metrics.jsonl under out_dir."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        stem = stem or self.name
        summary_path = out_dir / f"{stem}.json"
        summary_path.write_text(
            json.dumps(self.to_summary_dict(), indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        lines = [json.dumps(m, sort_keys=True) for m in self.metrics]
        (out_dir / f"{stem}.metrics.jsonl").write_text(
            "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
        )
        return summary_path

    @classmethod
    def load(cls, out_dir: str | Path, stem: str) -> "ExperimentReport":
        out_dir = Path(out_dir)
        data = json.loads((out_dir / f"{stem}.json").read_text(encoding="utf-8"))
        metrics_path = out_dir / f"{stem}.metrics.jsonl"
        metrics = []
        if metrics_path.exists():
            for line in metrics_path.read_text(encoding="utf-8").splitlines():
                if line.strip():
                    metrics.append(json.loads(line))
        return cls(
            name=data["experiment"],
            spec=data["spec"],
            seed=data["seed"],
            metrics=metrics,
            summary=data["summary"],
            verdicts=data["verdicts"],
            timings=data.get("timings", {}),
            schema=data["schema"],
        )

    def reproducible_view(self) -> dict:
        """Everything except wall-clock timings, for equality checks."""
        view = self.to_summary_dict()
        view.pop("timings")
        view["metrics"] = self.metrics
        return view

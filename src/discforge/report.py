"""Structured experiment reports and the verdicts that gate them.

A report carries the full input spec, the seed, raw per-trial or per-round
metrics, summary statistics, and pass/fail verdicts with their thresholds.
``verdict`` is the one place a measured number becomes pass or fail: the
statistical tests and experiments return numbers, and each gate is a
verdict entry that stores its threshold next to the value it gates, so
verdicts can be recomputed from the stored metrics. Serialization is a
single JSON summary plus a line-delimited JSON file of raw metrics, and
``write_json`` and ``write_jsonl`` are the only writers of either form.
"""
from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 2

__all__ = [
    "ExperimentReport",
    "PASS_FRACTION",
    "SCHEMA_VERSION",
    "check_trials",
    "strict_json",
    "verdict",
    "write_json",
    "write_jsonl",
]

# Share of an experiment's trials that must meet their bound for the
# experiment's fraction verdicts to pass.
PASS_FRACTION = 0.95

_OPS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def strict_json(obj, **layout) -> str:
    """json.dumps with the given layout that refuses nan and inf, which
    have no JSON form (ValueError)."""
    return json.dumps(obj, allow_nan=False, **layout)


def write_json(path: str | Path, obj) -> None:
    """Write obj as strict JSON, keys sorted, indented by two spaces and
    ending in a newline."""
    Path(path).write_text(strict_json(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_jsonl(path: str | Path, rows) -> None:
    """Write one strict, key-sorted JSON object per line."""
    Path(path).write_text(
        "".join(strict_json(row, sort_keys=True) + "\n" for row in rows), encoding="utf-8"
    )


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
    seed: dict | None
    metrics: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(v.get("passed", False) for v in self.verdicts.values())

    def to_summary_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "experiment": self.name,
            "spec": self.spec,
            "seed": self.seed,
            "summary": self.summary,
            "verdicts": self.verdicts,
            "timings": self.timings,
        }

    def save(self, out_dir: str | Path) -> Path:
        """Write {name}.json and {name}.metrics.jsonl under out_dir."""
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        summary_path = out_dir / f"{self.name}.json"
        write_json(summary_path, self.to_summary_dict())
        write_jsonl(out_dir / f"{self.name}.metrics.jsonl", self.metrics)
        return summary_path

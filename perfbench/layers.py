"""Per-layer metrics computed from the spans of a traced run.

Each metric names the layer it reads and the workloads expected to
exercise that layer. On a workload that does not exercise a layer the
metric reads 0. When an
expected layer has no span at all, the metric is reported missing and
left out of the result, so a refactor that renames or bypasses a layer
cannot read as a layer that became free.

Conventions:
- ``.s`` is the layer's inclusive time per CLI call, as the median over
  the traced calls. A layer the workload calls only while setting up
  (``instances.unit_columns`` on walk-dense) reads its time per set-up.
- Rates (``mb_per_s``, ``samples_per_s``, ``kernel_step.us``) pool every
  span of the layer in the run: total work over total time.
- Self time is a span's duration minus the part its child spans cover.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from statistics import median
from typing import Callable

from tracing import Span, self_times

WALK = "walk-dense"
BANASZCZYK = "banaszczyk-small"
ROUNDING = "rounding-spencer"
ALL = frozenset({WALK, BANASZCZYK, ROUNDING})

TRACED_MODULES = ("linalg", "walk", "kernel", "evals", "rounding", "instances", "cli")


def _file_mb(bound) -> dict:
    return {"mb": os.path.getsize(bound.arguments["path"]) / 1e6}


def _walk_work(bound) -> dict:
    config, vs = bound.arguments["config"], bound.arguments["vs"]
    rounds = len(vs[0])
    return {"rounds": rounds, "entry_updates": config.m * config.r * rounds}


def _samples(bound) -> dict:
    return {"samples": bound.arguments["samples"]}


ANNOTATORS = {
    "linalg.read_matrix": _file_mb,
    "linalg.write_matrix": _file_mb,
    "walk.walk_run": _walk_work,
    "evals.online_discG": _samples,
    "evals.discG_mc": _samples,
}


class Trace:
    """Spans of one traced run, grouped for the metric functions."""

    def __init__(self, spans: list[Span], call_units: list[str], setup_units: list[str],
                 trials_per_call: int):
        self.spans = spans
        self.self_s = self_times(spans)
        self.call_units = call_units
        self.setup_units = setup_units
        self.trials_per_call = trials_per_call

    def of(self, layer: str) -> list[Span]:
        if "." in layer:
            return [s for s in self.spans if s.layer == layer]
        return [s for s in self.spans if s.layer.startswith(layer + ".")]

    def per_unit(self, spans: list[Span], value: Callable[[Span], float]) -> float | None:
        """Median over units of the summed value; call units when the layer
        runs inside CLI calls, set-up units otherwise."""
        if not spans:
            return None
        in_calls = {s.unit for s in spans} & set(self.call_units)
        units = self.call_units if in_calls else self.setup_units
        totals = {u: 0.0 for u in units}
        for s in spans:
            if s.unit in totals:
                totals[s.unit] += value(s)
        return median(totals.values())


Stat = Callable[[Trace, list[Span]], "float | None"]


def inclusive_s(tr: Trace, spans: list[Span]) -> float | None:
    return tr.per_unit(spans, lambda s: s.duration)


def self_s(tr: Trace, spans: list[Span]) -> float | None:
    return tr.per_unit(spans, lambda s: tr.self_s[s.span_id])


def calls(tr: Trace, spans: list[Span]) -> float | None:
    return tr.per_unit(spans, lambda s: 1.0)


def mean_us(tr: Trace, spans: list[Span]) -> float | None:
    if not spans:
        return None
    return 1e6 * sum(s.duration for s in spans) / len(spans)


def work_rate(key: str) -> Stat:
    """Total work[key] over total inclusive time."""
    def stat(tr: Trace, spans: list[Span]) -> float | None:
        done = [s for s in spans if s.work and key in s.work]
        if not done:
            return None
        return sum(s.work[key] for s in done) / sum(s.duration for s in done)
    return stat


def self_rate(key: str) -> Stat:
    """Total work[key] over total self time."""
    def stat(tr: Trace, spans: list[Span]) -> float | None:
        done = [s for s in spans if s.work and key in s.work]
        if not done:
            return None
        return sum(s.work[key] for s in done) / sum(tr.self_s[s.span_id] for s in done)
    return stat


def round_self_us(tr: Trace, spans: list[Span]) -> float | None:
    rate = self_rate("rounds")(tr, spans)
    return None if rate is None else 1e6 / rate


def per_trial(tr: Trace, spans: list[Span]) -> float | None:
    n = calls(tr, spans)
    return None if n is None else n / tr.trials_per_call


def share_of(layer: str) -> Stat:
    """Calls of this layer per call of another."""
    def stat(tr: Trace, spans: list[Span]) -> float | None:
        base = tr.of(layer)
        if not spans or not base:
            return None
        return len(spans) / len(base)
    return stat


@dataclass(frozen=True)
class LayerMetric:
    layer: str
    expected: frozenset[str]
    stat: Stat | None


def _m(layer: str, expected: set[str], stat: Stat | None) -> LayerMetric:
    return LayerMetric(layer, frozenset(expected), stat)


OVERHEAD = "trace.overhead_ratio"

# Metric name -> the layer it reads, the workloads expected to run that
# layer and how the value is computed. Units, and which way is better,
# are in BENCHMARK.json; perfbench/README.md maps each metric to the
# end-to-end metric it should move.
PER_LAYER = {
    "linalg.read_matrix.s": _m("linalg.read_matrix", {WALK}, inclusive_s),
    "linalg.read_matrix.mb_per_s": _m("linalg.read_matrix", {WALK}, work_rate("mb")),
    "linalg.write_matrix.s": _m("linalg.write_matrix", {WALK}, inclusive_s),
    "linalg.write_matrix.mb_per_s": _m("linalg.write_matrix", {WALK}, work_rate("mb")),
    "walk.walk_run.s": _m("walk.walk_run", {WALK, BANASZCZYK}, inclusive_s),
    "walk.walk_run.self_s": _m("walk.walk_run", {WALK, BANASZCZYK}, self_s),
    "walk.round_self_us": _m("walk.walk_run", {WALK, BANASZCZYK}, round_self_us),
    # computed: m * r * rounds over the walk's self time
    "walk.entry_updates_per_s": _m("walk.walk_run", {WALK, BANASZCZYK},
                                   self_rate("entry_updates")),
    "kernel.kernel_step.calls": _m("kernel.kernel_step", {WALK, BANASZCZYK}, calls),
    "kernel.kernel_step.us": _m("kernel.kernel_step", {WALK, BANASZCZYK}, mean_us),
    "kernel.slice_sample.calls": _m("kernel.slice_sample", {WALK, BANASZCZYK}, calls),
    "kernel.slide_ratio": _m("kernel.slice_sample", {WALK, BANASZCZYK},
                             share_of("kernel.kernel_step")),
    "evals.online_discG.s": _m("evals.online_discG", {BANASZCZYK}, inclusive_s),
    "evals.online_discG.samples_per_s": _m("evals.online_discG", {BANASZCZYK},
                                           work_rate("samples")),
    "evals.discG_mc.s": _m("evals.discG_mc", {ROUNDING}, inclusive_s),
    "evals.discG_mc.samples_per_s": _m("evals.discG_mc", {ROUNDING}, work_rate("samples")),
    "evals.random_signing_baseline.s": _m("evals.random_signing_baseline", {ROUNDING},
                                          inclusive_s),
    "linalg.psd_cholesky.s": _m("linalg.psd_cholesky", {ROUNDING}, inclusive_s),
    "linalg.psd_cholesky.calls_per_trial": _m("linalg.psd_cholesky", {ROUNDING}, per_trial),
    "linalg.top_eigvec.s": _m("linalg.top_eigvec", {ROUNDING}, inclusive_s),
    "rounding.make_planted.s": _m("rounding.make_planted", {ROUNDING}, inclusive_s),
    "rounding.gw_round.s": _m("rounding.gw_round", {ROUNDING}, inclusive_s),
    "rounding.pca_round.s": _m("rounding.pca_round", {ROUNDING}, inclusive_s),
    "rounding.shift_orbit_index.s": _m("rounding.shift_orbit_index", {ROUNDING}, inclusive_s),
    "instances.unit_columns.s": _m("instances.unit_columns", {WALK, BANASZCZYK}, inclusive_s),
    # cli.main and the cmd_* functions minus their children: argument
    # parsing, JSON output and metrics.jsonl
    "cli.self_s": _m("cli", ALL, self_s),
    # traced over untraced median call time; measured by the caller
    OVERHEAD: _m("", ALL, None),
}


def layer_metrics(trace: Trace, workload: str) -> tuple[dict[str, float], list[str]]:
    """Metric values for this workload, and the expected metrics whose
    layer never ran. The tracing overhead is measured by the caller."""
    values, missing = {}, []
    for name, m in PER_LAYER.items():
        if m.stat is None:
            continue
        value = m.stat(trace, trace.of(m.layer))
        if value is None and workload in m.expected:
            missing.append(name)
        else:
            values[name] = 0.0 if value is None else float(value)
    return values, missing

"""Benchmark of discforge's user-facing CLI runs, end to end and per layer.

    python3 perfbench/run.py --workload walk-dense --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ``src/``.
Each run sets up its inputs from ``--seed``, makes one untimed warm-up
call of ``discforge.cli.main`` in this process, then calls it back to
back (a closed loop with one client) for ``--seconds`` seconds and checks
every call's outputs. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``layers.py`` plus the tracing overhead.

Standard output: one line per metric with its unit and sample count, a
``details`` line (provenance, sample counts, failures, missing layers),
then the result as one JSON object on the last line. The details also go
to ``perfbench/work/<workload>-seed<n>-trace<t>.json``; a traced run
writes its spans, one JSON array per line (unit, span id, parent, layer,
start, end, work), to ``perfbench/work/<workload>.spans.jsonl``.
"""
from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import subprocess
import sys
import traceback
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

# One client thread and one BLAS thread. Set before numpy is imported: on
# two cores, one BLAS thread ran the dense walk as fast as two, and steadier.
PINNED = {
    "DISCFORGE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
}
# Set-up is repeated and its median reported, so one slow repetition does
# not read as a set-up regression. Each import sample is a fresh
# interpreter; the last of them also makes one CLI call to measure peak RSS.
SETUP_REPEATS = 5
# Runs in a fresh interpreter: times the import, then (given CLI
# arguments) makes one call and reports that process's peak RSS, which is
# what a user running the CLI sees. The peak is VmHWM of the process's own
# address space: Linux carries ru_maxrss across fork and exec, so the
# child's ru_maxrss would report this (larger) benchmark process instead.
CHILD_SNIPPET = """
import contextlib, io, json, sys, time, traceback
t = time.perf_counter()
import numpy, discforge.cli
import_s = time.perf_counter() - t
out, rc, err = io.StringIO(), None, ""
if len(sys.argv) > 1:
    try:
        with contextlib.redirect_stdout(out):
            rc = discforge.cli.main(sys.argv[1:])
    except Exception:
        err = traceback.format_exc(limit=4)
with open("/proc/self/status") as fh:
    hwm_kb = next(int(ln.split()[1]) for ln in fh if ln.startswith("VmHWM:"))
print(json.dumps({"import_s": import_s, "rc": rc, "stdout": out.getvalue(), "err": err,
                  "peak_rss_kb": hwm_kb}))
"""
# Workload names and metric units come from here, and only from here.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def pin_threads() -> None:
    os.environ.update(PINNED)


def run_child(argv: list[str]) -> dict:
    """Import time, and for a non-empty argv the exit code, stdout and peak
    RSS of one CLI call, all in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", CHILD_SNIPPET, *argv], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@contextmanager
def traced_as(tracer, unit: str):
    """Install ``tracer`` (if any) for the duration, labelling spans ``unit``."""
    if tracer is None:
        yield
        return
    tracer.unit = unit
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def call_cli(argv: list[str]) -> tuple[float, int | None, str, str]:
    """Wall time, exit code (None if it raised), stdout and stderr of one
    in-process CLI call."""
    import discforge.cli as cli

    out, err = io.StringIO(), io.StringIO()
    t0 = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except Exception:  # a crash is a failed call; the run goes on
        return perf_counter() - t0, None, out.getvalue(), traceback.format_exc(limit=4)
    return perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def quartiles(values: list[float]) -> dict:
    q = quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"n": len(values), "q1": q[0], "median": median(values), "q3": q[2]}


@dataclass
class Outcome:
    result: dict
    lines: list[str]
    details: dict
    spans: list


def run_workload(wl, seed: int, seconds: float, traced: bool,
                 setup_repeats: int = SETUP_REPEATS) -> Outcome:
    """One benchmark run, setting up ``setup_repeats`` times."""
    from layers import ANNOTATORS, OVERHEAD, TRACED_MODULES, Trace, layer_metrics
    from provenance import provenance
    from tracing import Tracer
    from workloads import clear_outputs

    work = WORK / f"{wl.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        tracer = Tracer(TRACED_MODULES, ANNOTATORS) if traced else None
        generate_s, setup_units = [], []
        for k in range(setup_repeats):
            setup_units.append(f"setup-{k}")
            with traced_as(tracer, setup_units[-1]):
                t0 = perf_counter()
                inputs = wl.generate(seed, work)
                generate_s.append(perf_counter() - t0)
        argv = wl.argv(seed, work)

        failures, attempted = [], 0

        def check(rc: int | None, out: str, err: str) -> None:
            nonlocal attempted
            try:
                problems = [f"raised: {err}"] if rc is None else wl.check(inputs, work, rc, out)
            except Exception:  # a check that crashes fails the call, never the run
                problems = [f"check raised: {traceback.format_exc(limit=4)}"]
            if problems:
                failures.append({"call": attempted, "problems": problems, "stderr": err[-2000:]})
            attempted += 1

        import_s, peak_rss_kb = [], None
        if not traced:
            import_s = [run_child([])["import_s"] for _ in range(setup_repeats - 1)]
            clear_outputs(work)
            child = run_child(argv)
            import_s.append(child["import_s"])
            peak_rss_kb = child["peak_rss_kb"]
            check(child["rc"], child["stdout"], child["err"])

        call_cli(argv)  # warm-up: untimed, unchecked
        plain_s, traced_s, call_units = [], [], []
        deadline = perf_counter() + seconds
        k = 0
        while k < (2 if traced else 1) or perf_counter() < deadline:
            use_tracer = tracer if traced and k % 2 == 1 else None
            unit = f"call-{k}"
            clear_outputs(work)  # so a call that writes nothing cannot pass on old files
            with traced_as(use_tracer, unit):
                elapsed, rc, out, err = call_cli(argv)
            if use_tracer is None:
                plain_s.append(elapsed)
            else:
                traced_s.append(elapsed)
                call_units.append(unit)
            check(rc, out, err)
            k += 1
        failed = len(failures)

        lines = [f"workload {wl.name} seed {seed} trace {int(traced)}"]
        missing: list[str] = []
        if traced:
            trace = Trace(tracer.spans, call_units, setup_units, wl.trials_per_call)
            values, missing = layer_metrics(trace, wl.name)
            values[OVERHEAD] = median(traced_s) / median(plain_s)
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in PER_LAYER_UNITS.items() if name in values
            }
            for name, m in metrics.items():
                lines.append(f"{name} {m['value']:.6g} {m['unit']}")
            lines.append(f"{OVERHEAD} from {len(traced_s)} traced and {len(plain_s)} untraced calls")
            for name in missing:
                lines.append(f"{name} MISSING: its layer never ran")
        else:
            call_s = median(plain_s)
            metrics = {
                "setup_s": {"value": median(import_s) + median(generate_s), "unit": "s"},
                "trials_per_s": {"value": wl.trials_per_call / call_s, "unit": "1/s"},
                "peak_rss_mb": {"value": peak_rss_kb * 1024 / 1e6, "unit": "MB"},
            }
            n = len(plain_s)
            lines += [
                f"setup_s {metrics['setup_s']['value']:.6g} s (median import of {len(import_s)}"
                f" fresh interpreters + median input generation of {len(generate_s)})",
                f"trials_per_s {metrics['trials_per_s']['value']:.6g} 1/s (median of {n} calls,"
                f" {wl.trials_per_call} trials per call)",
            ]
            if wl.rounds_per_call:
                lines.append(f"rounds_per_s {wl.rounds_per_call / call_s:.6g} 1/s (median of"
                             f" {n} calls, {wl.rounds_per_call} walk rounds per call)")
            lines.append(f"peak_rss_mb {metrics['peak_rss_mb']['value']:.6g} MB"
                         " (VmHWM of one CLI call in a fresh process)")
        lines.append(f"failed_ratio {failed / attempted:.6g} ratio ({failed} of {attempted} calls)")

        details = {
            "workload": wl.name,
            "seed": seed,
            "trace": int(traced),
            "argv": argv,
            "samples": {
                "import_s": quartiles(import_s) if import_s else None,
                "generate_s": quartiles(generate_s),
                "call_s": quartiles(plain_s),
                "traced_call_s": quartiles(traced_s) if traced_s else None,
            },
            "failed_ratio": failed / attempted,
            "failures": failures[:5],
            "missing_layers": missing,
            "provenance": provenance(ROOT, seed, wl.working_set()),
        }
        result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
                  "metrics": metrics}
        return Outcome(result, lines, details, tracer.spans if traced else [])
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true", dest="self_test",
                   help="run the benchmark's own checks at tiny shapes")
    args = p.parse_args(argv)
    if not args.self_test and (args.workload is None or args.seed is None or args.seconds is None):
        p.error("--workload, --seed and --seconds are required")
    if args.seconds is not None and args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "discforge" / "__init__.py").is_file():
        print(f"error: no discforge sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(SRC))
    if args.self_test:
        import selftest

        return selftest.main()
    from workloads import FULL

    outcome = run_workload(FULL[args.workload], args.seed, args.seconds, bool(args.trace))
    WORK.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (WORK / f"{stem}.json").write_text(
        json.dumps({"result": outcome.result, "details": outcome.details}, indent=2) + "\n",
        encoding="utf-8")
    if outcome.spans:
        # Only the latest traced run per workload is kept, to bound disk use.
        with open(WORK / f"{args.workload}.spans.jsonl", "w", encoding="utf-8") as fh:
            for sp in outcome.spans:
                fh.write(json.dumps([sp.unit, sp.span_id, sp.parent, sp.layer,
                                     sp.start, sp.end, sp.work]) + "\n")
    for line in outcome.lines:
        print(line)
    print("details " + json.dumps(outcome.details, sort_keys=True))
    print(json.dumps(outcome.result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

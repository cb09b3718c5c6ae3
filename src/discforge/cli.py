"""Command-line entry point.

Subcommands: walk (run the online balancer over an adversary file),
stationarity (distributional check of the kernel), eval (discrepancy
evaluators), rounding (the rounding-failure experiment), banaszczyk (the
end-to-end online Gaussian-discrepancy run), bench (per-round timing),
and gen (instance generation).

Exit codes: 0 success or statistical pass, 1 statistical failure,
2 usage or input error.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .chilaw import ChiLaw, chi_cdf
from .errors import DiscforgeError
from .evals import (
    discG_mc,
    disc_bruteforce,
    discs_objective,
    online_discG,
    vdisc_objective,
    vdisc_objective_units,
)
from .instances import InstanceSpec, gen as gen_instance, unit_columns
from .kernel import KernelParams, advance_chain_batch
from .linalg import read_matrix, write_matrix
from .parallel import map_trials
from .report import SCHEMA_VERSION, ExperimentReport, check_trials, verdict
from .rng import RngHandle
from .rounding import rounding_experiment
from .stats import cov_test, ks_test
from .walk import WalkConfig, banaszczyk_rank, walk_run

# Frozen acceptance factor for the online Gaussian-discrepancy run: the
# estimate must stay below BANASZCZYK_FACTOR * sqrt(ln(2 m T / delta)).
BANASZCZYK_FACTOR = 6.0
PASS_FRACTION = 0.95


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _emit(args: argparse.Namespace, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(text)


def _finish(args: argparse.Namespace, report: ExperimentReport) -> int:
    """Save the report when --out is given, print its summary, and exit 0
    on a statistical pass, 1 otherwise."""
    if args.out:
        report.save(args.out)
    print(json.dumps(report.to_summary_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _seed_handle(args: argparse.Namespace) -> RngHandle:
    return RngHandle(args.seed, args.stream_id)


def cmd_walk(args: argparse.Namespace) -> int:
    vs = read_matrix(args.input)
    config = WalkConfig(m=vs.shape[0], r=args.rank, seed=_seed_handle(args))
    t0 = time.perf_counter()
    run = walk_run(config, vs)
    elapsed = time.perf_counter() - t0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix(out_dir / "stream.mat", run.us)
    lines = [
        json.dumps(
            {
                "round": t + 1,
                "disc_2inf": float(run.running_max[t]),
                "max_row_norm": float(run.row_norms[t]),
            },
            sort_keys=True,
        )
        for t in range(run.us.shape[0])
    ]
    (out_dir / "metrics.jsonl").write_text(
        "\n".join(lines) + ("\n" if lines else ""), encoding="utf-8"
    )
    summary = {
        "schema": SCHEMA_VERSION,
        "experiment": "walk",
        "spec": {"input": str(args.input), "m": vs.shape[0], "t": vs.shape[1], "rank": args.rank},
        "seed": asdict(config.seed),
        "summary": {
            "final_disc_2inf": float(run.running_max[-1]) if run.us.shape[0] else 0.0
        },
        "timings": {"total_seconds": elapsed},
    }
    (out_dir / "walk.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(json.dumps(summary["summary"], sort_keys=True))
    return 0


def cmd_stationarity(args: argparse.Namespace) -> int:
    from scipy.special import ndtr

    handle = _seed_handle(args)
    sigma2 = args.sigma * args.sigma
    params = KernelParams(args.r, sigma2)
    gen = handle.generator()
    x0 = args.sigma * gen.standard_normal((args.runs, args.r))
    t0 = time.perf_counter()
    xs = advance_chain_batch(params, x0, args.steps, gen)
    elapsed = time.perf_counter() - t0
    law = ChiLaw(args.r, sigma2)
    radius = ks_test(np.linalg.norm(xs, axis=1), lambda s: chi_cdf(law, s), args.level)
    coords = [
        ks_test(xs[:, j], lambda s: ndtr(s / args.sigma), args.level)
        for j in range(args.r)
    ]
    cov = cov_test(xs, sigma2 * np.eye(args.r), args.cov_tol)
    verdicts = {
        "ks_radius": verdict(radius.p_value, args.level, ">="),
        "cov_entrywise": verdict(cov.max_abs_deviation, args.cov_tol, "<="),
    }
    for j, res in enumerate(coords):
        verdicts[f"ks_coordinate_{j}"] = verdict(res.p_value, args.level, ">=")
    report = ExperimentReport(
        name="stationarity",
        spec={"r": args.r, "sigma": args.sigma, "runs": args.runs, "steps": args.steps, "level": args.level},
        seed=asdict(handle),
        metrics=[{"ks_radius": radius.to_dict(), "ks_coords": [c.to_dict() for c in coords]}],
        summary={"ks_radius": radius.to_dict(), "cov_max_abs_deviation": cov.max_abs_deviation},
        verdicts=verdicts,
        timings={"total_seconds": elapsed},
    )
    return _finish(args, report)


def cmd_eval(args: argparse.Namespace) -> int:
    a = read_matrix(args.input)
    op = args.op
    paths = [args.input]
    value: float
    std_error = None
    samples = None
    seed = None
    if op == "disc":
        value, _ = disc_bruteforce(a)
    elif op == "vdisc":
        if args.units:
            paths.append(args.units)
            value = vdisc_objective_units(a, read_matrix(args.units))
        elif args.coupling:
            paths.append(args.coupling)
            value = vdisc_objective(a, read_matrix(args.coupling))
        else:
            raise DiscforgeError("vdisc needs --coupling or --units")
    elif op == "discs":
        if not args.point:
            raise DiscforgeError("discs needs --point")
        paths.append(args.point)
        value = discs_objective(a, read_matrix(args.point).ravel())
    elif op == "discg":
        if not args.coupling or args.seed is None:
            raise DiscforgeError("discg needs --coupling and --seed")
        paths.append(args.coupling)
        est = discG_mc(a, read_matrix(args.coupling), args.samples, _seed_handle(args))
        value, std_error, samples, seed = est.mean, est.std_error, est.samples, asdict(est.seed)
    elif op == "online-discg":
        if not args.stream or args.seed is None:
            raise DiscforgeError("online-discg needs --stream and --seed")
        paths.append(args.stream)
        est = online_discG(a, read_matrix(args.stream), args.samples, _seed_handle(args))
        value, std_error, samples, seed = est.mean, est.std_error, est.samples, asdict(est.seed)
    else:
        raise DiscforgeError(f"unknown evaluator {op!r}")
    _emit(
        args,
        {
            "schema": SCHEMA_VERSION,
            "op": op,
            "inputs_digest": _digest(*paths),
            "value": value,
            "std_error": std_error,
            "samples": samples,
            "seed": seed,
        },
    )
    return 0


def cmd_rounding(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    report = rounding_experiment(args.setting, args.n, args.trials, _seed_handle(args))
    report.timings["total_seconds"] = time.perf_counter() - t0
    return _finish(args, report)


def _banaszczyk_trial(
    handle: RngHandle, m: int, big_t: int, rank: int, samples: int
) -> dict:
    vs = unit_columns(m, big_t, handle.substream(1))
    run = walk_run(WalkConfig(m=m, r=rank, seed=handle.substream(2)), vs)
    est = online_discG(vs, run.us, samples, handle.substream(3))
    return {
        "estimate": est.mean,
        "std_error": est.std_error,
        "max_row_norm": float(run.running_max[-1]),
    }


def cmd_banaszczyk(args: argparse.Namespace) -> int:
    check_trials(args.trials)
    if not 0.0 < args.delta < 1.0:
        raise ValueError(f"delta must lie in (0, 1), got {args.delta}")
    rank = args.rank or banaszczyk_rank(args.m, args.t, args.delta)
    handle = _seed_handle(args)
    threshold = BANASZCZYK_FACTOR * math.sqrt(math.log(2.0 * args.m * args.t / args.delta))
    t0 = time.perf_counter()
    metrics = map_trials(
        lambda k: _banaszczyk_trial(handle.substream(k), args.m, args.t, rank, args.samples),
        range(args.trials),
    )
    elapsed = time.perf_counter() - t0
    for k, row in enumerate(metrics):
        row["trial"] = k
    frac = float(np.mean([row["estimate"] <= threshold for row in metrics]))
    report = ExperimentReport(
        name="banaszczyk",
        spec={
            "m": args.m, "t": args.t, "delta": args.delta, "rank": rank,
            "samples": args.samples, "trials": args.trials,
        },
        seed=asdict(handle),
        metrics=metrics,
        summary={
            "threshold": threshold,
            "mean_estimate": float(np.mean([row["estimate"] for row in metrics])),
            "max_estimate": float(np.max([row["estimate"] for row in metrics])),
            "pass_fraction": frac,
        },
        verdicts={"estimate_below_threshold": verdict(frac, PASS_FRACTION, ">=")},
        timings={"total_seconds": elapsed},
    )
    return _finish(args, report)


def bench_per_round(m: int, big_t: int, rank: int, reps: int, seed: int) -> dict:
    """Median per-round wall time of the walk at the given shape."""
    if big_t < 1 or reps < 1:
        raise ValueError(f"bench needs t >= 1 and reps >= 1, got t={big_t}, reps={reps}")
    handle = RngHandle(seed)
    times = []
    for rep in range(reps):
        vs = unit_columns(m, big_t, handle.substream(2 * rep))
        config = WalkConfig(m=m, r=rank, seed=handle.substream(2 * rep + 1))
        t0 = time.perf_counter()
        walk_run(config, vs)
        times.append((time.perf_counter() - t0) / big_t)
    return {
        "m": m,
        "t": big_t,
        "rank": rank,
        "reps": reps,
        "median_round_seconds": float(np.median(times)),
    }


def cmd_bench(args: argparse.Namespace) -> int:
    result = bench_per_round(args.m, args.t, args.rank, args.reps, args.seed)
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    params = {
        name: getattr(args, name)
        for name in ("m", "n", "t", "scale", "path")
        if getattr(args, name) is not None
    }
    seed = _seed_handle(args) if args.seed is not None else None
    spec = InstanceSpec(kind=args.kind, params=params, seed=seed)
    a = gen_instance(spec)
    write_matrix(args.out, a)
    print(json.dumps({"kind": args.kind, "shape": list(a.shape), "out": str(args.out)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discforge",
        description="Online discrepancy balancing walk, discrepancy evaluators, and rounding experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("walk", help="run the online balancer over an adversary matrix file")
    p.add_argument("--input", required=True, help="matrix file; columns are the incoming vectors")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream-id", type=int, default=0, dest="stream_id")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("stationarity", help="distributional check of the kernel marginal")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--runs", type=int, default=5000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream-id", type=int, default=0, dest="stream_id")
    p.add_argument("--level", type=float, default=0.01)
    p.add_argument("--cov-tol", type=float, default=0.05, dest="cov_tol")
    p.add_argument("--out", default=None, help="directory for the report files")
    p.set_defaults(func=cmd_stationarity)

    p = sub.add_parser("eval", help="evaluate a discrepancy objective")
    p.add_argument("op", choices=["disc", "vdisc", "discs", "discg", "online-discg"])
    p.add_argument("--input", required=True, help="instance matrix file")
    p.add_argument("--coupling", default=None, help="correlation matrix file")
    p.add_argument("--units", default=None, help="unit-row matrix file")
    p.add_argument("--point", default=None, help="sphere point file (one row)")
    p.add_argument("--stream", default=None, help="unit-vector stream file")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream-id", type=int, default=0, dest="stream_id")
    p.add_argument("--out", default=None, help="write the JSON result here")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("rounding", help="rounding-failure experiment")
    p.add_argument("--setting", choices=["spencer", "komlos"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream-id", type=int, default=0, dest="stream_id")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rounding)

    p = sub.add_parser("banaszczyk", help="end-to-end online Gaussian-discrepancy run")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--stream-id", type=int, default=0, dest="stream_id")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_banaszczyk)

    p = sub.add_parser("bench", help="median per-round wall time of the walk")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, default=32)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("gen", help="generate an instance matrix file")
    p.add_argument("--kind", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--stream-id", type=int, default=0, dest="stream_id")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--scale", type=float, default=None)
    p.add_argument("--path", default=None)
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (DiscforgeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

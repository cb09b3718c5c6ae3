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
import math
import sys
import time
from collections.abc import Callable
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .chilaw import ChiLaw, chi_cdf, sigma_star
from .errors import DimMismatchError, DiscforgeError, NotPsdError, NotUnitError
from .evals import (
    discG_mc,
    disc_bruteforce,
    discs_objective,
    online_discG,
    vdisc_objective,
    vdisc_objective_units,
)
from .instances import unit_columns
from .kernel import advance_chain_batch
from .linalg import check_unit_diagonal, read_matrix, write_matrix
from .report import (
    PASS_FRACTION, ExperimentReport, check_trials, strict_json, verdict, write_json, write_jsonl,
)
from .rng import RngHandle
from .rounding import make_planted, rounding_experiment
from .stats import COV_MIN_SAMPLES, cov_test, holm_adjust, ks_test
from .walk import WalkConfig, banaszczyk_rank, walk_run

# Frozen acceptance factor and failure probability delta of the online
# Gaussian-discrepancy run: the estimate must stay below
# BANASZCZYK_FACTOR * sqrt(ln(2 m T / delta)) at rank banaszczyk_rank(m, T, delta).
BANASZCZYK_FACTOR = 6.0
BANASZCZYK_DELTA = 0.05
# Frozen stationarity gates: the Holm-adjusted KS family and the covariance.
STATIONARITY_LEVEL = 0.01
STATIONARITY_COV_TOL = 0.05


def _digest(*paths: str) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _finish(report: ExperimentReport, out_dir: str | None = None) -> int:
    """Save the report under out_dir when one is given, print its summary,
    and exit 0 on a statistical pass, 1 otherwise."""
    if out_dir:
        report.save(out_dir)
    print(strict_json(report.to_summary_dict(), indent=2, sort_keys=True))
    return 0 if report.passed else 1


def _check_flag(ok: bool, flag: str, rule: str, value) -> None:
    """Reject a command-line value with a message that names its flag."""
    if not ok:
        raise ValueError(f"{flag} must {rule}, got {value}")


def _naming(path: str, evaluate: Callable[[], object]):
    """evaluate(), naming path in a DimMismatchError, NotPsdError or NotUnitError."""
    try:
        return evaluate()
    except (DimMismatchError, NotPsdError, NotUnitError) as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def cmd_walk(args: argparse.Namespace) -> int:
    sigma_star(args.rank)  # a rank below 2 is rejected before the input is read
    vs = read_matrix(args.input)
    config = WalkConfig(m=vs.shape[0], r=args.rank, seed=RngHandle(args.seed))
    t0 = time.perf_counter()
    run = walk_run(config, vs)
    elapsed = time.perf_counter() - t0
    report = ExperimentReport(
        name="walk",
        spec={"input": str(args.input), "m": vs.shape[0], "t": vs.shape[1], "rank": args.rank},
        seed=asdict(config.seed),
        metrics=[
            {
                "round": t + 1,
                "disc_2inf": float(run.running_max[t]),
                "max_row_norm": float(run.row_norms[t]),
            }
            for t in range(run.us.shape[0])
        ],
        summary={"final_disc_2inf": float(run.running_max[-1]) if run.us.shape[0] else 0.0},
        timings={"total_seconds": elapsed},
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_matrix(out_dir / "stream.mat", run.us)
    write_jsonl(out_dir / "metrics.jsonl", report.metrics)
    write_json(out_dir / "walk.json", report.to_summary_dict())
    return _finish(report)


def cmd_stationarity(args: argparse.Namespace) -> int:
    """Kernel marginal check: the r + 1 KS tests are one Holm family gated at
    STATIONARITY_LEVEL, and the covariance deviation is gated at STATIONARITY_COV_TOL."""
    from scipy.special import ndtr

    _check_flag(args.sigma > 0.0, "--sigma", "be positive", args.sigma)
    _check_flag(
        args.runs >= COV_MIN_SAMPLES, "--runs", f"be at least {COV_MIN_SAMPLES}", args.runs
    )
    _check_flag(args.steps >= 1, "--steps", "be at least 1", args.steps)
    sigma_star(args.r)  # a rank below 2 is rejected before any draw
    handle = RngHandle(args.seed)
    sigma2 = args.sigma * args.sigma
    gen = handle.generator()
    x0 = args.sigma * gen.standard_normal((args.runs, args.r))
    t0 = time.perf_counter()
    xs = advance_chain_batch(sigma2, x0, args.steps, gen)
    elapsed = time.perf_counter() - t0
    law = ChiLaw(args.r, sigma2)
    radius = ks_test(np.linalg.norm(xs, axis=1), lambda s: chi_cdf(law, s))
    coords = [ks_test(xs[:, j], lambda s: ndtr(s / args.sigma)) for j in range(args.r)]
    cov_dev = cov_test(xs, sigma2 * np.eye(args.r))
    names = ["ks_radius"] + [f"ks_coordinate_{j}" for j in range(args.r)]
    adjusted = holm_adjust([radius.p_value] + [c.p_value for c in coords])
    verdicts = {name: verdict(p, STATIONARITY_LEVEL, ">=") for name, p in zip(names, adjusted)}
    verdicts["cov_entrywise"] = verdict(cov_dev, STATIONARITY_COV_TOL, "<=")
    report = ExperimentReport(
        name="stationarity",
        spec={"r": args.r, "sigma": args.sigma, "runs": args.runs, "steps": args.steps,
              "level": STATIONARITY_LEVEL},
        seed=asdict(handle),
        metrics=[{
            "ks_radius": radius.to_dict(),
            "ks_coords": [c.to_dict() for c in coords],
            "ks_holm_p_values": dict(zip(names, adjusted)),
        }],
        summary={"ks_radius": radius.to_dict(), "cov_max_abs_deviation": cov_dev},
        verdicts=verdicts,
        timings={"total_seconds": elapsed},
    )
    return _finish(report, args.out)


def cmd_eval(args: argparse.Namespace) -> int:
    op = args.op
    if "samples" in args:  # the Monte Carlo ops
        _check_flag(args.samples >= 1, "--samples", "be at least 1", args.samples)
    a = read_matrix(args.input)
    paths = [args.input]
    std_error = None
    samples = None
    seed = None
    if op == "disc":
        value, _ = disc_bruteforce(a)
    elif op == "vdisc" and args.units is not None:
        paths.append(args.units)
        value = _naming(args.units, lambda: vdisc_objective_units(a, read_matrix(args.units)))
    elif op == "vdisc":
        paths.append(args.coupling)
        value = _naming(args.coupling, lambda: vdisc_objective(a, read_matrix(args.coupling)))
    elif op == "discs":
        paths.append(args.point)
        point = read_matrix(args.point)
        if point.shape[0] != 1:
            raise DimMismatchError(f"{args.point}: expected one row, found {point.shape[0]}")
        value = _naming(args.point, lambda: discs_objective(a, point[0]))
    else:
        path = args.coupling if op == "discg" else args.stream
        paths.append(path)
        data, rng = read_matrix(path), RngHandle(args.seed)
        if op == "discg":  # discG_mc's psd_cholesky is the PSD decision
            est = _naming(path, lambda: discG_mc(a, check_unit_diagonal(data), args.samples, rng))
        else:
            est = _naming(path, lambda: online_discG(a, data, args.samples, rng))
        value, std_error, samples, seed = est.mean, est.std_error, est.samples, asdict(est.seed)
    report = ExperimentReport(
        name="eval",
        spec={"op": op, "inputs_digest": _digest(*paths), "samples": samples},
        seed=seed,
        summary={"value": value, "std_error": std_error},
    )
    if args.out:
        write_json(args.out, report.to_summary_dict())
    return _finish(report)


def cmd_rounding(args: argparse.Namespace) -> int:
    t0 = time.perf_counter()
    report = rounding_experiment(args.setting, args.n, args.trials, RngHandle(args.seed))
    report.timings["total_seconds"] = time.perf_counter() - t0
    return _finish(report, args.out)


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
    """Online Gaussian-discrepancy trials at delta = BANASZCZYK_DELTA."""
    check_trials(args.trials)
    _check_flag(args.m >= 1, "--m", "be at least 1", args.m)
    _check_flag(args.t >= 1, "--t", "be at least 1", args.t)
    _check_flag(args.samples >= 1, "--samples", "be at least 1", args.samples)
    rank = banaszczyk_rank(args.m, args.t, BANASZCZYK_DELTA)
    handle = RngHandle(args.seed)
    threshold = BANASZCZYK_FACTOR * math.sqrt(math.log(2.0 * args.m * args.t / BANASZCZYK_DELTA))
    t0 = time.perf_counter()
    metrics = [
        _banaszczyk_trial(handle.substream(k), args.m, args.t, rank, args.samples)
        for k in range(args.trials)
    ]
    elapsed = time.perf_counter() - t0
    for k, row in enumerate(metrics):
        row["trial"] = k
    frac = float(np.mean([row["estimate"] <= threshold for row in metrics]))
    report = ExperimentReport(
        name="banaszczyk",
        spec={
            "m": args.m, "t": args.t, "delta": BANASZCZYK_DELTA, "rank": rank,
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
    return _finish(report, args.out)


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
    print(strict_json(result, sort_keys=True))
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    kind = args.kind
    if kind == "identity":
        a = np.eye(args.t)
    elif kind == "random-unit-columns":
        a = unit_columns(args.m, args.t, RngHandle(args.seed))
    elif kind == "gaussian-dense":
        a = args.scale * RngHandle(args.seed).generator().standard_normal((args.m, args.n))
    else:
        a = make_planted(args.m, args.n, RngHandle(args.seed).generator()).a
    write_matrix(args.out, a)
    print(strict_json({"kind": kind, "shape": list(a.shape), "out": str(args.out)}))
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
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_walk)

    p = sub.add_parser("stationarity", help="distributional check of the kernel marginal")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.add_argument("--runs", type=int, default=5000)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="directory for the report files")
    p.set_defaults(func=cmd_stationarity)

    # each eval op declares the inputs it reads, and nothing else
    p = sub.add_parser("eval", help="evaluate a discrepancy objective")
    p.set_defaults(func=cmd_eval)
    ops = p.add_subparsers(dest="op", required=True)
    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--input", required=True, help="instance matrix file")
    files.add_argument("--out", default=None, help="write the JSON result here")
    sampling = argparse.ArgumentParser(add_help=False)
    sampling.add_argument("--samples", type=int, default=100_000)
    sampling.add_argument("--seed", type=int, required=True)
    ops.add_parser("disc", parents=[files], help="exact combinatorial discrepancy")
    q = ops.add_parser("vdisc", parents=[files], help="vector discrepancy objective")
    given = q.add_mutually_exclusive_group(required=True)
    given.add_argument("--coupling", help="correlation matrix file")
    given.add_argument("--units", help="unit-row matrix file")
    q = ops.add_parser("discs", parents=[files], help="spherical discrepancy objective")
    q.add_argument("--point", required=True, help="sphere point file (one row)")
    q = ops.add_parser("discg", parents=[files, sampling], help="Gaussian discrepancy of a coupling")
    q.add_argument("--coupling", required=True, help="correlation matrix file")
    q = ops.add_parser(
        "online-discg", parents=[files, sampling], help="Gaussian discrepancy of a walk's stream"
    )
    q.add_argument("--stream", required=True, help="unit-vector stream file")

    p = sub.add_parser("rounding", help="rounding-failure experiment")
    p.add_argument("--setting", choices=["spencer", "komlos"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_rounding)

    p = sub.add_parser("banaszczyk", help="end-to-end online Gaussian-discrepancy run")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--samples", type=int, default=20_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_banaszczyk)

    p = sub.add_parser("bench", help="median per-round wall time of the walk")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--t", type=int, default=32)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--reps", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_bench)

    # each gen kind declares the shape and seed flags it reads, and nothing else
    p = sub.add_parser("gen", help="generate an instance matrix file")
    p.set_defaults(func=cmd_gen)
    kinds = p.add_subparsers(dest="kind", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", required=True)
    q = kinds.add_parser("identity", parents=[out], help="the t x t identity")
    q.add_argument("--t", type=int, required=True)
    q = kinds.add_parser("random-unit-columns", parents=[out], help="m x t uniform unit columns")
    for flag in ("--m", "--t", "--seed"):
        q.add_argument(flag, type=int, required=True)
    q = kinds.add_parser("gaussian-dense", parents=[out], help="m x n standard normal entries")
    for flag in ("--m", "--n", "--seed"):
        q.add_argument(flag, type=int, required=True)
    q.add_argument("--scale", type=float, default=1.0, help="entry scale")
    q = kinds.add_parser("planted", parents=[out], help="the planted rounding family, m x n")
    for flag in ("--m", "--n", "--seed"):
        q.add_argument(flag, type=int, required=True)

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

"""Run the benchmark over several seeds and report each end-to-end
metric's median and quartile spread against its bound.

    python3 perfbench/spread.py --workload walk-dense --seeds 1-10 --out spread.json
    python3 perfbench/spread.py --workload walk-dense --seeds 101 --repeat 3 \
        --baseline spread.json --out heldout.json

The spread is (q3 - q1) / median with the quartiles of
``statistics.quantiles(values, n=4)``. With ``--baseline`` the medians are
also compared with an earlier report: a metric passes when its median is
no worse than the baseline's by more than the bound. Exit code 1 when a
run is not correct, a spread exceeds its bound or a comparison fails.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(results: list[dict], bench: dict) -> dict:
    summary = {}
    for m in bench["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        mid = median(values)
        q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else (mid, mid, mid)
        spread = (q3 - q1) / mid
        summary[m["name"]] = {
            "values": values, "median": mid, "q1": q1, "q3": q3, "spread": spread,
            "bound": m["bound"], "better": m["better"],
            "spread_ok": spread <= m["bound"],
            "under_third_of_bound": spread < m["bound"] / 3,
        }
    return summary


def worse_by(metric: dict, base: dict) -> float:
    """Share by which this median is worse than the baseline's."""
    if metric["better"] == "lower":
        return (metric["median"] - base["median"]) / base["median"]
    return (base["median"] - metric["median"]) / base["median"]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,5,9")
    p.add_argument("--repeat", type=int, default=1, help="runs per seed")
    p.add_argument("--baseline", default=None, help="earlier report to compare medians with")
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    results, seeds = [], []
    for seed in parse_seeds(args.seeds):
        for _ in range(args.repeat):
            res = run_once(args.workload, seed, bench["run_seconds"])
            results.append(res)
            seeds.append(seed)
            shown = {k: round(v["value"], 4) for k, v in res["metrics"].items()}
            print(f"seed {seed} correct {res['correct']} {shown}", flush=True)
    report = {"workload": args.workload, "seeds": seeds, "run_seconds": bench["run_seconds"],
              "all_correct": all(r["correct"] for r in results)}
    report["metrics"] = summarize(results, bench)
    ok = report["all_correct"] and all(m["spread_ok"] for m in report["metrics"].values())
    if args.baseline:
        base = json.loads(Path(args.baseline).read_text(encoding="utf-8"))
        report["baseline"] = {"seeds": base["seeds"]}
        for name, m in report["metrics"].items():
            m["worse_than_baseline_by"] = worse_by(m, base["metrics"][name])
            m["within_bound_of_baseline"] = m["worse_than_baseline_by"] <= m["bound"]
            ok = ok and m["within_bound_of_baseline"]
    for name, m in report["metrics"].items():
        extra = ""
        if "worse_than_baseline_by" in m:
            extra = f" worse_than_baseline_by {m['worse_than_baseline_by']:+.4f}"
        print(f"{name} median {m['median']:.6g} spread {m['spread']:.4f}"
              f" bound {m['bound']}{extra}")
    report["ok"] = ok
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    print("ok" if ok else "NOT ok")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Pilot run that calibrates the frozen lower-bound factors in
discforge.rounding (SPENCER_GW_FACTOR, KOMLOS_GW_FACTOR).

Runs rounding_experiment for many trials per setting at the acceptance
size n=502 and prints the distribution of the rounded signings' scaled
sup norms relative to the setting's rate (sqrt(n) for the entry-bounded
setting, sqrt(n / ln n) for the column-bounded one). The frozen factors
sit below the observed 0.5th percentile so a 50-trial run passes the 95%
bar with a wide margin. Each trial also runs the experiment's two Monte
Carlo estimates (the random-signing baseline and discG of the planted
coupling): at n=502 a trial takes 5-7.5 ms against 3 ms for the
roundings alone (2-vCPU Xeon, one BLAS thread), so the default 400
trials per setting take a second or two more.

Last run: seed 20260811, 400 trials per setting, n=502.
  spencer scale=3: feasible 1.000; gw ratio pct[0.5,1,5] = 0.108 0.110 0.121
                                  pca ratio pct[0.5,1,5] = 0.111 0.111 0.120
  komlos  scale=5: feasible 1.000; gw ratio pct[0.5,1,5] = 0.151 0.157 0.172
                                  pca ratio pct[0.5,1,5] = 0.147 0.152 0.171
Frozen: SPENCER_GW_FACTOR = 0.10, KOMLOS_GW_FACTOR = 0.14.
"""
import argparse

import numpy as np

from discforge.rng import RngHandle
from discforge.rounding import SETTINGS, rounding_experiment


def pilot(setting: str, n: int, trials: int, seed: RngHandle) -> None:
    rules = SETTINGS[setting]
    metrics = rounding_experiment(setting, n, trials, seed).metrics
    print(f"--- {setting} n={n} m={rules.rows(n)} scale={rules.scale} trials={trials}")
    print(f"  feasible fraction: {np.mean([t['feasible'] for t in metrics]):.4f}")
    for name in ("gw", "pca"):
        ratios = np.array([t[f"{name}_linf"] for t in metrics]) / rules.rate(n)
        pct = np.percentile(ratios, [0.5, 1, 5, 50])
        print(f"  {name}: mean ratio {ratios.mean():.4f}  pct[0.5,1,5,50] = {np.round(pct, 4)}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=502)
    ap.add_argument("--trials", type=int, default=400)
    ap.add_argument("--seed", type=int, default=20260811)
    args = ap.parse_args()
    seed = RngHandle(args.seed)
    pilot("spencer", args.n, args.trials, seed.substream(1))
    pilot("komlos", args.n, args.trials, seed.substream(2))


if __name__ == "__main__":
    main()

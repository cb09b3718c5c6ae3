"""The benchmark's workloads: one user-facing CLI run each.

A workload makes its inputs from the seed (``generate``), names the CLI
arguments of one call (``argv``) and checks that call's outputs
(``check``, which returns the problems found; an empty list means the
call is correct). The package only ever sees the generated inputs.
"""
from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np

import discforge.instances as instances
import discforge.linalg as linalg
from discforge.rng import RngHandle
from discforge.rounding import spencer_rows
from discforge.walk import banaszczyk_rank

from layers import BANASZCZYK, ROUNDING, WALK

UNIT_ATOL = 1e-9
NORM_RTOL = 1e-9
F64 = 8
OUT = "walk_out"


def clear_outputs(work: Path) -> None:
    """Remove what earlier calls wrote, so each check reads only its own call's files."""
    shutil.rmtree(work / OUT, ignore_errors=True)


def load_matrix(path: Path) -> np.ndarray:
    """Parse the matrix text format with numpy, independently of the
    package's reader."""
    with open(path, encoding="utf-8") as fh:
        m, n = (int(x) for x in fh.readline().split())
        a = np.loadtxt(fh, dtype=float, ndmin=2)
    if m == 0:
        a = np.zeros((0, n))
    if a.shape != (m, n):
        raise ValueError(f"{path}: header says {m}x{n}, body is {a.shape[0]}x{a.shape[1]}")
    return a


def check_walk_outputs(vs: np.ndarray, rank: int, out: Path) -> list[str]:
    """Problems in the files ``discforge walk`` wrote for adversary ``vs``."""
    t = vs.shape[1]
    try:
        us = load_matrix(out / "stream.mat")
        rows = [
            json.loads(line)
            for line in (out / "metrics.jsonl").read_text(encoding="utf-8").splitlines()
            if line.strip()
        ]
    except (OSError, ValueError) as exc:
        return [f"unreadable output: {exc}"]
    if us.shape != (t, rank):
        return [f"stream.mat is {us.shape[0]}x{us.shape[1]}, expected {t}x{rank}"]
    problems = []
    dev = float(np.abs(np.linalg.norm(us, axis=1) - 1.0).max(initial=0.0))
    if dev > UNIT_ATOL:
        problems.append(f"stream row off the unit sphere by {dev:.3g}")
    if len(rows) != t:
        return problems + [f"metrics.jsonl has {len(rows)} rows, expected {t}"]
    if [row["round"] for row in rows] != list(range(1, t + 1)):
        problems.append("metrics.jsonl rounds are not 1..T")
    norms = np.array([row["max_row_norm"] for row in rows])
    if not np.array_equal(np.array([row["disc_2inf"] for row in rows]), np.maximum.accumulate(norms)):
        problems.append("disc_2inf is not the running max of max_row_norm")
    if t:
        expected = float(np.linalg.norm(vs @ us, axis=1).max())
        if abs(norms[-1] - expected) > NORM_RTOL * expected:
            problems.append(f"final max_row_norm {norms[-1]!r} != recomputed {expected!r}")
    return problems


def check_verdicts(rc: int, stdout: str) -> list[str]:
    """Exit code 0 and every verdict of the printed summary passed."""
    problems = [] if rc == 0 else [f"exit code {rc}"]
    try:
        verdicts = json.loads(stdout)["verdicts"]
    except (ValueError, KeyError, TypeError) as exc:
        return problems + [f"no summary with verdicts: {exc}"]
    failed = [name for name, v in verdicts.items() if not v.get("passed")]
    if not verdicts or failed:
        problems.append(f"verdicts not passed: {failed or 'none reported'}")
    return problems


class WalkDense:
    """``discforge walk`` over a file of unit columns."""

    name = WALK

    def __init__(self, m: int = 4096, t: int = 384, rank: int = 256):
        self.m, self.t, self.rank = m, t, rank
        self.trials_per_call = 1
        self.rounds_per_call = t

    def generate(self, seed: int, work: Path) -> np.ndarray:
        vs = instances.unit_columns(self.m, self.t, RngHandle(seed, 1))
        linalg.write_matrix(work / "adversary.mat", vs)
        return vs

    def argv(self, seed: int, work: Path) -> list[str]:
        return ["walk", "--input", str(work / "adversary.mat"), "--rank", str(self.rank),
                "--seed", str(seed), "--out", str(work / OUT)]

    def check(self, inputs: np.ndarray, work: Path, rc: int, stdout: str) -> list[str]:
        if rc != 0:
            return [f"exit code {rc}"]
        return check_walk_outputs(inputs, self.rank, work / OUT)

    def working_set(self) -> dict:
        return {
            "computed": True,
            "walk_arrays_bytes": 3 * self.m * self.rank * F64,
            "walk_arrays": "W, signed sum and step buffer, each m x r float64",
            "adversary_bytes": self.m * self.t * F64,
        }


class BanaszczykSmall:
    """``discforge banaszczyk`` at a small shape, where per-round
    interpreter overhead and online_discG dominate."""

    name = BANASZCZYK

    def __init__(self, m: int = 16, t: int = 128, samples: int = 1000, trials: int = 50):
        self.m, self.t, self.samples = m, t, samples
        self.trials_per_call = trials
        self.rounds_per_call = trials * t

    def generate(self, seed: int, work: Path) -> None:
        return None

    def argv(self, seed: int, work: Path) -> list[str]:
        return ["banaszczyk", "--m", str(self.m), "--t", str(self.t),
                "--samples", str(self.samples), "--trials", str(self.trials_per_call),
                "--seed", str(seed)]

    def check(self, inputs: None, work: Path, rc: int, stdout: str) -> list[str]:
        return check_verdicts(rc, stdout)

    def working_set(self) -> dict:
        rank = banaszczyk_rank(self.m, self.t, 0.05)
        block = min(self.samples, 8192)
        return {
            "computed": True,
            "rank": rank,
            "walk_arrays_bytes": 3 * self.m * rank * F64,
            "online_discG_block_bytes": (self.t + self.m) * block * F64,
        }


class RoundingSpencer:
    """``discforge rounding --setting spencer``: Monte Carlo evaluation
    and rounding, never the walk, kernel or matrix I/O."""

    name = ROUNDING

    def __init__(self, n: int = 502, trials: int = 50):
        self.n = n
        self.trials_per_call = trials
        self.rounds_per_call = 0

    def generate(self, seed: int, work: Path) -> None:
        return None

    def argv(self, seed: int, work: Path) -> list[str]:
        return ["rounding", "--setting", "spencer", "--n", str(self.n),
                "--trials", str(self.trials_per_call), "--seed", str(seed)]

    def check(self, inputs: None, work: Path, rc: int, stdout: str) -> list[str]:
        return check_verdicts(rc, stdout)

    def working_set(self) -> dict:
        m = spencer_rows(self.n)
        block = 2000  # rounding_experiment's default mc_samples, one block
        return {
            "computed": True,
            "rows": m,
            "coupling_and_factor_bytes": 2 * self.n * self.n * F64,
            "mc_block_bytes": (2 * self.n + m) * block * F64,
        }


FULL = {w.name: w for w in (WalkDense(), BanaszczykSmall(), RoundingSpencer())}
TINY = {
    w.name: w
    for w in (WalkDense(m=64, t=24, rank=8), BanaszczykSmall(m=8, t=16, samples=200, trials=3),
              RoundingSpencer(n=62, trials=3))
}

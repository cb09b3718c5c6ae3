import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import discforge
from discforge.cli import bench_per_round, main
from discforge.kernel import KernelParams, advance_chain_batch
from discforge.linalg import read_matrix, write_matrix
from discforge.rng import RngHandle


def test_gen_identity(tmp_path, capsys):
    out = tmp_path / "id.mat"
    assert main(["gen", "--kind", "identity", "--t", "5", "--out", str(out)]) == 0
    assert np.array_equal(read_matrix(out), np.eye(5))
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["shape"] == [5, 5]


def test_gen_random_unit_columns_from_flags(tmp_path):
    out = tmp_path / "cols.mat"
    rc = main([
        "gen", "--kind", "random-unit-columns", "--m", "6", "--t", "12",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    a = read_matrix(out)
    assert a.shape == (6, 12)
    assert np.abs(np.linalg.norm(a, axis=0) - 1.0).max() <= 1e-12


def test_gen_takes_no_config_file(tmp_path):
    # a well-formed key=value file is still refused: gen reads flags only
    cfg = tmp_path / "spec.cfg"
    cfg.write_text("m=6\nt=12\n", encoding="utf-8")
    rc = main([
        "gen", "--kind", "random-unit-columns", "--config", str(cfg),
        "--seed", "5", "--out", str(tmp_path / "cols.mat"),
    ])
    assert rc == 2


def test_negative_seed_recorded_as_masked_handle(tmp_path):
    # --seed -1 keys the stream RngHandle(-1), whose seed is 2^64 - 1; every
    # report records that handle
    mat = tmp_path / "cols.mat"
    write_matrix(mat, np.eye(6)[:, :5])
    assert main([
        "walk", "--input", str(mat), "--rank", "3", "--seed", "-1", "--out", str(tmp_path / "walk"),
    ]) == 0
    assert main([
        "rounding", "--setting", "spencer", "--n", "22", "--trials", "1", "--seed", "-1",
        "--out", str(tmp_path / "rounding"),
    ]) == 0
    masked = {"seed": 18446744073709551615, "stream": 0}
    assert json.loads((tmp_path / "walk" / "walk.json").read_text())["seed"] == masked
    assert json.loads((tmp_path / "rounding" / "rounding.json").read_text())["seed"] == masked


def test_walk_identity_stream(tmp_path):
    mat = tmp_path / "id.mat"
    write_matrix(mat, np.eye(8))
    out = tmp_path / "run"
    rc = main([
        "walk", "--input", str(mat), "--rank", "4", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    us = read_matrix(out / "stream.mat")
    assert us.shape == (8, 4)
    assert np.abs(np.linalg.norm(us, axis=1) - 1.0).max() <= 1e-9
    lines = (out / "metrics.jsonl").read_text().splitlines()
    assert len(lines) == 8
    row = json.loads(lines[-1])
    assert set(row) == {"round", "disc_2inf", "max_row_norm"}
    summary = json.loads((out / "walk.json").read_text())
    assert summary["schema"] == 1


def test_walk_zero_rounds(tmp_path):
    mat = tmp_path / "none.mat"
    write_matrix(mat, np.zeros((3, 0)))
    out = tmp_path / "run"
    rc = main([
        "walk", "--input", str(mat), "--rank", "4", "--seed", "3", "--out", str(out),
    ])
    assert rc == 0
    assert read_matrix(out / "stream.mat").shape == (0, 4)
    assert (out / "metrics.jsonl").read_text() == ""


def test_walk_rejects_non_finite_input(tmp_path, capsys):
    mat = tmp_path / "nan.mat"
    mat.write_text("2 2\n0.5 nan\n0.5 0.5\n", encoding="utf-8")
    rc = main([
        "walk", "--input", str(mat), "--rank", "4", "--seed", "3", "--out", str(tmp_path / "run"),
    ])
    assert rc == 2
    assert "non-finite" in capsys.readouterr().err


def test_eval_disc(tmp_path, capsys):
    mat = tmp_path / "a.mat"
    write_matrix(mat, np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert main(["eval", "disc", "--input", str(mat)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["op"] == "disc"
    assert payload["value"] == 2.0
    assert payload["std_error"] is None
    assert len(payload["inputs_digest"]) == 64


def test_eval_discg_and_vdisc(tmp_path, capsys):
    mat = tmp_path / "a.mat"
    write_matrix(mat, np.array([[1.0]]))
    coup = tmp_path / "s.mat"
    write_matrix(coup, np.array([[1.0]]))
    rc = main([
        "eval", "discg", "--input", str(mat), "--coupling", str(coup),
        "--samples", "40000", "--seed", "4",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["value"] - math.sqrt(2.0 / math.pi)) < 4.0 * payload["std_error"]
    assert payload["samples"] == 40000

    units = tmp_path / "u.mat"
    write_matrix(units, np.eye(1))
    assert main(["eval", "vdisc", "--input", str(mat), "--units", str(units)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == 1.0


def test_eval_online_discg(tmp_path, capsys):
    vs = tmp_path / "vs.mat"
    write_matrix(vs, np.eye(3))
    stream = tmp_path / "us.mat"
    write_matrix(stream, np.eye(3)[:, :2])
    rc = main([
        "eval", "online-discg", "--input", str(vs), "--stream", str(stream),
        "--samples", "20000", "--seed", "6",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] > 0.5


def test_stationarity_passes(tmp_path):
    rc = main([
        "stationarity", "--r", "2", "--sigma", "0.5", "--runs", "1500",
        "--steps", "25", "--seed", "11", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "stationarity.json").read_text())
    assert report["verdicts"]["ks_radius"]["passed"]


def test_stationarity_verdicts_match_scipy_stats(tmp_path):
    from scipy.stats import chi, kstest, norm

    r, sigma, runs, steps, seed = 2, 0.5, 5000, 100, 3
    rc = main([
        "stationarity", "--r", str(r), "--sigma", str(sigma), "--runs", str(runs),
        "--steps", str(steps), "--seed", str(seed), "--out", str(tmp_path),
    ])
    assert rc == 0
    verdicts = json.loads((tmp_path / "stationarity.json").read_text())["verdicts"]
    # the same chains, tested with the scipy.stats forms of the two laws
    gen = RngHandle(seed).generator()
    x0 = sigma * gen.standard_normal((runs, r))
    xs = advance_chain_batch(KernelParams(r, sigma * sigma), x0, steps, gen)
    expected = {"ks_radius": kstest(np.linalg.norm(xs, axis=1), chi(r, scale=sigma).cdf, method="asymp")}
    for j in range(r):
        expected[f"ks_coordinate_{j}"] = kstest(xs[:, j], norm(scale=sigma).cdf, method="asymp")
    for name, ref in expected.items():
        assert abs(verdicts[name]["value"] - ref.pvalue) <= 5e-14
        assert verdicts[name]["passed"]


def test_runs_without_scipy_stats(tmp_path):
    # walk, banaszczyk and rounding never need the chi law or a KS test, so
    # neither importing the package nor running them may load scipy.stats
    mat = tmp_path / "cols.mat"
    write_matrix(mat, np.eye(6)[:, :5])
    runs = [
        ["walk", "--input", str(mat), "--rank", "3", "--seed", "1", "--out", str(tmp_path / "walk")],
        ["banaszczyk", "--m", "6", "--t", "8", "--trials", "1", "--samples", "100", "--seed", "2"],
        ["rounding", "--setting", "spencer", "--n", "22", "--trials", "1", "--seed", "3"],
    ]
    script = f"""
import sys
import discforge
import discforge.cli
assert "scipy.stats" not in sys.modules, "import"
for argv in {runs!r}:
    assert discforge.cli.main(argv) == 0, argv[0]
    assert "scipy.stats" not in sys.modules, argv[0]
"""
    path = [str(Path(discforge.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(path)}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_rounding_cli(tmp_path):
    rc = main([
        "rounding", "--setting", "spencer", "--n", "102", "--trials", "3",
        "--seed", "13", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "rounding.json").read_text())
    assert report["spec"]["c_scale"] == 3.0
    lines = (tmp_path / "rounding.metrics.jsonl").read_text().splitlines()
    assert len(lines) == 3


def test_banaszczyk_cli(tmp_path):
    rc = main([
        "banaszczyk", "--m", "8", "--t", "32", "--delta", "0.05",
        "--trials", "3", "--samples", "4000", "--seed", "17", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "banaszczyk.json").read_text())
    assert report["spec"]["rank"] == math.ceil(math.log(8 * 32 / 0.05))
    assert report["verdicts"]["estimate_below_threshold"]["passed"]


def test_bench_smoke(capsys):
    assert main(["bench", "--m", "64", "--rank", "4", "--t", "16", "--reps", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["median_round_seconds"] > 0.0
    direct = bench_per_round(64, 16, 4, reps=3, seed=0)
    assert direct["median_round_seconds"] > 0.0


def test_bench_per_round_needs_a_seed():
    with pytest.raises(TypeError, match="'seed'"):
        bench_per_round(64, 16, 4, 3)


@pytest.mark.parametrize(
    "argv",
    [
        ["banaszczyk", "--m", "8", "--t", "16", "--trials", "1", "--seed", "1", "--delta", "0"],
        ["banaszczyk", "--m", "8", "--t", "16", "--trials", "1", "--seed", "1", "--delta", "1.5"],
        ["bench", "--m", "8", "--rank", "4", "--t", "0"],
        ["bench", "--m", "8", "--rank", "4", "--reps", "0"],
    ],
    ids=["delta-0", "delta-1.5", "bench-t-0", "bench-reps-0"],
)
def test_bad_input_exits_2(argv, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_usage_errors(tmp_path, capsys):
    assert main(["no-such-command"]) == 2
    # --seed is mandatory for experiment subcommands
    assert main(["rounding", "--setting", "spencer", "--n", "102"]) == 2
    assert main(["walk", "--input", str(tmp_path / "missing.mat"),
                 "--rank", "4", "--seed", "1", "--out", str(tmp_path)]) == 2
    mat = tmp_path / "a.mat"
    write_matrix(mat, np.eye(2))
    assert main(["eval", "discg", "--input", str(mat)]) == 2  # missing coupling/seed
    assert main(["eval", "discg", "--input", str(mat), "--coupling", str(mat),
                 "--samples", "-3", "--seed", "4"]) == 2
    for cmd in (["rounding", "--setting", "spencer", "--n", "102"],
                ["banaszczyk", "--m", "8", "--t", "16"]):
        capsys.readouterr()
        assert main([*cmd, "--trials", "0", "--seed", "1"]) == 2
        assert "got 0" in capsys.readouterr().err
    # --out naming a directory is an error, not a silent skip
    assert main(["eval", "disc", "--input", str(mat), "--out", str(tmp_path)]) == 2
    assert str(tmp_path) in capsys.readouterr().err

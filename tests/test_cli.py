import json
import math
import os
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import discforge
from discforge import evals, linalg
from discforge.cli import bench_per_round, build_parser, main
from discforge.evals import discs_objective, vdisc_objective
from discforge.kernel import advance_chain_batch
from discforge.linalg import psd_cholesky, read_matrix, write_matrix
from discforge.report import SCHEMA_VERSION
from discforge.rng import RngHandle
from discforge.rounding import make_planted
from discforge.stats import holm_adjust


def test_gen_identity(tmp_path, capsys):
    out = tmp_path / "id.mat"
    assert main(["gen", "identity", "--t", "5", "--out", str(out)]) == 0
    assert np.array_equal(read_matrix(out), np.eye(5))
    meta = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert meta["shape"] == [5, 5]


def test_gen_random_unit_columns_from_flags(tmp_path):
    out = tmp_path / "cols.mat"
    rc = main([
        "gen", "random-unit-columns", "--m", "6", "--t", "12",
        "--seed", "5", "--out", str(out),
    ])
    assert rc == 0
    a = read_matrix(out)
    assert a.shape == (6, 12)
    assert np.abs(np.linalg.norm(a, axis=0) - 1.0).max() <= 1e-12


def _gen(tmp_path, kind, *flags):
    out = tmp_path / f"{kind}.mat"
    assert main(["gen", kind, *flags, "--out", str(out)]) == 0
    return read_matrix(out)


def test_gen_gaussian_dense_scale(tmp_path):
    a = _gen(tmp_path, "gaussian-dense", "--m", "40", "--n", "50", "--seed", "81", "--scale", "2")
    b = _gen(tmp_path, "gaussian-dense", "--m", "40", "--n", "50", "--seed", "81")
    assert np.array_equal(a, 2.0 * b)


def test_gen_planted(tmp_path):
    a = _gen(tmp_path, "planted", "--m", "6", "--n", "102", "--seed", "83")
    assert a.shape == (6, 102)
    j = np.arange(1, 103)
    c = np.cos(2 * np.pi * j / 102)
    assert np.abs(a @ c).max() < 1e-8
    # the seed's generator feeds make_planted from the start of its stream
    assert np.array_equal(a, make_planted(6, 102, RngHandle(83).generator()).a)


def test_gen_reproducible(tmp_path):
    flags = ["--m", "3", "--n", "4", "--seed", "84"]
    assert np.array_equal(_gen(tmp_path, "gaussian-dense", *flags),
                          _gen(tmp_path, "gaussian-dense", *flags))


def test_gen_kinds_flags_and_seed(tmp_path, capsys):
    out = str(tmp_path / "a.mat")
    # gaussian-dense with one row is the number-balancing instance
    assert main(["gen", "gaussian-dense", "--m", "1", "--n", "300",
                 "--seed", "82", "--out", out]) == 0
    assert np.array_equal(read_matrix(out), RngHandle(82).generator().standard_normal((1, 300)))
    for argv, problem in (
        (["nonsense", "--t", "3"], "invalid choice"),
        (["identity"], "--t"),
        (["planted", "--m", "6"], "--n"),
        (["gaussian-dense", "--m", "2", "--n", "2"], "--seed"),
    ):
        capsys.readouterr()
        assert main(["gen", *argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert problem in captured.err


def test_gen_takes_no_config_file(tmp_path):
    # a well-formed key=value file is still refused: gen reads flags only
    cfg = tmp_path / "spec.cfg"
    cfg.write_text("m=6\nt=12\n", encoding="utf-8")
    rc = main([
        "gen", "random-unit-columns", "--config", str(cfg),
        "--seed", "5", "--out", str(tmp_path / "cols.mat"),
    ])
    assert rc == 2


# One valid command line per eval op and gen kind, as the flags it reads.
# vdisc reads exactly one of --coupling and --units.
READS = {
    ("eval", "disc"): [[]],
    ("eval", "vdisc"): [["--coupling"], ["--units"]],
    ("eval", "discs"): [["--point"]],
    ("eval", "discg"): [["--coupling", "--samples", "--seed"]],
    ("eval", "online-discg"): [["--stream", "--samples", "--seed"]],
    ("gen", "identity"): [["--t"]],
    ("gen", "random-unit-columns"): [["--m", "--t", "--seed"]],
    ("gen", "gaussian-dense"): [["--m", "--n", "--seed", "--scale"]],
    ("gen", "planted"): [["--m", "--n", "--seed"]],
}


@pytest.mark.parametrize("command, op", list(READS), ids=[op for _, op in READS])
def test_flags_of_other_ops_exit_2(tmp_path, capsys, command, op):
    eye = tmp_path / "eye.mat"
    write_matrix(eye, np.eye(2))
    point = tmp_path / "point.mat"
    write_matrix(point, np.ones((1, 2)))
    value = {
        "--coupling": str(eye), "--units": str(eye), "--point": str(point), "--stream": str(eye),
        "--samples": "10", "--seed": "4", "--m": "3", "--n": "10", "--t": "3", "--scale": "100",
    }
    fixed = ["--input", str(eye)] if command == "eval" else ["--out", str(tmp_path / "g.mat")]
    own = {flag for flags in READS[command, op] for flag in flags}
    others = sorted({
        flag for (cmd, _), runs in READS.items() if cmd == command for flags in runs for flag in flags
    } - own)
    assert others
    cases = []
    for flags in READS[command, op]:
        argv = [command, op, *fixed, *(x for flag in flags for x in (flag, value[flag]))]
        assert main(argv) == 0, argv
        cases += [[*argv, flag, value[flag]] for flag in others]
    # vdisc's two alternatives together, and several foreign flags on one line
    cases += {
        "vdisc": [["eval", "vdisc", *fixed, "--units", str(eye), "--coupling", str(eye)]],
        "disc": [["eval", "disc", *fixed, "--seed", "4", "--samples", "9", "--stream", str(eye)]],
        "identity": [["gen", "identity", *fixed, "--t", "3", "--m", "9", "--n", "4",
                      "--seed", "5", "--scale", "7"]],
    }.get(op, [])
    capsys.readouterr()
    for argv in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().out == "", argv


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
    assert summary["schema"] == SCHEMA_VERSION


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


def test_walk_rejects_overflowing_input(tmp_path, capsys):
    # finite entries whose squared norm overflows: an error, and no warning
    mat = tmp_path / "big.mat"
    write_matrix(mat, np.full((3, 2), 1e200))
    rc = main([
        "walk", "--input", str(mat), "--rank", "4", "--seed", "3", "--out", str(tmp_path / "run"),
    ])
    assert rc == 2
    assert "||v_0|| = inf exceeds 1" in capsys.readouterr().err


@pytest.mark.parametrize("op", ["disc", "vdisc", "discg"])
def test_eval_rejects_non_finite_input(tmp_path, capsys, op):
    mat = tmp_path / "a.mat"
    mat.write_text("2 2\n1 nan\n0 1\n", encoding="utf-8")
    good = tmp_path / "s.mat"
    write_matrix(good, np.eye(2))
    extra = {"disc": [], "vdisc": ["--coupling", str(good)],
             "discg": ["--coupling", str(good), "--samples", "10", "--seed", "1"]}[op]
    assert main(["eval", op, "--input", str(mat), *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {mat}: ")


@pytest.mark.parametrize("op", ["vdisc", "discg"])
def test_eval_rejects_a_coupling_that_is_not_a_correlation_matrix(tmp_path, capsys, op):
    # 4 I is PSD but no correlation matrix: discg would read about twice
    # the identity coupling's value; the second and third have a unit
    # diagonal and an eigenvalue of -0.8 and -1e-4, the third's behind two
    # zero pivots
    mat = tmp_path / "a.mat"
    write_matrix(mat, np.eye(3))
    coup = tmp_path / "s.mat"
    extra = {"vdisc": [], "discg": ["--samples", "100", "--seed", "1"]}[op]
    indefinite = np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9], [-0.9, 0.9, 1.0]])
    coupled = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0001], [1.0, 1.0001, 1.0]])
    for bad, message in [
        (4.0 * np.eye(3), "diagonal is not the all-ones vector\n"),
        (indefinite, "at column 2\n"),
        (coupled, "is too large for a positive semidefinite matrix\n"),
    ]:
        write_matrix(coup, bad)
        assert main(["eval", op, "--input", str(mat), "--coupling", str(coup), *extra]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(message)
        assert captured.err.startswith(f"error: {coup}: ")


@pytest.mark.parametrize("op", ["vdisc", "discg"])
def test_eval_factors_its_coupling_once(tmp_path, capsys, monkeypatch, op):
    calls = []

    def counted(s):
        calls.append(s.shape)
        return psd_cholesky(s)

    monkeypatch.setattr(linalg, "psd_cholesky", counted)
    monkeypatch.setattr(evals, "psd_cholesky", counted)
    mat, coup = tmp_path / "a.mat", tmp_path / "s.mat"
    write_matrix(mat, np.eye(3))
    write_matrix(coup, np.eye(3))
    extra = {"vdisc": [], "discg": ["--samples", "10", "--seed", "1"]}[op]
    assert main(["eval", op, "--input", str(mat), "--coupling", str(coup), *extra]) == 0
    capsys.readouterr()
    assert calls == [(3, 3)]


def test_cli_json_is_strict(tmp_path, capsys):
    # the row sum overflows to inf, which has no JSON form
    mat = tmp_path / "a.mat"
    mat.write_text("1 2\n1e308 1e308\n", encoding="utf-8")
    units = tmp_path / "u.mat"
    write_matrix(units, np.ones((2, 1)))
    with np.errstate(over="ignore"):
        rc = main(["eval", "vdisc", "--input", str(mat), "--units", str(units)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "JSON" in captured.err


def test_eval_disc(tmp_path, capsys):
    mat = tmp_path / "a.mat"
    write_matrix(mat, np.array([[1.0, 1.0], [1.0, -1.0]]))
    assert main(["eval", "disc", "--input", str(mat)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["spec"]["op"] == "disc"
    assert payload["summary"]["value"] == 2.0
    assert payload["summary"]["std_error"] is None
    assert len(payload["spec"]["inputs_digest"]) == 64


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
    value, std_error = payload["summary"]["value"], payload["summary"]["std_error"]
    assert abs(value - math.sqrt(2.0 / math.pi)) < 4.0 * std_error
    assert payload["spec"]["samples"] == 40000

    units = tmp_path / "u.mat"
    write_matrix(units, np.eye(1))
    assert main(["eval", "vdisc", "--input", str(mat), "--units", str(units)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["value"] == 1.0


def test_eval_online_discg(tmp_path, capsys):
    vs = tmp_path / "vs.mat"
    write_matrix(vs, np.eye(3))
    stream = tmp_path / "us.mat"
    write_matrix(stream, np.eye(3))
    rc = main([
        "eval", "online-discg", "--input", str(vs), "--stream", str(stream),
        "--samples", "20000", "--seed", "6",
    ])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["summary"]["value"] > 0.5


def test_eval_online_discg_rejects_non_unit_stream(tmp_path, capsys):
    vs = tmp_path / "vs.mat"
    write_matrix(vs, np.eye(3))
    stream = tmp_path / "us.mat"
    write_matrix(stream, 2.0 * np.eye(3)[:, :2])
    rc = main([
        "eval", "online-discg", "--input", str(vs), "--stream", str(stream),
        "--samples", "100", "--seed", "6",
    ])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unit vectors" in captured.err


def test_eval_matches_the_library_objectives(tmp_path, capsys):
    gen = RngHandle(16).generator()
    u = gen.standard_normal((5, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    x = gen.standard_normal(5)
    files = {
        "a": gen.standard_normal((3, 5)),
        "c": u @ u.T,
        "p": (math.sqrt(5.0) / np.linalg.norm(x) * x)[None, :],
    }
    for name, arr in files.items():
        write_matrix(tmp_path / f"{name}.mat", arr)
    a, coupling, point = (read_matrix(tmp_path / f"{name}.mat") for name in files)
    base = ["--input", str(tmp_path / "a.mat")]
    assert main(["eval", "discs", *base, "--point", str(tmp_path / "p.mat")]) == 0
    value = json.loads(capsys.readouterr().out)["summary"]["value"]
    assert value == discs_objective(a, point.ravel())
    assert main(["eval", "vdisc", *base, "--coupling", str(tmp_path / "c.mat")]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["value"] == vdisc_objective(a, coupling)


def test_eval_discs_rejects_a_point_file_of_more_than_one_row(tmp_path, capsys):
    a, point = tmp_path / "a.mat", tmp_path / "p.mat"
    write_matrix(a, np.ones((2, 6)))
    write_matrix(point, np.ones((2, 3)))
    assert main(["eval", "discs", "--input", str(a), "--point", str(point)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {point}: ")


def test_eval_discs_rejects_an_overflowing_point_without_a_warning(tmp_path, capsys):
    # ||(1e200, 1)|| is finite but its square is not
    a, point = tmp_path / "a.mat", tmp_path / "p.mat"
    write_matrix(a, np.ones((1, 2)))
    point.write_text("1 2\n1e200 1\n", encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["eval", "discs", "--input", str(a), "--point", str(point)]) == 2
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {point}: ||x|| must equal sqrt(2)\n"


def test_eval_names_a_missing_input(tmp_path, capsys):
    mat = tmp_path / "a.mat"
    write_matrix(mat, np.eye(2))
    cases = [
        ("vdisc", [], "--coupling"),
        ("discs", [], "--point"),
        ("discg", ["--seed", "1"], "--coupling"),
        ("discg", ["--coupling", str(mat)], "--seed"),
        ("online-discg", ["--seed", "1"], "--stream"),
        ("online-discg", ["--stream", str(mat)], "--seed"),
    ]
    for op, given, missing in cases:
        assert main(["eval", op, "--input", str(mat), *given]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"usage: discforge eval {op} ")
        assert missing in captured.err.splitlines()[-1]


REPORT_KEYS = {"schema", "experiment", "spec", "seed", "summary", "verdicts", "timings"}


def test_every_report_has_one_schema(tmp_path, capsys):
    # every JSON file a command writes, and every report it prints, is one
    # ExperimentReport summary
    gen = RngHandle(20).generator()
    u = gen.standard_normal((4, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    a = gen.standard_normal((3, 4))
    a /= np.linalg.norm(a, axis=0)  # unit columns, so the walk takes them too
    files = {"a": a, "c": u @ u.T, "u": u, "p": np.ones((1, 4))}
    mat = {name: str(tmp_path / f"{name}.mat") for name in files}
    for name, arr in files.items():
        write_matrix(mat[name], arr)
    out = tmp_path / "out"
    sampling = ["--samples", "100", "--seed", "1"]
    runs = [
        ["walk", "--input", mat["a"], "--rank", "2", "--seed", "1", "--out", str(out / "walk")],
        ["eval", "disc", "--input", mat["a"]],
        ["eval", "vdisc", "--input", mat["a"], "--coupling", mat["c"]],
        ["eval", "vdisc", "--input", mat["a"], "--units", mat["u"]],
        ["eval", "discs", "--input", mat["a"], "--point", mat["p"]],
        ["eval", "discg", "--input", mat["a"], "--coupling", mat["c"], *sampling],
        ["eval", "online-discg", "--input", mat["a"], "--stream", str(out / "walk" / "stream.mat"),
         *sampling],
        ["stationarity", "--r", "2", "--sigma", "0.5", "--runs", "100", "--steps", "5",
         "--seed", "1"],
        ["rounding", "--setting", "spencer", "--n", "22", "--trials", "1", "--seed", "1"],
        ["banaszczyk", "--m", "4", "--t", "8", "--trials", "1", "--samples", "100", "--seed", "1"],
    ]
    for k, argv in enumerate(runs):
        if argv[0] == "eval":
            argv = [*argv, "--out", str(out / f"eval-{k}.json")]
        elif argv[0] != "walk":
            argv = [*argv, "--out", str(out / argv[0])]
        assert main(argv) in (0, 1), argv
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == REPORT_KEYS, argv
        assert printed["experiment"] == argv[0]
    written = sorted(out.rglob("*.json"))
    assert len(written) == len(runs)
    for path in written:
        assert set(json.loads(path.read_text(encoding="utf-8"))) == REPORT_KEYS, path


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
    metrics = json.loads((tmp_path / "stationarity.metrics.jsonl").read_text())
    raw = [metrics["ks_radius"]["p_value"]] + [c["p_value"] for c in metrics["ks_coords"]]
    # the same chains, tested with the scipy.stats forms of the two laws
    gen = RngHandle(seed).generator()
    x0 = sigma * gen.standard_normal((runs, r))
    xs = advance_chain_batch(sigma * sigma, x0, steps, gen)
    expected = {"ks_radius": kstest(np.linalg.norm(xs, axis=1), chi(r, scale=sigma).cdf, method="asymp")}
    for j in range(r):
        expected[f"ks_coordinate_{j}"] = kstest(xs[:, j], norm(scale=sigma).cdf, method="asymp")
    for p, ref in zip(raw, expected.values()):
        assert abs(p - ref.pvalue) <= 5e-14
    # each verdict gates its Holm-adjusted p-value
    for name, p in zip(expected, holm_adjust(raw)):
        assert verdicts[name]["value"] == metrics["ks_holm_p_values"][name] == p
        assert verdicts[name]["passed"]


def test_runs_without_scipy_stats(tmp_path):
    # walk, banaszczyk and rounding never need the chi law or a KS test, and
    # the walk's products are numpy's, so neither importing the package nor
    # running them may load any scipy module; trials and Monte Carlo blocks
    # run in order, so no concurrent module is loaded either
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
def loaded():
    return [k for k in sys.modules if k.split(".")[0] in ("scipy", "concurrent")]
assert not loaded(), ("import", loaded())
for argv in {runs!r}:
    assert discforge.cli.main(argv) == 0, argv[0]
    assert not loaded(), (argv[0], loaded())
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
        "banaszczyk", "--m", "8", "--t", "32",
        "--trials", "3", "--samples", "4000", "--seed", "17", "--out", str(tmp_path),
    ])
    assert rc == 0
    report = json.loads((tmp_path / "banaszczyk.json").read_text())
    assert report["spec"]["rank"] == math.ceil(math.log(8 * 32 / 0.05))
    assert report["verdicts"]["estimate_below_threshold"]["passed"]


def test_banaszczyk_estimates_lie_in_the_draw_free_sandwich(tmp_path):
    # with R the largest prefix row norm, the largest row alone gives
    # E|N(0, R^2)| = sqrt(2/pi) R, and the Gaussian maximal inequality over
    # 2m signed rows gives sqrt(2 ln 2m) R
    m = 16
    for seed in (11, 12):
        out = tmp_path / str(seed)
        rc = main([
            "banaszczyk", "--m", str(m), "--t", "128", "--trials", "10",
            "--samples", "1000", "--seed", str(seed), "--out", str(out),
        ])
        assert rc == 0
        for line in (out / "banaszczyk.metrics.jsonl").read_text().splitlines():
            row = json.loads(line)
            big_r = row["max_row_norm"]
            slack = 3.0 * row["std_error"]
            assert math.sqrt(2.0 / math.pi) * big_r - slack <= row["estimate"]
            assert row["estimate"] <= math.sqrt(2.0 * math.log(2.0 * m)) * big_r + slack


def test_bench_smoke(capsys):
    argv = ["bench", "--m", "64", "--rank", "4", "--t", "16", "--reps", "3", "--seed", "0"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["median_round_seconds"] > 0.0
    direct = bench_per_round(64, 16, 4, reps=3, seed=0)
    assert direct["median_round_seconds"] > 0.0


def test_bench_per_round_needs_a_seed():
    with pytest.raises(TypeError, match="'seed'"):
        bench_per_round(64, 16, 4, 3)


STATIONARITY = ["stationarity", "--r", "2", "--sigma", "0.5", "--runs", "100", "--seed", "1"]
BANASZCZYK = ["banaszczyk", "--trials", "1", "--seed", "1"]
# the files the eval cases below read, written to the working directory
BAD_INPUTS = {
    "a.mat": np.ones((2, 3)),
    "rows4.mat": np.eye(4),  # unit rows, one too many for a.mat
    "rows2x.mat": 2.0 * np.eye(3),  # rows of norm 2
    "long.mat": np.ones((1, 4)),  # a sphere point of the wrong length
    "off.mat": np.array([[2.0, 0.0, 0.0]]),  # off the sqrt(3) sphere
}
EVAL_SAMPLING = ["--samples", "10", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, named",
    [
        (["bench", "--m", "8", "--rank", "4", "--t", "0", "--seed", "1"], "t=0"),
        (["bench", "--m", "8", "--rank", "4", "--reps", "0", "--seed", "1"], "reps=0"),
        ([*STATIONARITY, "--sigma", "-0.5"], "--sigma"),
        ([*STATIONARITY, "--steps", "-3"], "--steps"),
        ([*STATIONARITY, "--steps", "0"], "--steps"),
        ([*STATIONARITY, "--runs", "5"], "--runs"),
        ([*STATIONARITY, "--runs", "50"], "--runs"),
        ([*BANASZCZYK, "--m", "0", "--t", "16"], "--m"),
        ([*BANASZCZYK, "--m", "8", "--t", "0"], "--t"),
        ([*BANASZCZYK, "--m", "8", "--t", "16", "--samples", "0"], "--samples"),
        # the sample count is checked before any file is read
        (["eval", "discg", "--input", "missing.mat", "--coupling", "missing.mat",
          "--samples", "0", "--seed", "1"], "--samples"),
        (["eval", "online-discg", "--input", "missing.mat", "--stream", "missing.mat",
          "--samples", "0", "--seed", "1"], "--samples"),
        # so is the walk's rank; the kernel's rank and variance checks run
        # before the stationarity chain does
        (["walk", "--input", "missing.mat", "--rank", "1", "--seed", "1", "--out", "x"], "r=1"),
        ([*STATIONARITY, "--r", "1"], "r=1"),
        ([*STATIONARITY, "--sigma", "0.4"], "below the admissible floor"),
        (["gen", "random-unit-columns", "--m", "0", "--t", "3", "--seed", "1",
          "--out", "z.mat"], "m=0"),
        # each eval op names the file its evaluator rejects
        (["eval", "online-discg", "--input", "a.mat", "--stream", "rows4.mat", *EVAL_SAMPLING],
         "error: rows4.mat: columns (2, 3) incompatible with stream rows (4, 4)"),
        (["eval", "online-discg", "--input", "a.mat", "--stream", "rows2x.mat", *EVAL_SAMPLING],
         "error: rows2x.mat: rows must be unit vectors"),
        (["eval", "vdisc", "--input", "a.mat", "--units", "rows4.mat"],
         "error: rows4.mat: matrix (2, 3) incompatible with rows (4, 4)"),
        (["eval", "vdisc", "--input", "a.mat", "--units", "rows2x.mat"],
         "error: rows2x.mat: rows must be unit vectors"),
        (["eval", "discs", "--input", "a.mat", "--point", "long.mat"],
         "error: long.mat: matrix (2, 3) incompatible with point (4,)"),
        (["eval", "discs", "--input", "a.mat", "--point", "off.mat"],
         "error: off.mat: ||x|| must equal sqrt(3)"),
    ],
    ids=[
        "bench-t-0", "bench-reps-0", "sigma-negative", "steps-negative", "steps-0",
        "runs-5", "runs-50", "banaszczyk-m-0", "banaszczyk-t-0",
        "banaszczyk-samples-0", "discg-samples-0", "online-discg-samples-0",
        "walk-rank-1", "stationarity-r-1", "stationarity-sigma-below-floor",
        "gen-unit-columns-m-0", "online-discg-stream-rows", "online-discg-stream-not-unit",
        "vdisc-units-rows", "vdisc-units-not-unit", "discs-point-length", "discs-point-off-sphere",
    ],
)
def test_bad_input_exits_2(argv, named, capsys, tmp_path, monkeypatch):
    # relative --out paths land in tmp_path, which must hold only the inputs
    monkeypatch.chdir(tmp_path)
    for name, a in BAD_INPUTS.items():
        write_matrix(name, a)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(BAD_INPUTS)


# the settings no caller varies are constants, and bench takes its seed
# like every other command: each of these is an argparse usage error
@pytest.mark.parametrize(
    "argv, named",
    [
        ([*STATIONARITY, "--level", "0.01"], "--level"),
        ([*STATIONARITY, "--cov-tol", "0.05"], "--cov-tol"),
        ([*BANASZCZYK, "--m", "16", "--t", "128", "--delta", "0.05"], "--delta"),
        ([*BANASZCZYK, "--m", "16", "--t", "128", "--rank", "11"], "--rank"),
        (["bench", "--m", "8", "--rank", "4"], "--seed"),
    ],
    ids=["stationarity-level", "stationarity-cov-tol", "banaszczyk-delta", "banaszczyk-rank",
         "bench-without-seed"],
)
def test_removed_flags_are_usage_errors(argv, named, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("usage: ")
    assert named in captured.err
    assert captured.out == ""


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


def test_readme_usage_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## Command-line usage", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in usage.splitlines() if line.startswith("discforge ")]
    assert lines
    parser = build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README usage line does not parse: {line}")

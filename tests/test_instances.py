import numpy as np

from discforge.cli import main
from discforge.instances import unit_columns
from discforge.linalg import read_matrix
from discforge.rng import RngHandle


def _gen(tmp_path, kind, *flags):
    out = tmp_path / f"{kind}.mat"
    assert main(["gen", kind, *flags, "--out", str(out)]) == 0
    return read_matrix(out)


def test_identity(tmp_path):
    assert np.array_equal(_gen(tmp_path, "identity", "--t", "5"), np.eye(5))


def test_random_unit_columns(tmp_path):
    a = _gen(tmp_path, "random-unit-columns", "--m", "8", "--t", "100", "--seed", "80")
    assert a.shape == (8, 100)
    assert np.abs(np.linalg.norm(a, axis=0) - 1.0).max() <= 1e-12


def test_bad_specs(tmp_path, capsys):
    # each bad spec is refused by the kind's parser: exit 2, nothing on stdout
    out = str(tmp_path / "a.mat")
    for argv, problem in (
        (["nonsense", "--m", "2", "--n", "2", "--seed", "0"], "invalid choice"),
        (["identity"], "--t"),
        (["gaussian-dense", "--m", "2", "--n", "2"], "--seed"),
    ):
        capsys.readouterr()
        assert main(["gen", *argv, "--out", out]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert problem in captured.err


def test_unit_columns_direct():
    cols = unit_columns(4, 32, RngHandle(85))
    assert np.abs(np.linalg.norm(cols, axis=0) - 1.0).max() <= 1e-12

import numpy as np
import pytest

from discforge.errors import BadSpecError
from discforge.instances import InstanceSpec, gen, komlos_normalize, unit_columns
from discforge.linalg import write_matrix
from discforge.rng import RngHandle
from discforge.rounding import make_planted


def test_identity():
    a = gen(InstanceSpec("identity", {"t": 5}))
    assert np.array_equal(a, np.eye(5))


def test_random_unit_columns():
    a = gen(InstanceSpec("random-unit-columns", {"m": 8, "t": 100}, RngHandle(80)))
    assert a.shape == (8, 100)
    assert np.abs(np.linalg.norm(a, axis=0) - 1.0).max() <= 1e-12


def test_gaussian_dense_scale():
    a = gen(InstanceSpec("gaussian-dense", {"m": 40, "n": 50, "scale": 2.0}, RngHandle(81)))
    b = gen(InstanceSpec("gaussian-dense", {"m": 40, "n": 50}, RngHandle(81)))
    assert np.array_equal(a, 2.0 * b)


def test_number_balancing_row():
    a = gen(InstanceSpec("number-balancing-row", {"n": 300}, RngHandle(82)))
    assert a.shape == (1, 300)


def test_planted_delegation():
    a = gen(InstanceSpec("planted", {"m": 6, "n": 102}, RngHandle(83)))
    assert a.shape == (6, 102)
    j = np.arange(1, 103)
    c = np.cos(2 * np.pi * j / 102)
    assert np.abs(a @ c).max() < 1e-8
    # the handle's generator feeds make_planted from the start of its stream
    assert np.array_equal(a, make_planted(6, 102, RngHandle(83).generator()).a)


def test_from_file(tmp_path):
    path = tmp_path / "m.mat"
    write_matrix(path, np.arange(6.0).reshape(2, 3))
    a = gen(InstanceSpec("from-file", {"path": str(path)}))
    assert np.array_equal(a, np.arange(6.0).reshape(2, 3))


def test_reproducible():
    spec = InstanceSpec("gaussian-dense", {"m": 3, "n": 4}, RngHandle(84))
    assert np.array_equal(gen(spec), gen(spec))


def test_bad_specs():
    with pytest.raises(BadSpecError):
        InstanceSpec("nonsense", {})
    with pytest.raises(BadSpecError):
        gen(InstanceSpec("identity", {}))
    with pytest.raises(BadSpecError):
        gen(InstanceSpec("gaussian-dense", {"m": 2, "n": 2}))  # missing seed


def test_komlos_normalize():
    a = np.array([[1.0, 2.0, 0.25, 0.0], [0.0, 0.0, 0.0, 0.0]])
    out = komlos_normalize(a)
    norms = np.linalg.norm(out, axis=0)
    assert np.allclose(norms, [1.0, 1.0, 0.25, 0.0])
    # columns already inside the ball are untouched
    assert np.array_equal(out[:, 2], a[:, 2])
    assert np.array_equal(out[:, 0], a[:, 0])


def test_unit_columns_direct():
    cols = unit_columns(4, 32, RngHandle(85))
    assert np.abs(np.linalg.norm(cols, axis=0) - 1.0).max() <= 1e-12

import numpy as np
import pytest

from discforge.errors import BadSpecError
from discforge.instances import gen, unit_columns
from discforge.rng import RngHandle
from discforge.rounding import make_planted


def test_identity():
    a = gen("identity", None, t=5)
    assert np.array_equal(a, np.eye(5))


def test_random_unit_columns():
    a = gen("random-unit-columns", RngHandle(80), m=8, t=100)
    assert a.shape == (8, 100)
    assert np.abs(np.linalg.norm(a, axis=0) - 1.0).max() <= 1e-12


def test_gaussian_dense_scale():
    a = gen("gaussian-dense", RngHandle(81), m=40, n=50, scale=2.0)
    b = gen("gaussian-dense", RngHandle(81), m=40, n=50)
    assert np.array_equal(a, 2.0 * b)


def test_planted_delegation():
    a = gen("planted", RngHandle(83), m=6, n=102)
    assert a.shape == (6, 102)
    j = np.arange(1, 103)
    c = np.cos(2 * np.pi * j / 102)
    assert np.abs(a @ c).max() < 1e-8
    # the handle's generator feeds make_planted from the start of its stream
    assert np.array_equal(a, make_planted(6, 102, RngHandle(83).generator()).a)


def test_reproducible():
    a = gen("gaussian-dense", RngHandle(84), m=3, n=4)
    assert np.array_equal(a, gen("gaussian-dense", RngHandle(84), m=3, n=4))


def test_bad_specs():
    with pytest.raises(BadSpecError, match="unknown instance kind"):
        gen("nonsense", RngHandle(0), m=2, n=2)
    with pytest.raises(BadSpecError, match=r"needs parameters \['t'\]"):
        gen("identity", None)
    with pytest.raises(BadSpecError, match="needs a seed"):
        gen("gaussian-dense", None, m=2, n=2)


def test_unit_columns_direct():
    cols = unit_columns(4, 32, RngHandle(85))
    assert np.abs(np.linalg.norm(cols, axis=0) - 1.0).max() <= 1e-12

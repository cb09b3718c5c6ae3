import math

import numpy as np
import pytest

from discforge.errors import NoConvergenceError, NotPsdError
from discforge.linalg import (
    PIVOT_RTOL,
    SYM_PANEL,
    SYM_RTOL,
    check_correlation,
    check_symmetric,
    psd_cholesky,
    read_matrix,
    slice_plan,
    top_eigvec,
    write_matrix,
)
from discforge.rng import RngHandle


def eig_rank(s, tol=1e-8):
    # independent rank oracle: count of eigenvalues above tolerance
    return int(np.sum(np.linalg.eigvalsh(s) > tol))


def test_cholesky_identity():
    assert np.array_equal(psd_cholesky(np.eye(2)), np.eye(2))


def test_cholesky_all_ones_zeroes_second_column():
    s = np.ones((2, 2))
    l = psd_cholesky(s)
    assert np.array_equal(l, np.array([[1.0, 0.0], [1.0, 0.0]]))
    assert np.allclose(l @ l.T, s, atol=1e-12)


def test_cholesky_rank_deficient_unit_rows():
    gen = RngHandle(101).generator()
    u = gen.standard_normal((5, 2))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    s = u @ u.T
    l = psd_cholesky(s)
    assert np.count_nonzero(np.diag(l) > 0.0) == eig_rank(s) == 2
    assert np.abs(l @ l.T - s).max() < 1e-8
    assert np.array_equal(l, np.tril(l))
    # columns without a positive pivot are entirely zero
    for j in range(5):
        if l[j, j] <= 0.0:
            assert np.all(l[:, j] == 0.0)


def test_cholesky_idempotent_on_own_outputs():
    gen = RngHandle(102).generator()
    for n, r in [(4, 1), (6, 3), (8, 8), (7, 2)]:
        u = gen.standard_normal((n, r))
        l = psd_cholesky(u @ u.T)
        again = psd_cholesky(l @ l.T)
        assert np.abs(again - l).max() < 1e-10


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPsdError):
        psd_cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPsdError):
        psd_cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric


def coupled_zero_pivots(e):
    # J_3 + e (E_12 + E_21): pivot 0 is 1, columns 1 and 2 are zero pivots
    # with the residual e between them, and the smallest eigenvalue is -e
    s = np.ones((3, 3))
    s[1, 2] = s[2, 1] = 1.0 + e
    return s


# indefinite matrices whose negative eigenvalue hides behind a zero pivot:
# the column-by-column loop alone returns the zero matrix for the first,
# drops the (1, 2) entry of the second (eigenvalue 1 - sqrt(2)) and the
# (2, 1) entry of the third (eigenvalue -1e-4)
HIDDEN_INDEFINITE = [
    np.array([[0.0, 1.0], [1.0, 0.0]]),
    np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]),
    coupled_zero_pivots(1e-4),
]


@pytest.mark.parametrize("scale", [1.0, 1e200])
@pytest.mark.parametrize("s", HIDDEN_INDEFINITE, ids=["swap", "path", "coupled"])
def test_cholesky_rejects_indefinite_behind_a_zero_pivot(s, scale):
    # at 1e200 the squared residual and its bound would both overflow
    with pytest.raises(NotPsdError, match=r"residual entry \(\d+, \d+\)"):
        psd_cholesky(scale * s)


@pytest.mark.parametrize("check", [psd_cholesky, check_correlation])
def test_zero_pivot_residual_bound_reads_the_residual_diagonal(check):
    # row 2's residual diagonal after pivot 0 is 1 - 1 = 0, so the bound on
    # the (2, 1) residual is sqrt(2 tol (0 + tol)) = 1.41 tol; s[2, 2] = 1 in
    # its place would let it reach 1.41e-4
    tol = PIVOT_RTOL
    check(coupled_zero_pivots(1.3 * tol))
    for e in [1.5 * tol, 1e-4]:
        with pytest.raises(NotPsdError, match=r"residual entry \(2, 1\)"):
            check(coupled_zero_pivots(e))


def test_cholesky_zero_matrix():
    assert np.array_equal(psd_cholesky(np.zeros((3, 3))), np.zeros((3, 3)))


def reference_psd_cholesky(s):
    # column by column, every pivot computed: the loop psd_cholesky's
    # skipping of zero-pivot runs must reproduce bit for bit
    s = check_symmetric(s)
    n = s.shape[0]
    scale = max(float(np.trace(s)) / max(n, 1), 1e-30)
    tol = PIVOT_RTOL * scale
    l = np.zeros_like(s)
    for j in range(n):
        d = s[j, j] - l[j, :j] @ l[j, :j]
        if d < -tol:
            raise NotPsdError(f"negative pivot {d:.3e} at column {j}")
        if d > tol:
            l[j, j] = math.sqrt(d)
            if j + 1 < n:
                l[j + 1 :, j] = (s[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / l[j, j]
    return l


def cholesky_case(gen, kind):
    n = int(gen.integers(2, 81))
    u = gen.standard_normal((n, int(gen.integers(1, n + 1))))
    if kind == "unit-rows":
        u /= np.linalg.norm(u, axis=1, keepdims=True)
    elif kind == "repeated-rows":
        rows = gen.choice(n, size=min(n, 4), replace=False)
        u[rows[1:]] = u[rows[0]]
        if len(rows) > 2:
            u[rows[2]] *= -1.0
        if len(rows) > 3:
            u[rows[3]] = 0.0
    s = u @ u.T
    if kind == "indefinite":
        v = gen.standard_normal(n)
        s -= gen.uniform(0.01, 0.5) * np.outer(v, v)
    elif kind == "nudged-diagonal":
        # pivots just inside and just outside the zero tolerance
        tol = PIVOT_RTOL * np.trace(s) / n
        s[np.diag_indices(n)] += gen.choice([-1.5, -0.7, -0.3, 0.3, 0.7, 1.5]) * tol
    return 0.5 * (s + s.T)


def test_cholesky_matches_column_by_column_reference():
    gen = RngHandle(103).generator()
    kinds = ["gram", "unit-rows", "repeated-rows", "indefinite", "nudged-diagonal"]
    raised = deficient = 0
    for i in range(320):
        s = cholesky_case(gen, kinds[i % len(kinds)])
        try:
            want = reference_psd_cholesky(s)
        except NotPsdError as exc:
            raised += 1
            with pytest.raises(NotPsdError) as got:
                psd_cholesky(s)
            assert str(got.value) == str(exc)
            continue
        got = psd_cholesky(s)
        assert np.array_equal(got, want)
        deficient += np.count_nonzero(np.diag(got) > 0.0) < s.shape[0]
    assert raised >= 40 and deficient >= 150


def correlation_case(gen, kind):
    # cholesky_case's matrix rescaled to a unit diagonal (a row whose diagonal
    # entry is not positive keeps its scale and gets a 1 there); for
    # "nudged-diagonal", a Gram matrix shifted to (1 - d) S + d I, which keeps
    # the diagonal and moves its zero eigenvalues to d, near the pivot tolerance
    s = cholesky_case(gen, "gram" if kind == "nudged-diagonal" else kind)
    d = np.diag(s)
    scale = 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0))
    s = s * np.outer(scale, scale)
    if kind == "nudged-diagonal":
        shift = gen.choice([-1.5, -0.7, -0.3, 0.3, 0.7, 1.5]) * PIVOT_RTOL
        s = (1.0 - shift) * s + shift * np.eye(s.shape[0])
    np.fill_diagonal(s, 1.0)
    return s


def test_check_correlation_decides_as_psd_cholesky():
    # at the tolerance edge an eigenvalue rule and the pivot rule part ways:
    # check_correlation must take psd_cholesky's answer on every input
    gen = RngHandle(104).generator()
    kinds = ["gram", "unit-rows", "repeated-rows", "indefinite", "nudged-diagonal"]
    raised = accepted = 0
    for i in range(320):
        s = correlation_case(gen, kinds[i % len(kinds)])
        try:
            psd_cholesky(s)
        except NotPsdError as exc:
            raised += 1
            with pytest.raises(NotPsdError) as got:
                check_correlation(s)
            assert str(got.value) == str(exc)
            continue
        accepted += 1
        assert check_correlation(s) is s
    assert raised >= 40 and accepted >= 150


def test_check_symmetric_tolerance_boundary_leaves_input_unchanged():
    base = np.array([[-4.0, -1.0, 2.0], [-1.0, 3.0, -2.0], [2.0, -2.0, -1.0]])
    scale = 4.0
    for factor, accepted in [(0.5, True), (2.0, False)]:
        s = base.copy()
        s[0, 1] += factor * SYM_RTOL * scale
        before = s.copy()
        if accepted:
            assert check_symmetric(s) is s
        else:
            with pytest.raises(NotPsdError, match="not symmetric"):
                check_symmetric(s)
        assert np.array_equal(s, before)


@pytest.mark.parametrize("n", [SYM_PANEL - 1, SYM_PANEL, 2 * SYM_PANEL + 5])
def test_check_symmetric_panels_decide_as_the_whole_gap(n):
    # below, at and past the panel size: a pair planted on either side of
    # the diagonal, in any panel, is judged as |s - s^T| of the whole would
    gen = RngHandle(31).generator()
    x = gen.standard_normal((n, n))
    base = x + x.T
    scale = max(float(np.abs(base).max()), 1.0)
    for i, j in [(0, n - 1), (n - 1, 0), (n // 2, n // 3), (n - 2, n - 1), (1, 0)]:
        for factor in (0.5, 2.0):
            s = base.copy()
            s[i, j] += factor * SYM_RTOL * scale
            whole = float(np.abs(s - s.T).max()) > SYM_RTOL * max(float(np.abs(s).max()), 1.0)
            assert whole == (factor == 2.0)
            if whole:
                with pytest.raises(NotPsdError, match="not symmetric"):
                    check_symmetric(s)
            else:
                assert check_symmetric(s) is s


def test_slice_plan():
    def lengths(total, width):
        plan = slice_plan(total, width)
        assert [sl.start for sl in plan] == [0, *(sl.stop for sl in plan)][: len(plan)]
        assert sum(sl.stop - sl.start for sl in plan) == total
        return [sl.stop - sl.start for sl in plan]

    assert lengths(0, 16) == []
    assert lengths(1, 16) == [1]
    assert lengths(20, 16) == [16, 4]
    assert lengths(17, 16) == [17]  # a remainder of one joins its neighbour
    assert lengths(33, 20) == [16, 17]  # the width is rounded down to 8s
    assert lengths(10, 3) == [8, 2]  # and is at least 8


def test_top_eigvec_diagonal():
    v = top_eigvec(np.diag([3.0, 1.0]), np.ones(2))
    assert abs(abs(v[0]) - 1.0) < 1e-8 and abs(v[1]) < 1e-8


def test_top_eigvec_planted_plane():
    n = 10
    j = np.arange(1, n + 1)
    c = np.cos(2 * np.pi * j / n)
    s = np.sin(2 * np.pi * j / n)
    sigma = np.outer(c, c) + np.outer(s, s)
    # np.ones(n) is orthogonal to the plane, so start from a random vector
    v = top_eigvec(sigma, RngHandle(3).generator().standard_normal(n))
    lam = float(v @ sigma @ v)
    assert abs(lam - n / 2) < 1e-8
    # v lies in span{c, s}
    proj = (v @ c) * c / (c @ c) + (v @ s) * s / (s @ s)
    assert np.linalg.norm(v - proj) < 1e-7


def test_top_eigvec_rank_one():
    c = np.array([2.0, -1.0, 2.0])
    v = top_eigvec(np.outer(c, c), np.ones(3))
    direction = c / np.linalg.norm(c)
    assert min(np.linalg.norm(v - direction), np.linalg.norm(v + direction)) < 1e-8


def test_top_eigvec_no_convergence_on_tight_spectrum():
    # the residual shrinks like (1 - 1e-6)^k, so the relative tolerance
    # 1e-9 is millions of sweeps away: the 10 000-sweep budget runs out
    s = np.diag([1.0, 1.0 - 1e-6])
    with pytest.raises(NoConvergenceError, match="in 10000 sweeps"):
        top_eigvec(s, np.ones(2))


def test_check_psd_and_correlation():
    check_correlation(np.eye(3))
    with pytest.raises(NotPsdError):
        check_correlation(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(NotPsdError):
        check_correlation(2.0 * np.eye(3))


def test_matrix_file_round_trip(tmp_path):
    gen = RngHandle(11).generator()
    a = gen.standard_normal((3, 5)) * math.pi
    path = tmp_path / "a.mat"
    write_matrix(path, a)
    b = read_matrix(path)
    assert np.array_equal(a, b)
    text = path.read_text(encoding="utf-8")
    assert text.splitlines()[0] == "3 5"
    # shapes without entries: m x 0 is written as m empty rows
    for shape in ((3, 0), (0, 4), (1, 1), (1, 3), (3, 1)):
        a = gen.standard_normal(shape)
        write_matrix(path, a)
        b = read_matrix(path)
        assert b.shape == shape
        assert np.array_equal(a, b)


def test_write_matrix_text_and_memory(tmp_path, traced_peak):
    # the text is that of joining every formatted row at once, but only a
    # row at a time is held: 4096 x 384 is about 31 MB of text
    gen = RngHandle(12).generator()
    path = tmp_path / "a.mat"
    for shape in ((3, 5), (3, 0), (0, 4), (1, 1)):
        a = gen.standard_normal(shape) * math.pi
        write_matrix(path, a)
        lines = [f"{shape[0]} {shape[1]}", *(" ".join(map(repr, row)) for row in a.tolist())]
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    a = gen.standard_normal((4096, 384))
    assert traced_peak(lambda: write_matrix(path, a)) <= 4_000_000
    assert path.stat().st_size > 30_000_000


def test_matrix_file_errors(tmp_path):
    bad = tmp_path / "bad.mat"
    for text, problem in (
        ("2 2\n1 2\n", "expected 2 rows, found 1"),
        ("", "empty matrix file"),
        ("\n\n", "empty matrix file"),
        ("2\n1 2\n", "expected 'm n' header"),
        ("a b\n", "expected 'm n' header"),
        ("-1 2\n", "expected 'm n' header"),
        ("2 2\n1 2 3\n4 5 6\n", "rows have 3 entries, expected 2"),
        ("2 2\n1 2\n3\n", "number of columns changed"),
        ("2 2\n1 x\n3 4\n", "could not convert"),
        ("2 0\n1 2\n", "expected 2 rows, found 1"),
        ("2 2\n1 nan\n3 4\n", "non-finite"),
        ("2 2\n1 2\ninf 4\n", "non-finite"),
        ("1 2\n-inf 1\n", "non-finite"),
    ):
        bad.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match=problem) as err:
            read_matrix(bad)
        assert str(err.value).startswith(f"{bad}: ")

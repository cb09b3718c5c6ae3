"""Dense numeric substrate: PSD checks, rank-revealing Cholesky, power
iteration, and the shared matrix file format.

Matrices are plain float64 numpy arrays. The validators below are the
boundary checks used by everything downstream; they return the validated
array so call sites can chain them.
"""
from __future__ import annotations

import math
import warnings
from pathlib import Path

import numpy as np

from .errors import DimMismatchError, NoConvergenceError, NotPsdError

__all__ = [
    "check_matrix",
    "check_symmetric",
    "check_unit_diagonal",
    "check_correlation",
    "psd_cholesky",
    "top_eigvec",
    "read_matrix",
    "write_matrix",
    "slice_plan",
]

# Relative pivot tolerance deciding rank in the semidefinite Cholesky.
PIVOT_RTOL = 1e-8
# Symmetry slack of check_symmetric.
SYM_RTOL = 1e-12
# Unit-diagonal slack for correlation matrices.
DIAG_ATOL = 1e-10
# Power iteration stops at relative residual EIGVEC_TOL, or gives up after
# EIGVEC_MAX_ITER sweeps.
EIGVEC_TOL = 1e-9
EIGVEC_MAX_ITER = 10_000
# check_symmetric compares the matrix with its transpose in panels of this
# many rows, so no n x n temporary is made.
SYM_PANEL = 64
# The one memory budget of the package's sliced product temporaries.
SLICE_BYTES = 1 << 20


def check_matrix(a: np.ndarray) -> np.ndarray:
    """Validate a dense real matrix: 2-d, finite entries."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimMismatchError(f"expected a 2-d array, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def check_symmetric(s: np.ndarray) -> np.ndarray:
    """Validate a finite square matrix whose largest |s - sT| entry is at
    most SYM_RTOL times its largest |entry| (taken as at least 1).

    The gap is measured first, and finiteness and the scale are scanned
    only when it is above SYM_RTOL or not finite: a nan or inf entry makes
    some gap entry non-finite, and the scale is at least 1, so no failing
    matrix is let through.
    """
    s = np.asarray(s, dtype=float)
    square = s.ndim == 2 and s.shape[0] == s.shape[1]
    worst = _symmetry_gap(s) if square else math.inf
    if not worst <= SYM_RTOL:
        s = check_matrix(s)
        n, m = s.shape
        if n != m:
            raise DimMismatchError(f"expected a square matrix, got {n}x{m}")
        scale = max(float(s.max(initial=0.0)), -float(s.min(initial=0.0)), 1.0)
        if worst > SYM_RTOL * scale:
            raise NotPsdError("matrix is not symmetric")
    return s


def _symmetry_gap(s: np.ndarray) -> float:
    """Largest |s[p, q] - s[q, p]| of a square matrix; nan when an entry is nan."""
    # panel i holds |s[p, q] - s[q, p]| for its rows p and every q >= i; an
    # entry left of the panel was measured, transposed, by an earlier one
    worst = np.float64(0.0)
    for i in range(0, s.shape[0], SYM_PANEL):
        gap = s[i : i + SYM_PANEL, i:] - s[i:, i : i + SYM_PANEL].T
        np.abs(gap, out=gap)
        worst = np.maximum(worst, gap.max(initial=0.0))  # keeps a nan, unlike max()
    return float(worst)


def check_unit_diagonal(s: np.ndarray) -> np.ndarray:
    """Validate a 2-d array whose diagonal is the all-ones vector within
    DIAG_ATOL. Only the diagonal is read: symmetry and finiteness are left
    to check_symmetric, run by the caller or by psd_cholesky."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2:
        raise DimMismatchError(f"expected a 2-d array, got shape {s.shape}")
    if float(np.abs(np.diagonal(s) - 1.0).max(initial=0.0)) > DIAG_ATOL:
        raise NotPsdError("diagonal is not the all-ones vector")
    return s


def check_correlation(s: np.ndarray) -> np.ndarray:
    """Validate an elliptope member: check_unit_diagonal, then psd_cholesky,
    whose pivot rule is the package's one PSD decision and whose
    check_symmetric is the one symmetry scan."""
    s = check_unit_diagonal(s)
    psd_cholesky(s)
    return s


def psd_cholesky(s: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L Lt = s for positive semidefinite s.

    Unlike the strict Cholesky factor, rank deficiency is allowed: L has
    exactly rank(s) strictly positive diagonal entries and the remaining
    columns are identically zero, which makes the factor unique. Pivots
    are judged relative to trace(s)/n; a pivot below -PIVOT_RTOL times
    that scale raises NotPsdError, and so does a zero-pivot column whose
    residual no matrix within that tolerance of PSD could leave.

    Runs of zero-pivot columns are skipped: a downdated residual diagonal
    points to the next column whose residual is more than half the pivot
    tolerance from zero, so a rank-k input takes k pivot steps. A visited
    column's pivot is computed exactly as in a column-by-column loop, and
    a skipped column's pivot differs from its residual only by rounding,
    far inside the other half of the tolerance, so it would have stayed
    zero there too: the unique factor is unchanged.
    """
    s = check_symmetric(s)
    n = s.shape[0]
    scale = max(float(np.trace(s)) / max(n, 1), 1e-30)
    tol = PIVOT_RTOL * scale
    skip = 0.5 * tol
    l = np.zeros_like(s)
    resid = np.diag(s).copy()
    j = 0
    while j < n:
        if -skip <= resid[j] <= skip:
            live = np.flatnonzero(np.abs(resid[j + 1 :]) > skip)
            if live.size == 0:
                break
            j += 1 + int(live[0])
        d = s[j, j] - l[j, :j] @ l[j, :j]
        if d < -tol:
            raise NotPsdError(f"negative pivot {d:.3e} at column {j}")
        if d > tol:
            l[j, j] = math.sqrt(d)
            if j + 1 < n:
                l[j + 1 :, j] = (s[j + 1 :, j] - l[j + 1 :, :j] @ l[j, :j]) / l[j, j]
                resid[j + 1 :] -= l[j + 1 :, j] ** 2
        # pivot within tolerance of zero: the column stays zero
        j += 1
    _check_zero_columns(s, l, tol)
    return l


def _check_zero_columns(s: np.ndarray, l: np.ndarray, tol: float) -> None:
    """Reject s unless the residual r = s - L Lt is small in every column z
    that L left zero.

    A zero pivot proves column z of r zero only when s is PSD. For i > z,
    r[i, z] is an entry of the Schur complement S left by L's nonzero
    columns before z: S[z, z] is the zero pivot, at most tol, and
    S[i, i] = d is s[i, i] less the squares of row i's entries in those
    columns, taken as at least 0. An entry past the Cauchy-Schwarz bound of
    S + tol I, r[i, z]^2 <= 2 tol (d + tol), raises NotPsdError. r is
    formed in panels of SYM_PANEL rows, so no n x n temporary is made, and
    d only for a panel with an entry above the least bound, sqrt(2) tol.
    """
    live = np.diag(l) != 0.0
    zero = np.flatnonzero(~live)
    if zero.size == 0:
        return
    first = int(zero[0])
    live_after = np.flatnonzero(live[first:])  # offsets from first
    f = l[:, live]
    # the bound's square root, taken factor by factor so that neither side
    # of r <= bound overflows or underflows at any scale
    root_tol = math.sqrt(2.0 * tol)
    least = root_tol * math.sqrt(tol)
    on_or_above = ~np.tri(SYM_PANEL, SYM_PANEL - 1, -1, dtype=bool)
    n = s.shape[0]
    for lo in range(first + 1, n, SYM_PANEL):
        hi = min(lo + SYM_PANEL, n)
        cols = slice(first, hi - 1)
        # |r[i, z]| for the panel's rows i and first <= z < hi - 1, zero
        # where z >= i or column z is not zero
        r = f[lo:hi] @ f[cols].T
        np.subtract(s[lo:hi, cols], r, out=r)
        np.abs(r, out=r)
        r[:, live_after[live_after < hi - 1 - first]] = 0.0
        r[:, lo - first :][on_or_above[: hi - lo, : hi - 1 - lo]] = 0.0
        if r.max(initial=0.0) <= least:
            continue
        # l[i, z] = 0, so the squares summed through column z are d's
        d = np.diagonal(s)[lo:hi, None] - np.cumsum(l[lo:hi, : hi - 1] ** 2, axis=1)[:, first:]
        over = r > root_tol * np.sqrt(np.maximum(d, 0.0) + tol)
        if over.any():
            j, c = np.unravel_index(np.argmax(over), over.shape)
            i, z = lo + int(j), first + int(c)
            raise NotPsdError(
                f"residual entry ({i}, {z}) = {s[i, z] - l[i] @ l[z]:.3e} is too large "
                "for a positive semidefinite matrix"
            )


def top_eigvec(s: np.ndarray, init: np.ndarray) -> np.ndarray:
    """Dominant unit eigenvector of a nonzero PSD matrix via power iteration
    from the nonzero start vector ``init``.

    Stops once ||s v - l v|| <= EIGVEC_TOL * l with l = vT s v. When the top
    eigenvalue is not simple, the iterates approach the normalized
    projection of ``init`` onto its eigenspace. Raises NoConvergenceError
    after EIGVEC_MAX_ITER sweeps, which in practice signals a near-degenerate
    top of the spectrum.
    """
    s = check_symmetric(s)
    if not s.any():
        raise ValueError("top_eigvec needs a nonzero matrix")
    v = np.asarray(init, dtype=float).copy()
    nv = np.linalg.norm(v)
    if nv == 0.0:
        raise ValueError("zero initialization vector")
    v /= nv
    for _ in range(EIGVEC_MAX_ITER):
        w = s @ v
        lam = float(v @ w)
        if np.linalg.norm(w - lam * v) <= EIGVEC_TOL * abs(lam) and lam != 0.0:
            return v
        nw = np.linalg.norm(w)
        if nw == 0.0:
            raise NoConvergenceError("iterate collapsed to the null space")
        v = w / nw
    raise NoConvergenceError(f"power iteration did not converge in {EIGVEC_MAX_ITER} sweeps")


def slice_plan(total: int, width: int) -> list[slice]:
    """Consecutive slices of range(total) for a product taken slice by
    slice, each of width rounded down to a multiple of 8 (at least 8)
    items except the last.

    On OpenBLAS, products over slices of multiples of 8 rounded each entry
    as the product of the whole did, except at times in the last slice's
    final total % 8 items or where a slice was small enough for its
    small-matrix kernel. A remainder of one is joined to the slice before
    it, since numpy hands a product with one row or column to gemv.
    """
    width = max(8, width // 8 * 8)
    starts = list(range(0, total, width))
    if len(starts) > 1 and total - starts[-1] == 1:
        starts.pop()
    return [slice(lo, hi) for lo, hi in zip(starts, starts[1:] + [total])]


def write_matrix(path: str | Path, a: np.ndarray) -> None:
    """Write the shared text format: 'm n' header, then one row per line.

    Rows are written as they are formatted, so the text of the whole
    matrix is never held in memory.
    """
    a = check_matrix(a)
    m, n = a.shape
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n}\n")
        for row in a:
            fh.write(" ".join(map(repr, row.tolist())) + "\n")


def read_matrix(path: str | Path) -> np.ndarray:
    """Read the shared text format written by write_matrix, through
    check_matrix, so a nan or inf entry is rejected.

    Blank lines are skipped, so an m x 0 matrix (m empty rows) reads back
    from its header alone.
    """
    with open(path, encoding="utf-8") as fh:
        header = next((ln for ln in fh if ln.strip()), None)
        if header is None:
            raise ValueError(f"{path}: empty matrix file")
        dims = header.split()
        if len(dims) != 2 or not all(d.isdecimal() for d in dims):
            raise ValueError(f"{path}: expected 'm n' header, got {header.strip()!r}")
        m, n = int(dims[0]), int(dims[1])
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # a body with no entries
                a = np.loadtxt(fh, dtype=float, ndmin=2, comments=None)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if a.size == 0:
        a = np.zeros((m if n == 0 else 0, n))
    if a.shape[0] != m:
        raise ValueError(f"{path}: expected {m} rows, found {a.shape[0]}")
    if a.shape[1] != n:
        raise ValueError(f"{path}: rows have {a.shape[1]} entries, expected {n}")
    try:
        return check_matrix(a)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc

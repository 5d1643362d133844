"""Symmetric-matrix numerics on a float64 or exact-rational backend.

Float work (eigendecomposition, thresholded rank, PSD tests) runs on numpy.
Exact work (rank, PSD pivots) runs fraction-free on the integer form of a
rational matrix, numerators over one common denominator: in int64 while no
step can overflow, on Python ints after.  Verdicts on rational matrices are
therefore bit-exact rather than threshold-dependent.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral, Rational
from typing import Optional, Sequence

import numpy as np

from .certificate import Certificate
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidMatrix,
    InvalidParams,
    NotRealizable,
    NotUnitDiagonal,
)

RATIONAL = "rational"
FLOAT64 = "float64"


@dataclass(frozen=True)
class Tolerance:
    """Numeric thresholds used by every float-backend verdict.

    eig_zero   relative threshold below which an eigenvalue counts as zero
    psd_slack  allowed negative dip for a PSD verdict
    angle_tol  inner-product matching tolerance
    """

    eig_zero: float = 1e-8
    psd_slack: float = 1e-9
    angle_tol: float = 1e-9

    def __post_init__(self):
        # from 1 up an angle window covers [-1, 1] and eig_zero zeroes every eigenvalue
        if not all(0 < x < 1 for x in (self.eig_zero, self.psd_slack, self.angle_tol)):
            raise InvalidParams("every tolerance must lie strictly between 0 and 1")


DEFAULT_TOL = Tolerance()


class SymMatrix:
    """Dense symmetric matrix whose numeric backend follows from how it is built.

    A numpy array of non-object dtype, or rows with a non-rational entry,
    give float64, stored as a numpy array.  Rows of Python rationals (int,
    ``Fraction``) and ``from_integers`` give the rational backend: an integer
    matrix over one common positive denominator, entry (i, j) being
    ``num[i, j] / den``, in int64 when the integers fit and Python ints
    otherwise.  Instances are immutable; a float matrix keeps the
    eigenvalues of its first ``sym_eigen`` for ``rank_of`` and ``is_psd``.
    """

    __slots__ = ("order", "_array", "_den", "_eigenvalues")

    def __init__(self, data):
        if isinstance(data, SymMatrix):
            raise InvalidMatrix("wrap raw entries, not another SymMatrix")
        if (isinstance(data, np.ndarray) and data.dtype != object) or not _all_rational(data):
            self._store(np.array(data, dtype=float), None)
        else:
            rows = [[Fraction(x) for x in row] for row in data]
            den = math.lcm(*(x.denominator for row in rows for x in row))
            self._store(_integer_array([[x.numerator * (den // x.denominator) for x in row]
                                        for row in rows]), den)

    @property
    def backend(self) -> str:
        """RATIONAL when the matrix is held as integers over ``_den``, else FLOAT64."""
        return FLOAT64 if self._den is None else RATIONAL

    def _store(self, arr: np.ndarray, den: Optional[int]):
        """Keep a fresh array read-only, with ``den`` None on float64.

        InvalidMatrix unless it is square, finite and exactly symmetric.
        """
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise InvalidMatrix("expected a square matrix of order >= 1")
        if arr.dtype.kind == "f" and not np.isfinite(arr).all():
            raise InvalidMatrix("matrix entries must be finite")
        if not np.array_equal(arr, arr.T):
            raise InvalidMatrix("matrix entries must be exactly symmetric")
        arr.flags.writeable = False
        self._array = arr
        self._den = den
        self._eigenvalues = None
        self.order = arr.shape[0]

    # construction helpers -------------------------------------------------

    @classmethod
    def from_integers(cls, num, den: int = 1) -> "SymMatrix":
        """Exact matrix ``num / den`` from a symmetric integer array."""
        den = operator.index(den)
        if den < 1:
            raise InvalidMatrix("the common denominator must be a positive integer")
        out = cls.__new__(cls)
        out._store(_integer_array(num), den)
        return out

    @classmethod
    def from_array_symmetrized(cls, arr):
        """Float matrix from a nearly symmetric array, symmetrized exactly."""
        arr = np.asarray(arr, dtype=float)
        return cls((arr + arr.T) / 2.0)

    # accessors -------------------------------------------------------------

    def entry(self, i, j):
        if self.backend == FLOAT64:
            return float(self._array[i, j])
        return Fraction(int(self._array[i, j]), self._den)

    def rows(self):
        """Rational rows (rational backend only), built from the integers per call."""
        if self.backend != RATIONAL:
            raise InvalidMatrix("rows() requires the rational backend")
        den = self._den
        return tuple(tuple(Fraction(x, den) for x in row) for row in self._array.tolist())

    def as_array(self) -> np.ndarray:
        if self.backend == FLOAT64:
            return self._array
        num, den = self._array, self._den
        if num.dtype != object and max(den, _max_abs(num)) <= _FLOAT_EXACT:
            return num / den  # both exact in float64: one correctly rounded division
        return np.array([[x / den for x in row] for row in num.tolist()])

    def to_float(self) -> "SymMatrix":
        if self.backend == FLOAT64:
            return self
        return SymMatrix(self.as_array())

    def trace(self):
        if self.backend == FLOAT64:
            return float(np.trace(self._array))
        return Fraction(sum(int(x) for x in np.diagonal(self._array)), self._den)

    def trace_square(self):
        """trace(M^2), computed as the sum of squared entries."""
        if self.backend == FLOAT64:
            return float(np.sum(self._array * self._array))
        return Fraction(sum(x * x for row in self._array.tolist() for x in row),
                        self._den ** 2)

    def __repr__(self):
        return f"SymMatrix(order={self.order}, backend={self.backend})"


def _integer_array(num) -> np.ndarray:
    """Copy of an integer array as int64, or as Python ints if int64 is too narrow."""
    arr = num if isinstance(num, np.ndarray) else np.array(num, dtype=object)
    if arr.dtype.kind == "i":
        return arr.astype(np.int64)
    if arr.dtype.kind not in "uO" or not all(isinstance(x, Integral) for x in arr.flat):
        raise InvalidMatrix("expected integer entries")
    ints = [int(x) for x in arr.flat]
    try:
        return np.array(ints, dtype=np.int64).reshape(arr.shape)
    except OverflowError:
        return np.array(ints, dtype=object).reshape(arr.shape)


def _all_rational(data) -> bool:
    for row in data:
        for x in row:
            if not isinstance(x, Rational):
                return False
    return True


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition, eigenvalues sorted descending."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    residual: float

    def __post_init__(self):
        d = np.diff(self.eigenvalues)
        if d.size and d.max() > 0:
            raise InvalidMatrix("eigenvalues must be sorted descending")


def sym_eigen(M: SymMatrix) -> Spectrum:
    """Eigendecomposition of a float64 symmetric matrix.

    Returns eigenvalues in descending order with matching orthonormal
    eigenvector columns and the worst per-pair residual max |Mv - lambda v|.
    """
    if M.backend != FLOAT64:
        raise InvalidMatrix("sym_eigen requires the float64 backend")
    a = M.as_array()
    vals, vecs = np.linalg.eigh(a)
    vals = vals[::-1].copy()
    vals.flags.writeable = False
    vecs = vecs[:, ::-1].copy()
    residual = float(np.abs(a @ vecs - vecs * vals[np.newaxis, :]).max())
    if M._eigenvalues is None:
        M._eigenvalues = vals
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, residual=residual)


def _eigenvalues(M: SymMatrix) -> np.ndarray:
    """Descending eigenvalues of a float M, from its first ``sym_eigen``."""
    if M._eigenvalues is None:
        sym_eigen(M)
    return M._eigenvalues


def rank_of(M: SymMatrix, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a symmetric matrix.

    Float backend: eigenvalues above ``eig_zero`` relative to the largest
    magnitude.  Rational backend: exact rank by fraction-free elimination
    with row pivoting, so indefinite input is fine.
    """
    if M.backend == RATIONAL:
        return _fraction_free(M._array)[0]
    return _float_rank(_eigenvalues(M), tol)


def _float_rank(eigenvalues: np.ndarray, tol: Tolerance) -> int:
    vals = np.abs(eigenvalues)
    cutoff = tol.eig_zero * max(1.0, float(vals.max(initial=0.0)))
    return int(np.count_nonzero(vals > cutoff))


def is_psd(M: SymMatrix, tol: Tolerance = DEFAULT_TOL) -> Certificate:
    """Positive-semidefiniteness certificate.

    Float backend passes iff the smallest eigenvalue clears
    ``-psd_slack * max(1, |lambda|_max)``; the rational backend runs exact
    symmetric elimination and reports the first failing pivot, if any.
    """
    if M.backend == RATIONAL:
        rank, witness = _fraction_free(M._array, M._den, symmetric=True)
        return Certificate(
            name="psd", statement="all leading pivots of the symmetric elimination are >= 0",
            passed=witness is None, lhs=0, rhs=0 if witness is None else witness["pivot"],
            tol=0.0, witness=witness or {"rank": rank})
    return _float_psd(_eigenvalues(M), tol)


def _float_psd(vals: np.ndarray, tol: Tolerance) -> Certificate:
    lam_min = float(vals[-1])
    lam_scale = max(1.0, float(np.abs(vals).max()))
    slack = tol.psd_slack * lam_scale
    return Certificate.check(
        "psd", "smallest eigenvalue >= -psd_slack * max(1, |lambda|_max)",
        lhs=0.0, rhs=lam_min, tol=slack, witness={"lambda_min": lam_min})


def trace_rank_lower_bound(M: SymMatrix):
    """Lower bound trace(M)^2 / trace(M^2) on the rank of a symmetric M.

    Exact ``Fraction`` on the rational backend, float otherwise.
    """
    t2 = M.trace_square()
    if t2 <= 0:
        raise DegenerateInput("trace(M^2) must be positive")
    t = M.trace()
    if M.backend == RATIONAL:
        return Fraction(t * t, t2)
    return float(t * t / t2)


def quadratic_form(M: SymMatrix, v: Sequence):
    """v^T M v, exact on the rational backend when v is rational: with D the
    lcm of v's denominators and w = Dv, w^T num w / (den D^2) on Python ints."""
    v = list(v)
    if len(v) != M.order:
        raise DimensionMismatch(
            f"vector length {len(v)} != matrix order {M.order}")
    if M.backend == RATIONAL and _all_rational([v]):
        v = [Fraction(x) for x in v]
        scale = math.lcm(*(x.denominator for x in v))
        w = np.array([x.numerator * (scale // x.denominator) for x in v], dtype=object)
        return Fraction(int(w @ M._array.astype(object) @ w), M._den * scale * scale)
    x = np.asarray(v, dtype=float)
    return float(x @ M.as_array() @ x)


def embed_from_gram(M: SymMatrix, tol: Tolerance = DEFAULT_TOL):
    """Unit vectors in R^rank(M) whose Gram matrix reproduces M.

    Requires M to be PSD with a unit diagonal.  One float spectrum serves
    the PSD verdict, the rank and the embedding; a rational M is instead
    certified by one exact symmetric sweep, whose positive pivots give the
    rank, and refused unless its float spectrum has that rank.  The
    embedding scales the eigenvectors of the nonzero spectrum by
    sqrt(lambda); rows are then renormalized so every output vector is unit
    length.  The result is only canonical up to orthogonal transformation,
    so callers should compare Gram matrices, never raw vectors.
    """
    from .codes import Code

    n = M.order
    for i in range(n):
        if abs(M.entry(i, i) - 1) > tol.angle_tol:
            raise NotUnitDiagonal(f"diagonal entry {i} is {M.entry(i, i)}, not 1")
    if M.backend == RATIONAL:
        cert = is_psd(M, tol)
    else:
        spec = sym_eigen(M)
        cert = _float_psd(spec.eigenvalues, tol)
    if not cert.passed:
        raise NotRealizable(f"matrix is not PSD: {cert.witness}")
    if M.backend == RATIONAL:
        spec = sym_eigen(M.to_float())
    r = _float_rank(spec.eigenvalues, tol)
    if M.backend == RATIONAL and r != cert.witness["rank"]:
        raise NotRealizable(
            f"float spectrum has rank {r}, exact rank is {cert.witness['rank']}")
    vals = np.clip(spec.eigenvalues[:r], 0.0, None)
    vecs = spec.eigenvectors[:, :r]
    X = vecs * np.sqrt(vals)[np.newaxis, :]
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms < 1e-12):
        raise NotRealizable("degenerate embedding row")
    X = X / norms[:, np.newaxis]
    return Code(X, tol)


# exact fraction-free elimination ------------------------------------------


_GUARD = 2 ** 62        # int64 steps need 2 * max|entry|^2 below this
_FLOAT_EXACT = 2 ** 53  # integers up to here convert to float64 exactly


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max()), -int(a.min()))


def _fraction_free(num, den: int = 1, symmetric: bool = False):
    """Bareiss (1968) fraction-free elimination of the integer matrix ``num``.

    After step k every live entry is a minor of order k + 1 of ``num``, so
    each division by the previous pivot is exact.  The sweep runs on an
    int64 copy while ``2 * max|entry|^2 < 2^62``; at the first step where
    that guard fails the working array is promoted to Python ints and the
    sweep carries on from that step.

    ``symmetric=True`` is the PSD sweep: diagonal pivots, no exchanges.  It
    stops at a negative pivot, or at a zero pivot whose row is not all zero
    (a negative 2x2 principal minor), and returns that witness with the
    rank so far; otherwise the matrix is PSD and the number of positive
    pivots is its rank.  Once promoted it updates only the upper triangle
    of the trailing block.  ``symmetric=False`` finds the rank of any
    matrix, indefinite ones included, with row pivoting.

    Returns ``(rank, witness)``; the witness is None unless a symmetric
    sweep found the matrix not PSD.  ``den`` only scales witness pivots.
    """
    A = np.array(num)
    m = A.shape[0]
    prev, rank = 1, 0
    upper = None
    for col in range(m):
        if symmetric:
            row = col
            d = int(A[col, col])
            if d < 0:
                return rank, {"pivot_index": col, "pivot": Fraction(d, prev * den)}
            if d == 0:
                nz = np.flatnonzero(A[col, col:])
                if nz.size:
                    return rank, {"pivot_index": col, "pivot": Fraction(0),
                                  "indefinite_pair": (col, col + int(nz[0]))}
                continue
        else:
            row = rank
            nz = np.flatnonzero(A[row:, col])
            if nz.size == 0:
                continue
            if nz[0]:
                piv = row + int(nz[0])
                A[[row, piv], :] = A[[piv, row], :]
            d = int(A[row, col])
        if A.dtype != object and 2 * _max_abs(A[row:, col:]) ** 2 >= _GUARD:
            A = A.astype(object)
        if symmetric and A.dtype == object:
            if upper is None:
                upper = np.triu_indices(m)
            start = (col + 1) * m - col * (col + 1) // 2  # first entry of row col+1
            i, j = upper[0][start:], upper[1][start:]
            A[i, j] = (d * A[i, j] - A[col, i] * A[col, j]) // prev
        else:
            lower = A[row, col + 1:] if symmetric else A[row + 1:, col]
            A[row + 1:, col + 1:] = (d * A[row + 1:, col + 1:]
                                     - np.outer(lower, A[row, col + 1:])) // prev
        prev = d
        rank += 1
    return rank, None

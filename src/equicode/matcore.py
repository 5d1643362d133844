"""Symmetric-matrix numerics on a float64 or exact-rational backend.

Float work (eigendecomposition, thresholded rank, PSD tests) runs on numpy,
every spectrum through ``sym_eigen``: ``eigh`` where the eigenvectors are
used or the eigenvalues reach a certificate, values-only ``eigvalsh`` for the
rank and PSD thresholds; a matrix keeps no spectrum, so every call takes its own.
A spectrum's residual is computed when first read.
Exact work (rank, PSD pivots) runs one symmetric fraction-free sweep on the
integer form of a rational matrix, numerators over one common denominator:
in int64 while no step can overflow (two reused buffers, exact division by
an inverse mod 2^64, a scan only where a carried bound fails the guard),
restarted on the primitive part of the remaining block when that fits, and
on Python ints after; a matrix it finds not PSD is ranked by sweeping M M.
Verdicts on rational matrices are therefore bit-exact rather than
threshold-dependent.  A PSD sweep whose caller reads it also yields its
LDL^T factor, and a rational Gram is embedded from that factor, each entry
correctly rounded, with no spectrum and no BLAS call; a rank-only sweep
forms none.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
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
    otherwise.  Instances are immutable and keep no derived values.
    """

    __slots__ = ("order", "_array", "_den")

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
    """Eigenvalues sorted descending, with matching orthonormal eigenvector
    columns unless the spectrum is values-only (``eigenvectors`` None)."""

    eigenvalues: np.ndarray
    eigenvectors: Optional[np.ndarray]
    matrix: np.ndarray = field(repr=False, compare=False)

    def __post_init__(self):
        d = np.diff(self.eigenvalues)
        if d.size and d.max() > 0:
            raise InvalidMatrix("eigenvalues must be sorted descending")

    @cached_property
    def residual(self) -> Optional[float]:
        """Worst per-pair residual max |Mv - lambda v|, computed on first read;
        None for a values-only spectrum."""
        vecs = self.eigenvectors
        if vecs is None:
            return None
        return float(np.abs(self.matrix @ vecs - vecs * self.eigenvalues[np.newaxis, :]).max())


def sym_eigen(M: SymMatrix, vectors: bool = True) -> Spectrum:
    """Eigendecomposition of a float64 symmetric matrix, eigenvalues descending.

    With ``vectors`` it runs ``eigh`` and keeps the eigenvector columns;
    without, ``eigvalsh``, whose eigenvalues may differ from ``eigh``'s in
    the last bits, so only the rank and PSD thresholds read them.
    """
    if M.backend != FLOAT64:
        raise InvalidMatrix("sym_eigen requires the float64 backend")
    a = M.as_array()
    if vectors:
        vals, vecs = np.linalg.eigh(a)
        vecs = vecs[:, ::-1].copy()
    else:
        vals, vecs = np.linalg.eigvalsh(a), None
    vals = vals[::-1].copy()
    vals.flags.writeable = False
    return Spectrum(eigenvalues=vals, eigenvectors=vecs, matrix=a)


def rank_of(M: SymMatrix, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a symmetric matrix.

    Float backend: eigenvalues of one values-only spectrum above
    ``eig_zero`` relative to the largest magnitude.
    Rational backend: the positive pivots of one exact sweep of M or, if
    that finds M not PSD, of the PSD product M M, which has M's rank; the
    product is int64 while ``order * max|entry|^2 < 2^63``, else Python ints.
    Neither sweep forms a factor.
    """
    if M.backend == RATIONAL:
        num = M._array
        rank, witness, _ = _fraction_free(num)
        if witness is None:
            return rank
        if num.dtype != object and M.order * _max_abs(num) ** 2 >= 2 ** 63:
            num = num.astype(object)
        return _fraction_free(num @ num)[0]
    return _float_rank(sym_eigen(M, vectors=False).eigenvalues, tol)


def _float_rank(eigenvalues: np.ndarray, tol: Tolerance) -> int:
    vals = np.abs(eigenvalues)
    cutoff = tol.eig_zero * max(1.0, float(vals.max(initial=0.0)))
    return int(np.count_nonzero(vals > cutoff))


def is_psd(M: SymMatrix, tol: Tolerance = DEFAULT_TOL, return_factor: bool = False):
    """Positive-semidefiniteness certificate.

    Float backend passes iff the smallest eigenvalue of one values-only
    ``sym_eigen`` clears ``-psd_slack * max(1, |lambda|_max)``; the rational
    backend runs exact symmetric elimination and reports the first failing
    pivot, if any.
    ``return_factor`` (rational only) also returns the sweep's float factor
    X, X X^T = M up to rounding, or None if M is not PSD; without it the
    sweep forms no factor.
    """
    if M.backend == RATIONAL:
        rank, witness, factor = _fraction_free(M._array, M._den, return_factor)
        cert = Certificate(
            name="psd", statement="all leading pivots of the symmetric elimination are >= 0",
            passed=witness is None, lhs=0, rhs=0 if witness is None else witness["pivot"],
            tol=0.0, witness=witness or {"rank": rank})
        return (cert, factor) if return_factor else cert
    return _float_psd(sym_eigen(M, vectors=False).eigenvalues, tol)


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
    """Unit vectors in R^rank(M) whose Gram matrix reproduces M; the code
    keeps M, or its float copy, as its Gram, and the rank certified here as
    its rank.

    Requires M to be PSD with a unit diagonal.  A rational M is certified
    by one exact symmetric sweep, and its vectors are the rows of the
    pivoted Cholesky factor read off that sweep (Higham 1990), every entry
    correctly rounded; its rank is the sweep's count of positive pivots.
    A float M takes one spectrum for the PSD verdict, the thresholded rank
    and the embedding: the eigenvectors of the nonzero spectrum scaled by
    sqrt(lambda), rows then renormalized to unit length.  Either result is
    canonical only up to orthogonal transformation, so callers should
    compare Gram matrices, never raw vectors.
    """
    from .codes import Code

    _require_unit_diagonal(M, tol)
    if M.backend == RATIONAL:
        cert, X = is_psd(M, tol, return_factor=True)
        _require_psd(cert)
        return Code(X, tol, gram=M.to_float(), rank=X.shape[1])
    spec = sym_eigen(M)
    _require_psd(_float_psd(spec.eigenvalues, tol))
    r = _float_rank(spec.eigenvalues, tol)
    vals = np.clip(spec.eigenvalues[:r], 0.0, None)
    vecs = spec.eigenvectors[:, :r]
    X = vecs * np.sqrt(vals)[np.newaxis, :]
    norms = np.linalg.norm(X, axis=1)
    if np.any(norms < 1e-12):
        raise NotRealizable("degenerate embedding row")
    X = X / norms[:, np.newaxis]
    return Code(X, tol, gram=M, rank=r)


def gram_rank(M: SymMatrix, tol: Tolerance = DEFAULT_TOL) -> int:
    """Rank of a float Gram matrix that ``embed_from_gram`` would embed.

    One values-only spectrum gives the PSD verdict and the rank, so M is
    refused as ``embed_from_gram`` refuses it (NotUnitDiagonal,
    NotRealizable) without paying for eigenvectors.
    """
    _require_unit_diagonal(M, tol)
    vals = sym_eigen(M, vectors=False).eigenvalues
    _require_psd(_float_psd(vals, tol))
    return _float_rank(vals, tol)


def _require_unit_diagonal(M: SymMatrix, tol: Tolerance) -> None:
    """NotUnitDiagonal at the first entry off 1 by over ``angle_tol``; exact if rational."""
    diag = np.diagonal(M._array)
    if M.backend == FLOAT64:
        bad = np.abs(diag - 1) > tol.angle_tol
    else:
        values, where = np.unique(diag, return_inverse=True)
        bad = np.array([abs(Fraction(v, M._den) - 1) > tol.angle_tol
                        for v in values.tolist()])[where]
    if bad.any():
        i = int(bad.argmax())
        raise NotUnitDiagonal(f"diagonal entry {i} is {M.entry(i, i)}, not 1")


def _require_psd(cert: Certificate) -> None:
    if not cert.passed:
        raise NotRealizable(f"matrix is not PSD: {cert.witness}")


# exact fraction-free elimination ------------------------------------------


_GUARD = 2 ** 62        # int64 steps need 2 * max|entry|^2 below this
_FLOAT_EXACT = 2 ** 53  # integers up to here convert to float64 exactly


def _max_abs(a: np.ndarray) -> int:
    return max(int(a.max(initial=0)), -int(a.min(initial=0)))


def _divide_exact(a: np.ndarray, divisor: int) -> None:
    """``a //= divisor`` in place, for an int64 array whose entries are all
    multiples of the positive ``divisor``: shift out its power of two, then
    multiply by the inverse of its odd part mod 2^64 (Jebelean 1993).  The
    product wraps silently, and its low 64 bits are the quotient, which
    is an int64."""
    shift = (divisor & -divisor).bit_length() - 1
    if shift:
        a >>= shift
    if (odd := divisor >> shift) > 1:
        inverse = pow(odd, -1, 2 ** 64)
        a *= inverse - 2 ** 64 if inverse >= 2 ** 63 else inverse


def _fraction_free(num, den: int = 1, factor: bool = False):
    """Symmetric Bareiss (1968) fraction-free elimination of the integer
    matrix ``num``: diagonal pivots, no exchanges.

    After step k every live entry is a minor of order k + 1 of ``num``, so
    each division by the previous pivot is exact.  The sweep runs in int64
    while ``2 * max|entry|^2 < 2^62``, where no product or quotient leaves
    int64: a step writes ``(d T - a a^T) / prev`` into the other of two
    reused buffers, divides with ``_divide_exact``, and carries the bound
    ``(d top + max|a|^2) // prev`` on the new block, which it scans only
    where that bound fails the guard, so every step takes the path a scan
    would.  The trailing block is always ``prev / scale`` times the Schur
    complement of ``num`` that is left to eliminate, so where the guard
    fails the block may be replaced by its primitive part (the block over
    the gcd g of its entries): a positive multiple has the same rank and the
    same pivot signs (Sylvester's law of inertia).  If that part passes the
    guard the sweep restarts on it with ``prev = 1`` and
    ``scale *= g / prev``, the matrix analogue of the primitive PRS (Collins
    1967; Brown 1971); otherwise the block is promoted to Python ints and the sweep
    carries on from that step, updating only the upper triangle of the
    trailing block.  Witness pivots ``d / (prev * den) * scale`` are the
    pivots of ``num / den`` whether or not the sweep restarted.

    Returns ``(rank, witness, factor)``.  The sweep stops at a negative
    pivot, or at a zero pivot whose row is not all zero (a negative 2x2
    principal minor), and returns that witness with the rank so far and no
    factor.  Otherwise the matrix is PSD, the witness is None, the number
    of positive pivots is its rank and the factor is the m x rank
    X = L sqrt(D) of the LDL^T factorization of ``num / den``: the c-th
    positive pivot d, with pivot row a, gives column c, a / d scaled by the
    square root of its witness pivot D; zero pivots give no column.  Each
    distinct value of a pivot row is rooted once, found through a set of the
    row's values, with no sort of the row.  Only with ``factor`` does the
    sweep form X; otherwise the factor is None.
    """
    m = num.shape[0]
    prev, rank, scale = 1, 0, Fraction(1)
    if factor:
        X = np.zeros((m, m), order="F")  # untouched columns stay unpaged
    if num.dtype == object:
        T = np.array(num)  # the trailing block left to eliminate
    else:
        flat, spare, square = np.empty((3, m * m), dtype=np.int64)
        T = flat.reshape(m, m)
        T[...] = num
        top = _max_abs(T)  # a bound on max|T|
    for col in range(m):
        d = int(T[0, 0])
        if d < 0:
            pivot = Fraction(d, prev * den) * scale
            return rank, {"pivot_index": col, "pivot": pivot}, None
        if d == 0:
            nz = np.flatnonzero(T[0])
            if nz.size:
                return rank, {"pivot_index": col, "pivot": Fraction(0),
                              "indefinite_pair": (col, col + int(nz[0]))}, None
            T = T[1:, 1:]
            continue
        if (T.dtype != object and 2 * top ** 2 >= _GUARD
                and 2 * (top := _max_abs(T)) ** 2 >= _GUARD):
            g = int(np.gcd.reduce(T, axis=None))
            if 2 * (top // g) ** 2 < _GUARD:
                _divide_exact(T, g)
                d //= g
                top //= g
                scale *= Fraction(g, prev)
                prev = 1
            else:
                T = T.astype(object)
        if factor:
            # X[j, c] = a[j] / d sqrt(D) = a[j] sqrt(q) for the pivot row a
            q = scale / (d * prev * den)  # D / d^2
            values = sorted(set(T[0].tolist()))
            roots = np.array([_scaled_root(a, q) for a in values])
            X[col:, rank] = roots[np.searchsorted(np.array(values, dtype=T.dtype), T[0])]
        a, n = T[0, 1:], m - col - 1
        if T.dtype == object:
            i, j = np.triu_indices(n)
            T = T[1:, 1:]
            T[i, j] = (d * T[i, j] - a[i] * a[j]) // prev
        else:
            nxt = spare[:n * n].reshape(n, n)
            np.multiply(T[1:, 1:], d, out=nxt)
            nxt -= np.multiply.outer(a, a, out=square[:n * n].reshape(n, n))
            _divide_exact(nxt, prev)
            top = (d * top + _max_abs(a) ** 2) // prev
            flat, spare, T = spare, flat, nxt
        prev = d
        rank += 1
    return rank, None, X[:, :rank] if factor else None


def _scaled_root(a: int, q: Fraction) -> float:
    """a sqrt(q) correctly rounded, for an integer a and a rational q >= 0: the
    integer root r of a^2 q 4^e has at least 56 bits, so with its last bit set
    when inexact, every tie between two floats lies on a multiple of 4 and
    float(r) rounds as the true root would."""
    p, den = a * a * q.numerator, q.denominator
    e = max(0, (den.bit_length() - p.bit_length() + 113) // 2)
    n, rem = divmod(p << 2 * e, den)
    root = math.isqrt(n)
    root |= bool(rem or root * root != n)
    return math.ldexp(float(root) if a >= 0 else -float(root), -e)

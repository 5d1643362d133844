"""Spherical code model: angle-set validation, switching, projections.

A code is an ordered set of unit vectors.  Everything here is pure and
immutable; operations return new values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    InternalError,
    InvalidIndex,
    InvalidParams,
    NotAClique,
    NotAnLCode,
    SingularGram,
    ZeroProjection,
)
from .matcore import DEFAULT_TOL, SymMatrix, Tolerance, embed_from_gram, rank_of


class Code:
    """Ordered set of unit vectors in R^dim, checked at ``tol``.

    ``tol`` is the code's only tolerance: every function that takes a code
    reads it, and the codes derived from one are checked at it too.  The
    Gram, its rank and the observed angle set are each derived once and kept,
    as is the boolean negative adjacency of the last L(alpha, t) matched.
    A ``gram`` the vectors were embedded from is kept in place of X X^T,
    and a ``rank`` that embedding certified is kept as the code's rank: the
    caller vouches for both, and a rank not given is computed on first use.
    A code built by ``from_gram`` is its Gram alone: it has no vectors, and
    reading them is an InternalError, never a silent embedding.
    """

    __slots__ = ("dim", "_vectors", "tol", "_gram", "_rank", "_angles", "_negatives")

    def __init__(self, vectors, tol: Tolerance = DEFAULT_TOL,
                 gram: Optional[SymMatrix] = None, rank: Optional[int] = None):
        arr = np.asarray(vectors, dtype=float)
        if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
            raise InvalidParams("a code is a non-empty list of non-empty vectors")
        if not np.all(np.isfinite(arr)):
            raise InvalidParams("code vectors must be finite")
        norms = np.linalg.norm(arr, axis=1)
        worst = float(np.abs(norms - 1.0).max())
        if worst > tol.angle_tol:
            raise InvalidParams(f"vectors must be unit length (worst deviation {worst:g})")
        arr = arr.copy()
        arr.flags.writeable = False
        self._vectors = arr
        self.dim = arr.shape[1]
        self.tol = tol
        self._gram = gram
        self._rank = rank
        self._angles = None
        self._negatives = None

    @classmethod
    def from_gram(cls, gram: SymMatrix, dim: int, tol: Tolerance = DEFAULT_TOL,
                  rank: Optional[int] = None) -> "Code":
        """The code in R^dim whose float Gram is ``gram``, with no vectors.

        The caller vouches for the Gram (``matcore.gram_rank`` certifies a
        file's and gives its ``rank``); a rank not given is computed on first use.
        """
        out = cls.__new__(cls)
        out._vectors, out.dim, out.tol = None, dim, tol
        out._gram, out._rank, out._angles, out._negatives = gram, rank, None, None
        return out

    @property
    def vectors(self) -> np.ndarray:
        """The read-only vectors; InternalError on a code built from its Gram alone."""
        if self._vectors is None:
            raise InternalError("a code built from its Gram alone has no vectors")
        return self._vectors

    @property
    def gram(self) -> SymMatrix:
        """Float Gram matrix, built by ``gram_of`` on first use and kept."""
        if self._gram is None:
            self._gram = gram_of(self)
        return self._gram

    @property
    def rank(self) -> int:
        """Rank of the Gram at the code's tolerance, computed on first use and kept.

        X X^T and X^T X have the same nonzero eigenvalues, so the rank of a
        code with vectors is read off the smaller: X^T X, of order dim, when
        dim < |C|, else the Gram.
        """
        if self._rank is None:
            small = self.gram if self._vectors is None or len(self) <= self.dim else \
                SymMatrix.from_array_symmetrized(self._vectors.T @ self._vectors)
            self._rank = rank_of(small, self.tol)
        return self._rank

    @property
    def angles(self) -> "AngleSet":
        """Observed angle set, built by ``angle_set_of`` on first use and kept."""
        if self._angles is None:
            self._angles = angle_set_of(self)
        return self._angles

    def __len__(self):
        return self._vectors.shape[0] if self._gram is None else self._gram.order

    def subset(self, indices) -> "Code":
        """The code of the given members, in order: a kept Gram is sliced, not rebuilt."""
        idx = _checked_indices(indices, len(self))
        gram = None if self._gram is None else \
            SymMatrix(self._gram.as_array()[np.ix_(idx, idx)])
        if self._vectors is None:
            return Code.from_gram(gram, self.dim, self.tol)
        return Code(self._vectors[idx], self.tol, gram=gram)

    def padded(self, dim: int) -> "Code":
        """The embedded code in R^dim by zero padding, keeping its Gram and
        rank; InternalError if it needs more dimensions."""
        if self.dim > dim:
            raise InternalError(f"embedding needs {self.dim} > {dim} dimensions")
        if self.dim == dim:
            return self
        pad = np.zeros((len(self), dim - self.dim))
        return Code(np.hstack([self.vectors, pad]), self.tol, gram=self._gram, rank=self._rank)

    def __repr__(self):
        return f"Code(size={len(self)}, dim={self.dim})"


def _l_code_negatives(C: Code, params: Optional[AngleParams]):
    """(alpha, t) of an L(alpha,t)-code, detected when not given, and the
    read-only adjacency of its negative edges; NotAnLCode if C does not validate.
    Each pair is classified once; the code keeps the adjacency of the last
    L(alpha, t) it was matched against."""
    if params is None:
        params = detect_projection_params(C)
    L = angle_set_after_projection(params, C.tol.angle_tol)
    if C._negatives is None or C._negatives[0] != L:
        (rows, cols), values = _pairs(C)
        ids = L.classify_all(values)
        if (ids < 0).any():
            raise NotAnLCode("code does not validate against L(alpha, t)")
        neg = np.zeros((len(C), len(C)), dtype=bool)
        neg[rows, cols] = neg[cols, rows] = (np.asarray(L.points) < 0)[ids]
        neg.flags.writeable = False
        C._negatives = (L, neg)
    return params, C._negatives[1]


def _checked_indices(indices, size):
    idx = [int(i) for i in indices]
    for i in idx:
        if i < 0 or i >= size:
            raise InvalidIndex(f"index {i} out of range for code of size {size}")
    return idx


@dataclass(frozen=True)
class AngleSet:
    """Allowed inner products: closed intervals plus finite points.

    A value matches a point within ``tol`` and matches an interval inflated
    by ``tol`` at both ends.  Class ids enumerate intervals first (declared
    order), then points in ascending order.
    """

    intervals: Tuple[Tuple[float, float], ...] = ()
    points: Tuple[float, ...] = ()
    tol: float = DEFAULT_TOL.angle_tol

    def __post_init__(self):
        ivs = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        pts = tuple(sorted(float(p) for p in self.points))
        object.__setattr__(self, "intervals", ivs)
        object.__setattr__(self, "points", pts)
        for lo, hi in ivs:
            if not (-1.0 <= lo < 1.0 and -1.0 <= hi < 1.0):
                raise InvalidParams(f"interval [{lo}, {hi}] must lie within [-1, 1)")
            if lo > hi:
                raise InvalidParams(f"interval [{lo}, {hi}] is reversed: its lower end "
                                    "exceeds its upper end")
        for p in pts:
            if not (-1.0 <= p < 1.0):
                raise InvalidParams(f"point {p} must lie within [-1, 1)")
        if not ivs and not pts:
            raise InvalidParams("angle set must declare at least one element")

    @property
    def class_labels(self) -> Tuple[str, ...]:
        return tuple(f"interval:{lo:g},{hi:g}" for lo, hi in self.intervals) + \
            tuple(f"point:{p:g}" for p in self.points)

    def class_count(self) -> int:
        return len(self.intervals) + len(self.points)

    def covers_all(self) -> bool:
        """True when the elements widened by ``tol`` cover all of [-1, 1], so
        every inner product matches and validating against the set proves nothing."""
        windows = sorted([(lo - self.tol, hi + self.tol) for lo, hi in self.intervals]
                         + [(p - self.tol, p + self.tol) for p in self.points])
        reach = -1.0
        for lo, hi in windows:
            if lo > reach:
                return False
            reach = max(reach, hi)
        return reach >= 1.0

    def classify(self, value: float) -> Optional[int]:
        """Class id of the first matching element, or None."""
        cid = int(self.classify_all(np.array([float(value)]))[0])
        return None if cid < 0 else cid

    def classify_all(self, values: np.ndarray) -> np.ndarray:
        """Vectorized classify; -1 marks unmatched values.

        Intervals take precedence in declared order, then the lowest
        matching point.  As p grows, v - p only falls, so the points with
        v - p <= tol are a suffix of the sorted points and the points that
        match v are a run at its start.  One ``searchsorted`` finds where
        the suffix starts up to the rounding of v - tol; the steps after it
        make that exact, so a value matches p exactly when |v - p| <= tol.
        Padding the points with -inf and +inf stops both steps at the ends
        and matches no value, so no step needs an index clip or a mask.
        """
        values = np.asarray(values, dtype=float)
        out = np.full(values.shape, -1, dtype=int)
        k = len(self.intervals)
        if self.points:
            padded = np.concatenate(([-np.inf], self.points, [np.inf]))
            before, at = padded[:-1], padded[1:]  # p_(j-1) and p_j at index j

            def gap(ends):  # v - ends[j], computed in the array ends[j] returns
                d = np.asarray(ends[j])  # an array also when values is 0-d
                return np.subtract(values, d, out=d)

            j = np.searchsorted(padded[1:-1], values - self.tol)
            while (back := gap(before) <= self.tol).any():
                j -= back
            while (ahead := gap(at) > self.tol).any():
                j += ahead
            d = gap(at)
            np.add(j, k, out=out, where=np.abs(d, out=d) <= self.tol)
        for cid in range(len(self.intervals) - 1, -1, -1):
            lo, hi = self.intervals[cid]
            out[(values >= lo - self.tol) & (values <= hi + self.tol)] = cid
        return out

    def distance(self, value: float) -> float:
        """Distance to the nearest declared element (0 when matched)."""
        return float(self.distance_all(np.array([float(value)]))[0])

    def distance_all(self, values: np.ndarray) -> np.ndarray:
        """Vectorized distance.

        As p grows, v - p only falls, so |v - p| is smallest at the points
        on either side of v: the first point >= v and the one before it.
        """
        values = np.asarray(values, dtype=float)
        best = np.full(values.shape, np.inf)
        for lo, hi in self.intervals:
            best = np.minimum(best, np.maximum(np.maximum(lo - values, values - hi), 0.0))
        if self.points:
            pts = np.array(self.points)
            j = np.searchsorted(pts, values)
            for near in (np.maximum(j - 1, 0), np.minimum(j, len(pts) - 1)):
                best = np.minimum(best, np.abs(values - pts[near]))
        return best


@dataclass(frozen=True)
class AngleParams:
    """Projection parameters (alpha, t) and the epsilon and sigma they define.

    epsilon = 1/(t + 1/alpha) is the projected positive angle and
    sigma = 2 alpha/(1 - alpha) drives the projected negative angle; both
    are exact when alpha is a Fraction.
    """

    alpha: object
    t: int

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise InvalidParams("alpha must lie in (0, 1)")
        object.__setattr__(self, "t", _positive_int(self.t))

    @property
    def epsilon(self):
        return 1 / (self.t + 1 / self.alpha)

    @property
    def sigma(self):
        return 2 * self.alpha / (1 - self.alpha)

    @property
    def negative_value(self):
        """The projected negative angle -sigma(1 - epsilon) + epsilon."""
        return -self.sigma * (1 - self.epsilon) + self.epsilon


def _positive_int(t) -> int:
    """A clique size t as an int; InvalidParams unless it is a positive integer."""
    if int(t) != t or t < 1:
        raise InvalidParams("t must be a positive integer")
    return int(t)


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of checking every pair of a code against an angle set."""

    violations: Tuple[Tuple[int, int, float, float], ...]
    histogram: dict

    @property
    def passed(self) -> bool:
        return not self.violations


def gram_of(C: Code) -> SymMatrix:
    """Gram matrix of the code on the float backend."""
    return SymMatrix.from_array_symmetrized(C.vectors @ C.vectors.T)


def _pairs(C: Code):
    """Index arrays (i, j) of the pairs i < j, row by row, and their inner products."""
    iu = np.triu_indices(len(C), k=1)
    return iu, C.gram.as_array()[iu]


def validate_code(C: Code, L: AngleSet) -> ValidationReport:
    """Classify every unordered pair of distinct vectors against L."""
    iu, values = _pairs(C)
    classes = L.classify_all(values)
    labels = L.class_labels
    counts = np.bincount(classes + 1, minlength=L.class_count() + 1)[1:]
    histogram = {labels[cid]: int(counts[cid]) for cid in np.flatnonzero(counts)}
    bad = np.flatnonzero(classes < 0)
    violations = tuple(zip(iu[0][bad].tolist(), iu[1][bad].tolist(), values[bad].tolist(),
                           L.distance_all(values[bad]).tolist()))
    return ValidationReport(violations=violations, histogram=histogram)


def detect_equiangular(C: Code) -> Optional[float]:
    """Common angle magnitude alpha when all pairs are +/- alpha, else None."""
    if len(C) < 2:
        raise InvalidParams("equiangularity needs at least two vectors")
    mags = np.abs(_pairs(C)[1])
    lo, hi = float(mags.min()), float(mags.max())
    if hi - lo > 2 * C.tol.angle_tol:
        return None
    return (hi + lo) / 2.0


def switch_vertices(C: Code, S) -> Code:
    """Negate the vectors at the given indices (line set is unchanged)."""
    idx = _checked_indices(S, len(C))
    v = C.vectors.copy()
    if idx:
        v[idx] *= -1.0
    return Code(v, C.tol)


def predicted_projection_angle(gamma, t, p):
    """Inner product of two unit vectors after projecting off a gamma-clique.

    Both vectors meet every clique vector at angle gamma; t is the clique
    size and p their inner product before projection.  Exact for Fraction
    inputs.
    """
    if not (-1 < gamma < 1):
        raise InvalidParams("gamma must lie in (-1, 1)")
    t = _positive_int(t)
    if gamma < 0 and t != 1:
        raise InvalidParams("a negative-angle clique must have size 1")
    if not (-1 <= p <= 1):
        raise InvalidParams("p must lie in [-1, 1]")
    return (p - gamma) / (1 - gamma) + \
        gamma * (1 - p) / ((1 + gamma * t) * (1 - gamma))


def angle_set_after_projection(params: AngleParams,
                               tol: float = DEFAULT_TOL.angle_tol) -> AngleSet:
    """The two-point angle set left after projecting off a positive t-clique.

    When the negative value falls below -1 (sigma > 1 with t large) no pair
    of unit vectors can attain it, so only the positive point remains.
    """
    negative = float(params.negative_value)
    points = (negative, float(params.epsilon)) if negative >= -1.0 \
        else (float(params.epsilon),)
    return AngleSet(points=points, tol=tol)


def clique_angle(Y: Code) -> float:
    """Common pairwise inner product gamma of a clique Y.

    Uses the mean of the observed values, so exact cliques become float
    cliques within angle_tol here.  NotAClique when the values spread by
    angle_tol or more, when gamma is within angle_tol of 1 (duplicate
    vectors), or when gamma < 0 with more than one vector.  A singleton Y has
    no pairs and returns the sentinel 1.0, meaning no constraint.
    """
    if len(Y) == 1:
        return 1.0
    vals = _pairs(Y)[1]
    gamma = float(vals.mean())
    if float(np.abs(vals - gamma).max()) >= Y.tol.angle_tol:
        raise NotAClique("pairwise inner products are not a single value")
    if gamma >= 1 - Y.tol.angle_tol:
        raise NotAClique("clique contains duplicate vectors")
    if gamma < 0:
        raise NotAClique("a negative-angle clique must have size 1")
    return gamma


def project_onto_complement(X: Code, Y: Code) -> Code:
    """Normalized projection of X's vectors onto the orthogonal complement of
    span(Y), through an SVD of Y: the vectors-level oracle of ``project_off_clique``."""
    if X.dim != Y.dim:
        raise DimensionMismatch("X and Y must share an ambient dimension")
    clique_angle(Y)
    u, s, _ = np.linalg.svd(Y.vectors.T, full_matrices=False)
    basis = u[:, s > s.max() * 1e-12]
    proj = X.vectors - (X.vectors @ basis) @ basis.T
    norms = np.linalg.norm(proj, axis=1)
    if np.any(norms < 1e-10):
        raise ZeroProjection("a vector lies in the span of the clique")
    return Code(proj / norms[:, np.newaxis], X.tol)


def project_off_clique(C: Code, members: Sequence, clique: Sequence,
                       switched: Sequence = ()) -> Code:
    """Normalized projection of C's ``members`` off the span of its ``clique``,
    from C's kept Gram alone, with the members listed in ``switched`` negated.

    The projected Gram is R = G_XX - G_XY G_YY^-1 G_YX (X the members, Y the
    clique), from one t x t solve on the clique's Gram, scaled to a unit
    diagonal; negating switched rows and columns is exact.  The code keeps R
    and is embedded by one ``eigh`` of R, then zero-padded to C's dim.

    ``clique_angle`` refuses a non-clique.  The Gram route squares the
    condition number: a squared residual d_i = R_ii carries about
    eps / lambda_min absolute error (eps float64's machine epsilon,
    lambda_min = 1 - gamma the clique Gram's smallest eigenvalue, 1 for one
    vector), which scaling divides by d_i.  So a member with
    d_i <= eps / (lambda_min * angle_tol) is not resolved to angle_tol:
    ZeroProjection.
    """
    X, Yi = _checked_indices(members, len(C)), _checked_indices(clique, len(C))
    G = C.gram.as_array()
    Y = C.subset(Yi)  # slices the Gram read above
    gamma = clique_angle(Y)
    floor = np.finfo(float).eps / ((1.0 - gamma if len(Y) > 1 else 1.0) * C.tol.angle_tol)
    cross = G[np.ix_(X, Yi)]
    R = cross @ np.linalg.solve(Y.gram.as_array(), cross.T)
    R += R.T  # in place, so that no m x m temporary outlives its step
    R *= -0.5
    R += G[np.ix_(X, X)]  # exactly symmetric
    d = R.diagonal()
    low = np.flatnonzero(d <= floor)
    if low.size:
        raise ZeroProjection(f"vector {X[low[0]]} lies in the span of the clique: its squared "
                             f"residual {d[low[0]]:.3g} is at most {floor:.3g}, below which "
                             "the Gram cannot resolve angle_tol")
    scale = 1.0 / np.sqrt(d)
    scale[np.isin(X, switched)] *= -1.0
    R *= np.outer(scale, scale)
    np.fill_diagonal(R, 1.0)
    return embed_from_gram(SymMatrix(R), C.tol).padded(C.dim)


def span_inner_product(s1: Sequence, s2: Sequence, gamma, t: int):
    """Inner product of two vectors of span(Y) from their profiles against Y.

    Y is a gamma-clique of size t and s_i lists the inner products of v_i
    with the clique vectors.  Exact for rational inputs.
    """
    s1 = list(s1)
    s2 = list(s2)
    if len(s1) != t or len(s2) != t:
        raise DimensionMismatch("profiles must have length t")
    if not (-1 <= gamma < 1):
        raise InvalidParams("gamma must lie in [-1, 1)")
    denom = 1 + gamma * (t - 1)
    if denom == 0:
        raise SingularGram("clique Gram matrix is singular at t = 1 - 1/gamma")
    dot = sum(a * b for a, b in zip(s1, s2))
    return (dot - (gamma / denom) * (sum(s1) * sum(s2))) / (1 - gamma)


def detect_projection_params(C: Code) -> AngleParams:
    """Recover (alpha, t) from a code whose angles are the projected pair.

    The positive observed value is epsilon and the negative one is
    -sigma(1-epsilon)+epsilon; both determine alpha and t uniquely.  Raises
    NotAnLCode when the observed angles do not have that shape.
    """
    aset = C.angles
    if len(aset.points) != 2:
        raise NotAnLCode("expected exactly two distinct inner-product values")
    nu, eps = aset.points
    if eps <= 0 or nu >= 0:
        raise NotAnLCode("expected one positive and one negative value")
    sigma = (eps - nu) / (1 - eps)
    alpha = sigma / (2 + sigma)
    t = round(1 / eps - 1 / alpha)
    params = AngleParams(alpha, t) if t >= 1 and 0 < alpha < 1 else None
    if params is None or abs(params.epsilon - eps) > C.tol.angle_tol or \
            abs(params.negative_value - nu) > C.tol.angle_tol:
        raise NotAnLCode("observed values are not a projected angle pair")
    return params


def angle_set_of(C: Code) -> AngleSet:
    """Point angle set observed in the code's Gram matrix.

    Off-diagonal values are clustered to within the code's angle_tol; each
    cluster contributes its midpoint as a point.
    """
    if len(C) < 2:
        raise InvalidParams("need at least two vectors to observe angles")
    vals = np.sort(_pairs(C)[1])
    breaks = np.flatnonzero(np.diff(vals) > 2 * C.tol.angle_tol) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [len(vals)])) - 1
    points = np.minimum((vals[starts] + vals[ends]) / 2.0, 1.0 - 2 * C.tol.angle_tol)
    return AngleSet(points=tuple(points.tolist()), tol=C.tol.angle_tol)

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
    InvalidIndex,
    InvalidParams,
    NotAClique,
    NotAnLCode,
    SingularGram,
    ZeroProjection,
)
from .matcore import DEFAULT_TOL, SymMatrix, Tolerance


class Code:
    """Ordered set of unit vectors in R^dim, checked at ``tol``.

    ``tol`` is the code's only tolerance: every function that takes a code
    reads it, and the codes derived from one are checked at it too.
    """

    __slots__ = ("dim", "vectors", "tol", "_gram")

    def __init__(self, vectors, tol: Tolerance = DEFAULT_TOL):
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
        self.vectors = arr
        self.dim = arr.shape[1]
        self.tol = tol
        self._gram = None

    @property
    def gram(self) -> SymMatrix:
        """Float Gram matrix, built by ``gram_of`` on first use and kept."""
        if self._gram is None:
            self._gram = gram_of(self)
        return self._gram

    def __len__(self):
        return self.vectors.shape[0]

    def subset(self, indices) -> "Code":
        idx = _checked_indices(indices, len(self))
        return Code(self.vectors[idx], self.tol)

    def __repr__(self):
        return f"Code(size={len(self)}, dim={self.dim})"


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
            if not (-1.0 <= lo <= hi < 1.0):
                raise InvalidParams(f"interval [{lo}, {hi}] must lie within [-1, 1)")
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

    def class_is_negative(self, class_id: int) -> bool:
        """True when every value of the class is negative."""
        k = len(self.intervals)
        if class_id < k:
            return self.intervals[class_id][1] < 0
        return self.points[class_id - k] < 0

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
    """Common pairwise inner product of Y; NotAClique when values spread.

    Uses the mean of the observed values, so exact cliques become float
    cliques within angle_tol here.  A singleton Y has no pairs and returns
    the sentinel 1.0, meaning no constraint.
    """
    if len(Y) == 1:
        return 1.0
    vals = _pairs(Y)[1]
    gamma = float(vals.mean())
    if float(np.abs(vals - gamma).max()) >= Y.tol.angle_tol:
        raise NotAClique("pairwise inner products are not a single value")
    return gamma


def project_onto_complement(X: Code, Y: Code) -> Code:
    """Normalized projection of X onto the orthogonal complement of span(Y)."""
    if X.dim != Y.dim:
        raise DimensionMismatch("X and Y must share an ambient dimension")
    gamma = clique_angle(Y)
    if len(Y) > 1:
        if gamma >= 1 - Y.tol.angle_tol:
            raise NotAClique("clique contains duplicate vectors")
        if gamma < 0:
            raise NotAClique("a negative-angle clique must have size 1")
    u, s, _ = np.linalg.svd(Y.vectors.T, full_matrices=False)
    basis = u[:, s > s.max() * 1e-12]
    proj = X.vectors - (X.vectors @ basis) @ basis.T
    norms = np.linalg.norm(proj, axis=1)
    if np.any(norms < 1e-10):
        raise ZeroProjection("a vector lies in the span of the clique")
    return Code(proj / norms[:, np.newaxis], X.tol)


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
    aset = angle_set_of(C)
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

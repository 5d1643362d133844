"""Cardinality bounds and inequality witnesses as executable certificates.

Asymptotic statements are certified only in their exact finite forms: each
certificate states the displayed inequality it checks, computes both sides
from the given code, and records the margin.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

import numpy as np

from .certificate import Certificate
from .codes import (
    AngleParams,
    AngleSet,
    Code,
    _l_code_negatives,
    _pairs,
    detect_equiangular,
    detect_projection_params,
)
from .errors import (
    ExcludedAngle,
    InvalidIndex,
    InvalidParams,
    NotAnLCode,
    NotEquiangular,
    NotFinite,
    WrongStructure,
)
from .matcore import SymMatrix, Tolerance, rank_of


def negative_clique_certificate(C: Code, alpha: float) -> Certificate:
    """|C| <= 1/alpha + 1 for a code with all inner products <= -alpha.

    On equality the code must be a regular simplex; the witness records
    whether the Gram matrix matches the simplex Gram entrywise.
    """
    if not (0 < alpha <= 1):
        raise InvalidParams("alpha must lie in (0, 1]")
    aset = AngleSet(intervals=((-1.0, -alpha),), tol=C.tol.angle_tol)
    if (aset.classify_all(_pairs(C)[1]) < 0).any():
        raise NotAnLCode("code has inner products above -alpha")
    m = len(C)
    rhs = 1.0 / alpha + 1.0
    witness = {"size": m}
    if m >= 2 and abs(m - rhs) <= 1e-9:
        dev = float(np.abs(_pairs(C)[1] - (-1.0 / (m - 1))).max())
        witness["equality"] = True
        witness["simplex_confirmed"] = bool(dev <= C.tol.angle_tol)
        witness["simplex_deviation"] = dev
    return Certificate.check(
        "negative-clique", "|C| <= 1/alpha + 1 for a [-1, -alpha]-code",
        lhs=m, rhs=rhs, tol=1e-9, witness=witness)


def gerzon_certificate(C: Code) -> Certificate:
    """Linear independence of the outer products and |C| <= C(rank+1, 2).

    The Gram matrix of the outer products x x^T has entries <x_i, x_j>^2,
    the code's Gram squared entrywise, and must have full rank m.  Its rank
    is m without a spectrum wherever Weyl's bound decides it
    (``_weyl_full_rank``), else that of one values-only spectrum.
    """
    m, tol = len(C), C.tol
    if m >= 2:
        alpha = detect_equiangular(C)
        if alpha is None or not (tol.angle_tol < alpha < 1 - tol.angle_tol):
            raise NotEquiangular("code is not equiangular with alpha in (0, 1)")
    else:
        alpha = None
    r = C.rank
    g = C.gram.as_array()
    full = alpha is not None and _weyl_full_rank(g, alpha, tol)
    outer_rank = m if full else rank_of(SymMatrix(g * g), tol)
    rhs = math.comb(r + 1, 2)
    passed = (outer_rank == m) and (m <= rhs)
    return Certificate(
        name="gerzon",
        statement="outer products are independent and |C| <= C(rank+1, 2)",
        passed=passed, lhs=m, rhs=rhs, tol=0.0,
        witness={"rank": r, "outer_rank": outer_rank, "alpha": alpha})


_WEYL_ROWS = 64  # rows of G squared at a time, so no m x m temporary
_WEYL_ALLOWANCE = 2.0 ** -40  # eigvalsh and row-sum rounding, per order and unit of norm


def _weyl_full_rank(g: np.ndarray, alpha: float, tol: Tolerance) -> bool:
    """Whether the values-only spectrum of G o G certainly ranks it full.

    With G o G = (1 - alpha^2) I + alpha^2 J + E, Weyl's inequality puts its
    eigenvalues in [1 - alpha^2 - s, 1 - alpha^2 + m alpha^2 + s], s the
    largest absolute row sum of E.  Where the lower end, less a rounding
    allowance for LAPACK and for s, clears the rank cutoff
    ``eig_zero * max(1, upper + allowance)``, every eigenvalue ``eigvalsh``
    returns counts, so ``rank_of`` would give m.
    """
    m, a2 = g.shape[0], alpha * alpha
    s = 0.0
    for start in range(0, m, _WEYL_ROWS):
        e = g[start:start + _WEYL_ROWS] ** 2
        e -= a2
        rows = np.arange(e.shape[0])
        e[rows, start + rows] -= 1 - a2
        s = max(s, float(np.abs(e, out=e).sum(axis=1).max()))
    lower, upper = 1 - a2 - s, 1 - a2 + m * a2 + s
    allowance = _WEYL_ALLOWANCE * m * upper
    return lower - allowance > tol.eig_zero * max(1.0, upper + allowance)


def _require_validates(C: Code, L: AngleSet) -> None:
    if (L.classify_all(_pairs(C)[1]) < 0).any():
        raise NotAnLCode("code does not validate against L")


def schnirelman_applied_certificate(C: Code,
                                    params: Optional[AngleParams] = None) -> Certificate:
    """|C| <= (1 + sigma^2 d)(n + 1) for an L(alpha,t)-code.

    d is the average degree of the negative-edge graph and n the Gram rank;
    the bound follows from the trace-ratio rank inequality applied to
    M_C - eps J and is exact, not asymptotic.
    """
    params, neg = _l_code_negatives(C, params)
    m = len(C)
    edges = int(neg.sum()) // 2
    d = 2.0 * edges / m
    n = C.rank
    sigma = float(params.sigma)
    rhs = (1.0 + sigma * sigma * d) * (n + 1)
    return Certificate.check(
        "schnirelman-applied", "|C| <= (1 + sigma^2 d)(rank + 1)",
        lhs=m, rhs=rhs, tol=1e-9 * max(1.0, rhs),
        witness={"average_negative_degree": d, "sigma": sigma,
                 "rank": n, "negative_edges": edges})


def matching_full_rank_certificate(C: Code,
                                   params: Optional[AngleParams] = None) -> Certificate:
    """rank(M_C - eps J) = |C| when the negative edges form a matching.

    Excludes alpha = 1/3, where the 2x2 matching blocks are singular.  When
    alpha is rational the rank is exact with no matrix built: the idealized
    matrix (1-eps)(I - sigma A), A the matching, has the rank of q I - p A
    for sigma = p/q, a direct sum of blocks [[q, -p], [-p, q]] on the
    matching's edges and 1x1 blocks q.  Each block has determinant
    q^2 - p^2 or q, both nonzero because sigma = 2 alpha/(1 - alpha) is
    positive and is 1 only at alpha = 1/3, so that rank is |C|.
    Also certifies the consequence |C| <= rank(M_C) + 1.
    """
    if params is None:
        params = detect_projection_params(C)
    if abs(float(params.alpha) - 1.0 / 3.0) <= C.tol.angle_tol:
        raise ExcludedAngle("alpha = 1/3 makes the matching blocks singular")
    _, neg = _l_code_negatives(C, params)
    if int(neg.sum(axis=1).max(initial=0)) > 1:
        raise WrongStructure("negative edges do not form a matching")
    m = len(C)
    if isinstance(params.alpha, Fraction):
        rank_n, backend = m, "rational"
    else:
        eps = float(params.epsilon)
        rank_n, backend = rank_of(SymMatrix(C.gram.as_array() - eps), C.tol), "float64"
    rank_m = C.rank
    rhs = rank_m + 1
    passed = (rank_n == m) and (m <= rhs)
    return Certificate(
        name="matching-full-rank",
        statement="rank(M - eps J) = |C| and |C| <= rank(M) + 1",
        passed=passed, lhs=m, rhs=rhs, tol=0.0,
        witness={"rank_shifted": rank_n, "rank": rank_m,
                 "matching_edges": int(neg.sum()) // 2, "backend": backend})


def _require_positive_beta(beta) -> None:
    if not 0 < beta < math.inf:
        raise InvalidParams("beta must be positive and finite")


def _spans(part) -> list:
    """``part`` as spans [lo, hi): a unit-step range as one, never iterated."""
    if isinstance(part, range) and part.step == 1:
        return [(part.start, part.stop)] if part else []
    return [(i, i + 1) for i in part]


def multipartite_certificate(C: Code, parts: Sequence[Sequence[int]],
                             alpha: float, beta: float) -> Certificate:
    """2B(beta+1) + 2A(1-alpha) <= |C|^2 over a union of alpha-cliques.

    B counts edges with value <= -beta, A the remaining edges with value
    >= alpha.  The witness reports the implied part-count bound with its
    finite-size corrections: (beta + alpha + (1-alpha)/t - delta(1+beta))
    / (beta - delta(1+beta)), where delta is the measured deficiency of
    cross-part negative edges.  Parts are checked disjoint, non-empty and
    inside the code by their spans, before a range part is iterated.
    """
    _require_positive_beta(beta)
    if not math.isfinite(alpha):
        raise InvalidParams("alpha must be finite")
    part_spans = [_spans(part) for part in parts]
    spans = sorted(s for ps in part_spans for s in ps)
    if any(hi > lo for (_, hi), (lo, _) in zip(spans, spans[1:])):
        raise WrongStructure("parts must be disjoint")
    if not part_spans or not all(part_spans):
        raise InvalidParams("parts must be non-empty")
    # a span is cut after its least index outside the code, which C.subset refuses
    members = [i for lo, hi in spans for i in range(lo, min(hi, max(lo, len(C)) + 1))]
    sub = C.subset(members)
    t_min = min(len(p) for p in parts)
    g = sub.gram.as_array()
    for part in parts:
        at = np.searchsorted(members, part)
        off = ~np.eye(len(at), dtype=bool)
        if (np.abs(g[np.ix_(at, at)] - alpha) > C.tol.angle_tol)[off].any():
            raise WrongStructure("every part must be an alpha-clique")
    mm = len(members)
    values = _pairs(sub)[1]
    b_mask = values <= -beta + C.tol.angle_tol
    a_mask = (~b_mask) & (values >= alpha - C.tol.angle_tol)
    B = int(b_mask.sum())
    A = int(a_mask.sum())
    lhs = 2.0 * B * (beta + 1.0) + 2.0 * A * (1.0 - alpha)
    rhs = float(mm) ** 2
    ell = len(parts)
    witness = {"A": A, "B": B, "parts": ell, "t_min": t_min}
    if ell >= 2:
        cross_pairs = math.comb(ell, 2) * t_min * t_min
        delta = max(0.0, 1.0 - B / cross_pairs)
        denom = beta - delta * (1.0 + beta)
        witness["delta"] = delta
        witness["part_count_bound"] = (
            (beta + alpha + (1.0 - alpha) / t_min - delta * (1.0 + beta)) / denom
            if denom > 0 else None)
    return Certificate.check(
        "multipartite", "2B(beta+1) + 2A(1-alpha) <= |C|^2",
        lhs=lhs, rhs=rhs, tol=1e-9 * max(1.0, rhs), witness=witness)


def dgs_bound_check(C: Code, L: AngleSet) -> Certificate:
    """|C| <= C(rank + |L|, |L|) for a finite angle set L."""
    if L.intervals:
        raise NotFinite("the bound needs a finite point set, no intervals")
    _require_validates(C, L)
    k = len(L.points)
    r = C.rank
    rhs = math.comb(r + k, k)
    return Certificate.check(
        "dgs", "|C| <= C(rank + |L|, |L|)",
        lhs=len(C), rhs=rhs, tol=0.0, witness={"rank": r, "k": k})


def beta_energy_check(C: Code, x: int, L: AngleSet) -> Certificate:
    """sum beta_i^2 <= 1 + alpha N sum beta_i^2 at a vertex x.

    beta_i are the magnitudes of the negative edges at x in a
    [-1,-beta] u {alpha}-code; the inequality is the exact form extracted
    from <Mw, w> >= 0 with w = (beta_1, ..., beta_N, 1).
    """
    if len(L.intervals) != 1 or len(L.points) != 1:
        raise InvalidParams("angle set must be one interval plus one point")
    if L.intervals[0][1] >= 0 or L.points[0] <= 0:
        raise InvalidParams("expected a negative interval and a positive point")
    _require_validates(C, L)
    if not (0 <= x < len(C)):
        raise InvalidIndex(f"vertex {x} out of range")
    alpha = L.points[0]
    beta = -L.intervals[0][1]
    row = np.delete(C.gram.as_array()[x], x)
    neg = row[row <= -beta + C.tol.angle_tol]
    energy = float(np.sum(neg * neg))
    count = int(neg.size)
    rhs = 1.0 + alpha * count * energy
    return Certificate.check(
        "beta-energy", "sum beta_i^2 <= 1 + alpha N sum beta_i^2",
        lhs=energy, rhs=rhs, tol=1e-9 * max(1.0, rhs),
        witness={"sum_beta_sq": energy, "N": count, "alpha_N": alpha * count})


@dataclass(frozen=True)
class BoundTable:
    """Closed-form reference values; computed, never asserted."""

    n: int
    k: int
    alpha: float
    beta: float
    gerzon: int
    dgs: int
    neg_clique: float
    theorem_targets: Dict[str, float]

    def to_dict(self) -> dict:
        return asdict(self)


def bound_table(n: int, k: int, alpha: float, beta: float) -> BoundTable:
    """Reference table of every closed-form bound at the given parameters.

    Two targets are kept for two-angle codes away from 1/3: the stated
    1.93n and the sharper 1.92n proved for the projected code; the table
    records both rather than reconciling them.
    """
    if n < 1 or k < 0:
        raise InvalidParams("need n >= 1 and k >= 0")
    _require_positive_beta(beta)
    targets = {
        "two_angle_onethird": 2.0 * n - 2.0,
        "two_angle_other": 1.93 * n,
        "two_angle_other_projected": 1.92 * n,
        "single_positive_angle": 2.0 * (1.0 + max(alpha / beta, 0.0)) * n,
    }
    if k >= 1:
        targets["multi_angle_leading"] = (
            (2.0 ** k) * math.factorial(k - 1) * (1.0 + alpha / beta) * float(n) ** k)
    return BoundTable(n=n, k=k, alpha=alpha, beta=beta,
                      gerzon=math.comb(n + 1, 2), dgs=math.comb(n + k, k),
                      neg_clique=1.0 / beta + 1.0, theorem_targets=targets)

"""Cardinality bounds and inequality witnesses as executable certificates.

Asymptotic statements are certified only in their exact finite forms: each
certificate states the displayed inequality it checks, computes both sides
from the given code, and records the margin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Optional, Sequence

import numpy as np

from .certificate import Certificate
from .codes import (
    AngleParams,
    AngleSet,
    Code,
    _pairs,
    angle_set_after_projection,
    detect_equiangular,
    detect_projection_params,
    validate_code,
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
from .matcore import SymMatrix, rank_of


def negative_clique_certificate(C: Code, alpha: float) -> Certificate:
    """|C| <= 1/alpha + 1 for a code with all inner products <= -alpha.

    On equality the code must be a regular simplex; the witness records
    whether the Gram matrix matches the simplex Gram entrywise.
    """
    if not (0 < alpha <= 1):
        raise InvalidParams("alpha must lie in (0, 1]")
    aset = AngleSet(intervals=((-1.0, -alpha),), tol=C.tol.angle_tol)
    report = validate_code(C, aset)
    if not report.passed:
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
    the code's Gram squared entrywise, and must have full rank m.
    """
    m, tol = len(C), C.tol
    if m >= 2:
        alpha = detect_equiangular(C)
        if alpha is None or not (tol.angle_tol < alpha < 1 - tol.angle_tol):
            raise NotEquiangular("code is not equiangular with alpha in (0, 1)")
    else:
        alpha = None
    r = rank_of(C.gram, tol)
    g = C.gram.as_array()
    outer_rank = rank_of(SymMatrix(g * g), tol)
    rhs = math.comb(r + 1, 2)
    passed = (outer_rank == m) and (m <= rhs)
    return Certificate(
        name="gerzon",
        statement="outer products are independent and |C| <= C(rank+1, 2)",
        passed=passed, lhs=m, rhs=rhs, tol=0.0,
        witness={"rank": r, "outer_rank": outer_rank, "alpha": alpha})


def _require_validates(C: Code, L: AngleSet, name: str = "L") -> None:
    if not validate_code(C, L).passed:
        raise NotAnLCode(f"code does not validate against {name}")


def _l_code_negatives(C: Code, params: Optional[AngleParams]):
    """(alpha, t) of an L(alpha,t)-code, detected when not given, and the
    boolean mask of its negative edges; NotAnLCode if C does not validate."""
    if params is None:
        params = detect_projection_params(C)
    angle_tol = C.tol.angle_tol
    _require_validates(C, angle_set_after_projection(params, angle_tol), "L(alpha, t)")
    mask = np.abs(C.gram.as_array() - float(params.negative_value)) <= angle_tol
    np.fill_diagonal(mask, False)
    return params, mask


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
    n = rank_of(C.gram, C.tol)
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
    alpha is rational the rank runs on the exact backend: the idealized
    matrix (1-eps)(I - sigma A), A the matching, has the rank of q I - p A
    for sigma = p/q.
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
        p, q = params.sigma.numerator, params.sigma.denominator
        # 0-d arrays, not Python ints: numpy makes them object when int64 is too narrow
        n_matrix = SymMatrix.from_integers(
            np.where(np.eye(m, dtype=bool), np.array(q), np.where(neg, np.array(-p), 0)))
        backend = "rational"
    else:
        eps = float(params.epsilon)
        n_matrix = SymMatrix.from_array_symmetrized(
            C.gram.as_array() - eps * np.ones((m, m)))
        backend = "float64"
    rank_n = rank_of(n_matrix, C.tol)
    rank_m = rank_of(C.gram, C.tol)
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


def multipartite_certificate(C: Code, parts: Sequence[Sequence[int]],
                             alpha: float, beta: float) -> Certificate:
    """2B(beta+1) + 2A(1-alpha) <= |C|^2 over a union of alpha-cliques.

    B counts edges with value <= -beta, A the remaining edges with value
    >= alpha.  The witness reports the implied part-count bound with its
    finite-size corrections: (beta + alpha + (1-alpha)/t - delta(1+beta))
    / (beta - delta(1+beta)), where delta is the measured deficiency of
    cross-part negative edges.
    """
    _require_positive_beta(beta)
    if not math.isfinite(alpha):
        raise InvalidParams("alpha must be finite")
    seen = set()
    for part in parts:
        for v in part:
            if v in seen:
                raise WrongStructure("parts must be disjoint")
            seen.add(v)
    members = sorted(seen)
    if not members:
        raise InvalidParams("parts must be non-empty")
    sub = C.subset(members)
    g = sub.gram.as_array()
    pos = {v: i for i, v in enumerate(members)}
    for part in parts:
        for a_i in range(len(part)):
            for b_i in range(a_i + 1, len(part)):
                v = g[pos[part[a_i]], pos[part[b_i]]]
                if abs(v - alpha) > C.tol.angle_tol:
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
    t_min = min(len(p) for p in parts)
    witness = {"A": A, "B": B, "parts": ell, "t_min": t_min}
    if ell >= 2 and t_min >= 1:
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
    r = rank_of(C.gram, C.tol)
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
        return {
            "n": self.n, "k": self.k, "alpha": self.alpha, "beta": self.beta,
            "gerzon": self.gerzon, "dgs": self.dgs,
            "neg_clique": self.neg_clique,
            "theorem_targets": dict(self.theorem_targets),
        }


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

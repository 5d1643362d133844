import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from equicode import (
    DEFAULT_TOL,
    AngleParams,
    AngleSet,
    Certificate,
    Code,
    ConcatParams,
    ConcatReport,
    SymMatrix,
    Tolerance,
    ValidationReport,
    angle_set_of,
    beta_energy_check,
    binary_kcode,
    bound_table,
    concatenated_code,
    dgs_bound_check,
    embed_from_gram,
    gerzon_certificate,
    gram_of,
    lemmens_seidel_code,
    matching_full_rank_certificate,
    multipartite_certificate,
    negative_clique_certificate,
    project_onto_complement,
    rank_of,
    reduction_pipeline,
    regular_simplex,
    schnirelman_applied_certificate,
    seven_dim_28_lines,
)
from equicode.errors import (
    ExcludedAngle,
    NotAnLCode,
    NotEquiangular,
    NotFinite,
    WrongStructure,
)


def test_functions_of_a_code_read_its_tolerance():
    # LS(6) jittered by 1e-8 is equiangular at angle_tol 1e-6 but not at
    # the default 1e-9; every function taking the code judges it at 1e-6
    rng = np.random.default_rng(5)
    v = lemmens_seidel_code(6).vectors
    v = v + rng.normal(scale=1e-8, size=v.shape)
    tol = Tolerance(angle_tol=1e-6)
    code = Code(v / np.linalg.norm(v, axis=1)[:, None], tol)
    assert gerzon_certificate(code).passed
    assert reduction_pipeline(code, 2).accounting["size"] == len(code)
    assert len(angle_set_of(code).points) == 2
    assert project_onto_complement(code.subset([1, 3]), code.subset([0, 2])).tol == tol


def test_negative_clique_simplex_equality():
    cert = negative_clique_certificate(regular_simplex(4), 0.25)
    assert cert.passed
    assert cert.lhs == 5 and abs(cert.rhs - 5.0) <= 1e-12
    assert cert.witness["equality"] and cert.witness["simplex_confirmed"]


def test_negative_clique_antipodal():
    code = Code(np.array([[1.0], [-1.0]]))
    cert = negative_clique_certificate(code, 1.0)
    assert cert.passed and cert.lhs == 2 and cert.rhs == 2.0


def test_negative_clique_rejects_invalid_code():
    with pytest.raises(NotAnLCode):
        negative_clique_certificate(Code(np.eye(3)), 0.5)


def test_negative_clique_rejection_sampled_codes():
    # grow [-1,-beta]-codes by rejection; the bound caps them at 1/beta + 1
    # and growth past the cap never happens
    rng = np.random.default_rng(2)
    for beta, runs in ((0.5, 4000), (1 / 3, 3000), (0.2, 3000)):
        cap = 1 / beta + 1
        oversized = 0
        for _ in range(runs):
            vectors = _grow_negative_code(rng, beta=beta, dim=6, attempts=40)
            if len(vectors) > cap + 1e-9:
                oversized += 1
                continue
            if len(vectors) >= 2:
                cert = negative_clique_certificate(Code(np.array(vectors)), beta)
                assert cert.passed
        assert oversized == 0


def _grow_negative_code(rng, beta, dim, attempts):
    g = rng.normal(size=dim)
    vectors = [g / np.linalg.norm(g)]
    for _ in range(attempts):
        g = rng.normal(size=dim)
        g = g / np.linalg.norm(g)
        if all(float(g @ v) <= -beta for v in vectors):
            vectors.append(g)
    return vectors


def test_gerzon_28_lines():
    cert = gerzon_certificate(seven_dim_28_lines())
    assert cert.passed
    assert cert.lhs == 28 and cert.rhs == math.comb(8, 2) == 28
    assert cert.witness["rank"] == 7 and cert.witness["outer_rank"] == 28


def test_gerzon_hexagon_diagonals():
    angles = [0.0, math.pi / 3, 2 * math.pi / 3]
    code = Code(np.array([[math.cos(a), math.sin(a)] for a in angles]))
    cert = gerzon_certificate(code)
    assert cert.passed
    assert cert.lhs == 3 and cert.rhs == math.comb(3, 2)


def test_gerzon_single_line():
    cert = gerzon_certificate(Code(np.array([[0.0, 1.0]])))
    assert cert.passed and cert.lhs == 1


def test_gerzon_outer_entries_are_squared_inner_products():
    code = seven_dim_28_lines()
    g = gram_of(code).as_array()
    sq = g * g
    off = sq[np.triu_indices(28, k=1)]
    assert np.abs(off - 1 / 9).max() <= 1e-10


def test_gerzon_rejects_non_equiangular():
    with pytest.raises(NotEquiangular):
        gerzon_certificate(binary_kcode(4, 2))
    with pytest.raises(NotEquiangular):
        gerzon_certificate(Code(np.eye(3)))


def test_schnirelman_applied_on_projected_code():
    outcome = reduction_pipeline(lemmens_seidel_code(12), t=6)
    cert = schnirelman_applied_certificate(outcome.projected)
    assert cert.passed
    assert cert.witness["average_negative_degree"] == 1.0
    assert cert.margin >= 0


def test_schnirelman_applied_no_negative_edges():
    params = AngleParams(0.25, 8)
    eps = float(params.epsilon)
    g = np.full((6, 6), eps)
    np.fill_diagonal(g, 1.0)
    code = embed_from_gram(SymMatrix.from_array_symmetrized(g))
    cert = schnirelman_applied_certificate(code, params)
    assert cert.passed
    n = cert.witness["rank"]
    assert cert.rhs == n + 1 and cert.lhs <= n + 1


def test_schnirelman_applied_random_instances():
    rng = np.random.default_rng(9)
    params = AngleParams(0.2, 50)
    eps, sigma = float(params.epsilon), float(params.sigma)
    from equicode import is_psd

    built = 0
    while built < 10:
        n = int(rng.integers(10, 30))
        adj = np.triu(rng.random((n, n)) < 0.06, k=1)
        adj = adj | adj.T
        m = (1 - eps) * np.eye(n) + eps * np.ones((n, n)) - sigma * (1 - eps) * adj
        sym = SymMatrix.from_array_symmetrized(m)
        if not is_psd(sym).passed:
            continue
        cert = schnirelman_applied_certificate(embed_from_gram(sym), params)
        assert cert.passed
        built += 1


def _matching_code(alpha, t, matching_edges, singletons):
    params = AngleParams(alpha, t)
    eps, sigma = params.epsilon, params.sigma
    m = 2 * matching_edges + singletons
    g = np.full((m, m), float(eps))
    np.fill_diagonal(g, 1.0)
    for e in range(matching_edges):
        v = float(-sigma * (1 - eps) + eps)
        g[2 * e, 2 * e + 1] = g[2 * e + 1, 2 * e] = v
    return embed_from_gram(SymMatrix.from_array_symmetrized(g)), params


def test_matching_full_rank_synthetic():
    code, _ = _matching_code(Fraction(1, 5), 10, matching_edges=2, singletons=2)
    params = AngleParams(Fraction(1, 5), 10)
    cert = matching_full_rank_certificate(code, params)
    assert cert.passed
    assert cert.witness["rank_shifted"] == 6
    assert cert.witness["backend"] == "rational"
    assert cert.witness["matching_edges"] == 2


def _fraction_grid(code, params):
    """The idealized shifted matrix as an m x m grid of Fractions: 1 - eps on
    the diagonal, -sigma(1 - eps) on the negative edges, 0 elsewhere."""
    neg = np.abs(code.gram.as_array() - float(params.negative_value)) <= DEFAULT_TOL.angle_tol
    np.fill_diagonal(neg, False)
    eps, sig, m = params.epsilon, params.sigma, len(code)
    grid = SymMatrix([[1 - eps if i == j else (-sig * (1 - eps) if neg[i, j] else Fraction(0))
                       for j in range(m)] for i in range(m)])
    assert grid.backend == "rational"
    return grid


@pytest.mark.parametrize("alpha, t, edges, singletons, expected", [
    (Fraction(1, 5), 10, 100, 100, 300),
    (Fraction(2, 5), 2, 1, 1, 3),  # sigma = 4/3 > 1: one edge keeps the Gram PSD
])
def test_matching_exact_rank_equals_the_fraction_grid_rank(alpha, t, edges, singletons,
                                                            expected):
    code, params = _matching_code(alpha, t, edges, singletons)
    cert = matching_full_rank_certificate(code, params)
    assert cert.witness["backend"] == "rational"
    assert cert.witness["rank_shifted"] == rank_of(_fraction_grid(code, params)) == expected


def test_matching_full_rank_float_detection_path():
    code, _ = _matching_code(0.2, 10, matching_edges=3, singletons=1)
    cert = matching_full_rank_certificate(code)
    assert cert.passed and cert.witness["rank_shifted"] == 7


def test_matching_full_rank_no_edges():
    code, params = _matching_code(Fraction(1, 4), 9, matching_edges=0, singletons=5)
    cert = matching_full_rank_certificate(code, params)
    assert cert.passed and cert.witness["matching_edges"] == 0


def test_matching_full_rank_excludes_one_third():
    outcome = reduction_pipeline(lemmens_seidel_code(10), t=6)
    with pytest.raises(ExcludedAngle):
        matching_full_rank_certificate(outcome.projected)


def test_matching_full_rank_wrong_structure():
    params = AngleParams(Fraction(1, 5), 10)
    eps, sigma = params.epsilon, params.sigma
    g = np.full((5, 5), float(eps))
    np.fill_diagonal(g, 1.0)
    v = float(-sigma * (1 - eps) + eps)
    # a path of two negative edges shares a vertex: not a matching
    g[0, 1] = g[1, 0] = v
    g[1, 2] = g[2, 1] = v
    sym = SymMatrix.from_array_symmetrized(g)
    from equicode import is_psd

    assert is_psd(sym).passed
    with pytest.raises(WrongStructure):
        matching_full_rank_certificate(embed_from_gram(sym), params)


def test_multipartite_simplex_equality():
    for r in (1, 2, 5, 20, 50):
        code = regular_simplex(r)
        parts = [[i] for i in range(r + 1)]
        cert = multipartite_certificate(code, parts, alpha=0.5, beta=1.0 / r)
        assert cert.passed
        assert cert.witness["B"] == math.comb(r + 1, 2)
        assert cert.witness["A"] == 0
        assert abs(cert.rhs - cert.lhs) <= 1e-10 * max(1.0, cert.rhs)


def test_multipartite_single_clique():
    code = binary_kcode(4, 3)  # 4 vectors pairwise 2/3
    cert = multipartite_certificate(code, [list(range(4))], alpha=2 / 3, beta=0.5)
    assert cert.passed and cert.witness["B"] == 0
    assert cert.witness["A"] == 6


def test_multipartite_rejects_overlapping_parts():
    with pytest.raises(WrongStructure):
        multipartite_certificate(regular_simplex(3), [[0, 1], [1, 2]], 0.5, 0.3)


def test_multipartite_rejects_non_clique_parts():
    with pytest.raises(WrongStructure):
        multipartite_certificate(regular_simplex(3), [[0, 1]], alpha=0.5, beta=0.3)


def test_multipartite_on_concatenated_code():
    params = ConcatParams(100, 1, 2, 0.5, seed=1)
    code, achieved_beta, _ = concatenated_code(params)
    assert achieved_beta > 0
    block = 100
    parts = [list(range(c * block, (c + 1) * block)) for c in range(3)]
    cert = multipartite_certificate(code, parts, alpha=0.5, beta=achieved_beta)
    assert cert.passed
    assert cert.witness["parts"] == 3
    bound = cert.witness.get("part_count_bound")
    assert bound is None or bound >= 3 - 1e-9


def test_dgs_binary_kcode():
    code = binary_kcode(6, 2)
    cert = dgs_bound_check(code, AngleSet(points=(0.0, 0.5)))
    assert cert.passed
    assert cert.lhs == 15 and cert.rhs == math.comb(6 + 2, 2) == 28


def test_dgs_orthonormal_basis():
    cert = dgs_bound_check(Code(np.eye(4)), AngleSet(points=(0.0,)))
    assert cert.passed and cert.lhs == 4 and cert.rhs == 5


def test_dgs_28_lines():
    cert = dgs_bound_check(seven_dim_28_lines(), AngleSet(points=(-1 / 3, 1 / 3)))
    assert cert.passed and cert.lhs == 28 and cert.rhs == math.comb(9, 2) == 36


def test_dgs_rejects_intervals():
    with pytest.raises(NotFinite):
        dgs_bound_check(regular_simplex(3), AngleSet(intervals=((-1.0, -0.3),)))


def test_beta_energy_simplex():
    r = 5
    L = AngleSet(intervals=((-1.0, -1.0 / r),), points=(0.5,))
    cert = beta_energy_check(regular_simplex(r), 0, L)
    assert cert.passed
    assert abs(cert.witness["sum_beta_sq"] - 1.0 / r) <= 1e-9


def test_beta_energy_no_negative_edges():
    code = binary_kcode(4, 3)
    L = AngleSet(intervals=((-1.0, -0.5),), points=(2 / 3,))
    cert = beta_energy_check(code, 0, L)
    assert cert.passed and cert.lhs == 0.0


def test_beta_energy_on_concat_code():
    params = ConcatParams(100, 1, 2, 0.5, seed=0)
    code, achieved_beta, _ = concatenated_code(params)
    assert achieved_beta > 0
    L = AngleSet(intervals=((-1.0, -achieved_beta),), points=(0.5,), tol=1e-9)
    for x in (0, 7, 140):
        cert = beta_energy_check(code, x, L)
        assert cert.passed


def test_bound_table_values():
    t = bound_table(7, 2, alpha=1 / 3, beta=1 / 3)
    assert t.gerzon == 28
    assert bound_table(23, 0, 0.5, 0.5).gerzon == 276
    assert t.dgs == math.comb(9, 2)
    assert abs(t.neg_clique - 4.0) <= 1e-12
    assert t.theorem_targets["two_angle_onethird"] == 12.0
    assert abs(t.theorem_targets["two_angle_other"] - 1.93 * 7) <= 1e-12
    assert abs(t.theorem_targets["two_angle_other_projected"] - 1.92 * 7) <= 1e-12
    assert abs(t.theorem_targets["single_positive_angle"] - 4 * 7) <= 1e-12
    assert abs(t.theorem_targets["multi_angle_leading"] - 4 * 1 * 2 * 49) <= 1e-12


def test_certificates_are_reproducible():
    code = seven_dim_28_lines()
    a = gerzon_certificate(code)
    b = gerzon_certificate(code)
    assert a.to_dict() == b.to_dict()


def test_result_records_store_no_restated_fields():
    def names(cls):
        return {f.name for f in dataclasses.fields(cls)}

    assert names(Certificate) == {"name", "statement", "passed", "lhs", "rhs", "tol",
                                  "witness", "skipped", "reason"}
    assert names(ValidationReport) == {"violations", "histogram"}
    assert names(ConcatReport) == {"attempts", "attempt_seed", "copy_seeds",
                                   "achieved_beta", "max_within_deviation"}
    cert = Certificate.check("c", "lhs <= rhs", lhs=Fraction(1, 3), rhs=1)
    assert cert.margin == Fraction(2, 3) and cert.to_dict()["margin"] == "2/3"

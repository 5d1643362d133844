import math
from fractions import Fraction

import numpy as np
import pytest

from equicode import (
    AngleSet,
    ConcatParams,
    RngStream,
    binary_kcode,
    concatenated_code,
    detect_equiangular,
    gram_of,
    lemmens_seidel_code,
    lemmens_seidel_gram,
    lines28_gram,
    odd_reciprocal_code,
    odd_reciprocal_gram,
    quadratic_form,
    random_unit_vectors,
    rank_of,
    regular_simplex,
    seven_dim_28_lines,
    simplex_gram,
    validate_code,
)
from equicode.errors import InvalidParams, TooLarge


def test_lemmens_seidel_basic():
    for n in (3, 7, 23):
        code = lemmens_seidel_code(n)
        assert len(code) == 2 * n - 2 and code.dim == n
        assert abs(detect_equiangular(code) - 1 / 3) <= 1e-9


def test_lemmens_seidel_gram_rank_and_nullity():
    for n in (3, 5, 12):
        g = lemmens_seidel_gram(n)
        assert rank_of(g) == n
        assert (2 * n - 2) - rank_of(g) == n - 2


def test_lemmens_seidel_small_n_rejected():
    with pytest.raises(InvalidParams):
        lemmens_seidel_code(2)


def test_odd_reciprocal_r2_matches_lemmens_seidel():
    for n in (3, 6, 11):
        a = odd_reciprocal_gram(n, 2)
        b = lemmens_seidel_gram(n)
        assert a.order == b.order == 2 * n - 2
        assert a.rows() == b.rows()
        assert len(odd_reciprocal_code(n, 2)) == 2 * n - 2


def test_odd_reciprocal_r3():
    code = odd_reciprocal_code(7, 3)
    assert len(code) == 3 * (6 // 2) == 9 and code.dim == 7
    assert abs(detect_equiangular(code) - 1 / 5) <= 1e-9


def test_odd_reciprocal_single_block():
    code = odd_reciprocal_code(3, 3)
    assert len(code) == 3
    g = gram_of(code).as_array()
    off = g[np.triu_indices(3, k=1)]
    assert np.abs(off + 1 / 5).max() <= 1e-9


def test_odd_reciprocal_equiangular_validation():
    for n, r in ((9, 3), (13, 4), (25, 5)):
        alpha = 1 / (2 * r - 1)
        code = odd_reciprocal_code(n, r)
        report = validate_code(code, AngleSet(points=(-alpha, alpha)))
        assert report.passed


def test_28_lines():
    code = seven_dim_28_lines()
    assert len(code) == math.comb(8, 2) == 28 and code.dim == 8
    sums = code.vectors.sum(axis=1)
    assert np.abs(sums).max() <= 1e-12
    assert rank_of(lines28_gram()) == 7
    assert rank_of(gram_of(code)) == 7
    off = gram_of(code).as_array()[np.triu_indices(28, k=1)]
    assert np.abs(np.abs(off) - 1 / 3).max() <= 1e-12


@pytest.fixture
def no_spectrum(monkeypatch):
    from equicode import matcore

    def refused(*args, **kwargs):
        raise AssertionError("a constructed code's rank takes no spectrum")

    monkeypatch.setattr(matcore, "sym_eigen", refused)


@pytest.mark.parametrize("build, rank, dim", [
    (lambda: lemmens_seidel_code(12), 12, 12),
    (lambda: regular_simplex(5), 5, 5),
    (seven_dim_28_lines, 7, 8),
    (lambda: odd_reciprocal_code(9, 3), 9, 9),
    (lambda: odd_reciprocal_code(10, 3), 9, 10),
], ids=["ls12", "simplex5", "lines28", "odd-reciprocal-9-3", "odd-reciprocal-10-3-padded"])
def test_a_constructed_code_keeps_its_certified_rank(build, rank, dim, no_spectrum):
    code = build()
    assert (code.rank, code.dim) == (rank, dim)


def test_a_subset_recomputes_its_rank(monkeypatch):
    from equicode import matcore

    code = lemmens_seidel_code(6)
    calls = []
    decompose = matcore.sym_eigen
    monkeypatch.setattr(matcore, "sym_eigen", lambda *a, **k: calls.append(a) or decompose(*a, **k))
    assert code.subset([0, 1]).rank == 2 and len(calls) == 1
    assert code.rank == 6 and len(calls) == 1


def test_28_lines_rational_gram_matches_float():
    g = lines28_gram()
    f = gram_of(seven_dim_28_lines()).as_array()
    assert np.abs(g.as_array() - f).max() <= 1e-12


def test_simplex_r1():
    code = regular_simplex(1)
    assert len(code) == 2 and code.dim == 1
    assert abs(gram_of(code).as_array()[0, 1] + 1.0) <= 1e-12


def test_simplex_sum_is_zero():
    for r in (1, 2, 5, 9):
        assert quadratic_form(simplex_gram(r), [Fraction(1)] * (r + 1)) == 0
        code = regular_simplex(r)
        assert np.linalg.norm(code.vectors.sum(axis=0)) <= 1e-7


def test_binary_kcode_examples():
    code = binary_kcode(4, 2)
    assert len(code) == 6
    off = gram_of(code).as_array()[np.triu_indices(6, k=1)]
    assert set(np.round(off, 12)) <= {0.0, 0.5}

    single = binary_kcode(3, 3)
    assert len(single) == 1 and abs(np.linalg.norm(single.vectors[0]) - 1) <= 1e-12

    assert np.allclose(binary_kcode(5, 1).vectors, np.eye(5))


def test_binary_kcode_cap():
    with pytest.raises(TooLarge):
        binary_kcode(200, 5)


def test_binary_kcode_validates_ladder():
    k = 3
    code = binary_kcode(7, k)
    points = tuple(i / k for i in range(k))
    assert validate_code(code, AngleSet(points=points)).passed


def test_concat_params_ladder():
    p = ConcatParams(30, 2, 3, 0.5, seed=7)
    assert p.lam == 1.0 and p.lam_sq == 1.0
    assert p.alphas == (0.5, 0.75)
    assert abs(p.beta_target - (1 / 3 - p.t_threshold) / 2) <= 1e-15


def test_concat_params_domain():
    with pytest.raises(InvalidParams):
        ConcatParams(30, 2, 6, 0.5, seed=0)  # r > sqrt(n)
    with pytest.raises(InvalidParams):
        ConcatParams(30, 2, 3, 1.5, seed=0)


def test_concatenated_code_shape_and_angles():
    p = ConcatParams(30, 2, 3, 0.5, seed=7)
    code, achieved_beta, report = concatenated_code(p)
    assert len(code) == 4 * math.comb(30, 2) == 1740
    assert code.dim == 33
    assert report.attempts >= 1 and achieved_beta >= p.beta_target
    assert achieved_beta == report.achieved_beta
    assert report.max_within_deviation <= 1e-9
    block = math.comb(30, 2)
    g = code.vectors[:block] @ code.vectors[:block].T
    off = g[np.triu_indices(block, k=1)]
    dev = np.minimum(np.abs(off - 0.5), np.abs(off - 0.75))
    assert dev.max() <= 1e-9


def test_concatenated_code_deterministic():
    p = ConcatParams(12, 2, 2, 0.5, seed=3)
    a, beta_a, _ = concatenated_code(p)
    b, beta_b, _ = concatenated_code(p)
    assert beta_a == beta_b
    assert np.array_equal(a.vectors, b.vectors)


def test_random_unit_vectors_basics():
    rng = RngStream(42)
    code = random_unit_vectors(50, 7, rng)
    assert len(code) == 50 and code.dim == 7
    assert np.abs(np.linalg.norm(code.vectors, axis=1) - 1).max() <= 1e-12

    signs = random_unit_vectors(20, 1, RngStream(1)).vectors
    assert set(np.round(signs.ravel(), 12)) <= {-1.0, 1.0}


def test_rng_stream_determinism():
    a = RngStream(9).gaussians(100)
    b = RngStream(9).gaussians(100)
    assert np.array_equal(a, b)
    c = RngStream(9).derive(1).gaussians(100)
    assert not np.array_equal(a, c)


def test_rng_rotation_is_orthogonal():
    q = RngStream(5).rotation(12)
    assert np.abs(q @ q.T - np.eye(12)).max() <= 1e-12


def test_random_rotation_preserves_gram():
    rng = RngStream(11)
    code = binary_kcode(6, 2)
    q = rng.rotation(6)
    rotated = code.vectors @ q.T
    assert np.abs(rotated @ rotated.T - code.vectors @ code.vectors.T).max() <= 1e-12


def test_rational_grams_have_exactly_the_declared_entries():
    third = Fraction(1, 3)
    for n in (3, 6, 10):
        rows = lemmens_seidel_gram(n).rows()
        values = {rows[i][j] for i in range(len(rows)) for j in range(len(rows))
                  if i != j}
        assert values == {third, -third}
    fifth = Fraction(1, 5)
    rows = odd_reciprocal_gram(9, 3).rows()
    values = {rows[i][j] for i in range(len(rows)) for j in range(len(rows))
              if i != j}
    assert values == {fifth, -fifth}
    rows = simplex_gram(4).rows()
    values = {rows[i][j] for i in range(len(rows)) for j in range(len(rows))
              if i != j}
    assert values == {Fraction(-1, 4)}
    rows = lines28_gram().rows()
    values = {rows[i][j] for i in range(28) for j in range(28) if i != j}
    assert values == {third, -third}


def test_inner_product_tail_bound_sample():
    # Pr[<u,u'> >= t] < exp(-t^2 n / 2) checked empirically at modest scale
    rng = RngStream(2)
    n, pairs, t = 200, 2000, 0.2
    u = random_unit_vectors(pairs, n, rng.derive(0)).vectors
    v = random_unit_vectors(pairs, n, rng.derive(1)).vectors
    frac = float(np.mean(np.sum(u * v, axis=1) >= t))
    bound = math.exp(-t * t * n / 2)
    se = math.sqrt(bound * (1 - bound) / pairs)
    assert frac < bound + 3 * se

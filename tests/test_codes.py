import time
from fractions import Fraction

import numpy as np
import pytest

from equicode import (
    AngleParams,
    AngleSet,
    Code,
    angle_set_after_projection,
    angle_set_of,
    binary_kcode,
    detect_equiangular,
    detect_projection_params,
    embed_from_gram,
    gram_of,
    lemmens_seidel_code,
    predicted_projection_angle,
    project_onto_complement,
    regular_simplex,
    seven_dim_28_lines,
    span_inner_product,
    switch_vertices,
    validate_code,
    SymMatrix,
)
from equicode.matcore import Tolerance
from equicode.errors import (
    DimensionMismatch,
    InvalidIndex,
    InvalidParams,
    NotAClique,
    NotAnLCode,
    SingularGram,
    ZeroProjection,
)


def basis(n):
    return Code(np.eye(n))


def test_gram_of_basis_is_identity():
    assert np.allclose(gram_of(basis(3)).as_array(), np.eye(3))


def test_gram_of_simplex_two():
    g = gram_of(regular_simplex(2)).as_array()
    expected = np.array([[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1]])
    assert np.abs(g - expected).max() <= 1e-12


def test_gram_of_28_lines_entries():
    g = gram_of(seven_dim_28_lines()).as_array()
    off = g[np.triu_indices(28, k=1)]
    assert np.abs(np.abs(off) - 1 / 3).max() <= 1e-12


def test_validate_simplex_interval():
    report = validate_code(regular_simplex(4), AngleSet(intervals=((-1, -0.25),)))
    assert report.passed and not report.violations


def test_validate_28_lines_two_points():
    report = validate_code(seven_dim_28_lines(),
                           AngleSet(points=(-1 / 3, 1 / 3)))
    assert report.passed
    assert sum(report.histogram.values()) == 28 * 27 // 2


def test_validate_collects_violations_with_distances():
    report = validate_code(basis(3), AngleSet(points=(0.5,)))
    assert not report.passed
    assert len(report.violations) == 3
    for _, _, value, dist in report.violations:
        assert value == 0.0 and abs(dist - 0.5) <= 1e-12


def test_validate_reports_duplicates_as_violations():
    v = np.eye(3)[[0, 0, 1]]
    report = validate_code(Code(v), AngleSet(points=(0.0,)))
    assert not report.passed
    assert any(abs(value - 1.0) <= 1e-12 for _, _, value, _ in report.violations)


def test_detect_equiangular_cases():
    assert abs(detect_equiangular(seven_dim_28_lines()) - 1 / 3) <= 1e-12
    assert abs(detect_equiangular(lemmens_seidel_code(6)) - 1 / 3) <= 1e-9
    assert detect_equiangular(binary_kcode(4, 2)) is None
    assert detect_equiangular(basis(4)) == 0.0


def test_detect_equiangular_needs_two_vectors():
    with pytest.raises(InvalidParams):
        detect_equiangular(Code(np.array([[1.0, 0.0]])))


def test_switch_empty_and_full():
    c = lemmens_seidel_code(4)
    same = switch_vertices(c, [])
    assert np.array_equal(same.vectors, c.vectors)
    flipped = switch_vertices(c, range(len(c)))
    assert np.abs(gram_of(flipped).as_array() - gram_of(c).as_array()).max() <= 1e-12


def test_switch_preserves_detected_alpha():
    c = lemmens_seidel_code(3)
    s = switch_vertices(c, [0])
    assert abs(detect_equiangular(s) - detect_equiangular(c)) <= 1e-12
    report = validate_code(s, AngleSet(points=(-1 / 3, 1 / 3)))
    assert report.passed


def test_switch_flips_edges_to_the_complement():
    c = lemmens_seidel_code(4)
    g = gram_of(c).as_array()
    s = gram_of(switch_vertices(c, [0])).as_array()
    assert np.abs(s[0, 1:] + g[0, 1:]).max() <= 1e-12
    assert np.abs(s[1:, 1:] - g[1:, 1:]).max() <= 1e-12


def test_switch_invalid_index():
    with pytest.raises(InvalidIndex):
        switch_vertices(basis(3), [5])


def test_predicted_angle_positive_clique_special_case_exact():
    for num, den in ((1, 3), (1, 5), (2, 7), (3, 5)):
        gamma = Fraction(num, den)
        for t in (1, 2, 3, 10, 25):
            got = predicted_projection_angle(gamma, t, gamma)
            assert got == gamma / (1 + gamma * t)
            assert got == 1 / (t + 1 / gamma)


def test_predicted_angle_single_vertex_closed_form():
    gamma = Fraction(1, 3)
    got = predicted_projection_angle(gamma, 1, Fraction(-1, 3))
    assert got == (Fraction(-1, 3) - gamma ** 2) / (1 - gamma ** 2)
    assert got == Fraction(-1, 2)


def test_predicted_angle_negative_alpha_example():
    got = predicted_projection_angle(Fraction(1, 3), 2, Fraction(-1, 3))
    assert got == Fraction(-3, 5)


def test_predicted_angle_monotone_grid():
    for gamma in np.linspace(-0.9, 0.9, 19):
        ts = (1,) if gamma < 0 else (1, 2, 3, 8)
        for t in ts:
            for p in np.linspace(-1, 1, 21):
                assert predicted_projection_angle(float(gamma), t, float(p)) <= p + 1e-12


def test_predicted_angle_decreasing_in_gamma_squared():
    p = 0.4
    values = [predicted_projection_angle(g, 1, p) for g in (0.1, 0.3, 0.5, 0.7)]
    assert all(b < a for a, b in zip(values, values[1:]))
    for g, v in zip((0.1, 0.3, 0.5, 0.7), values):
        assert abs(predicted_projection_angle(-g, 1, p) - v) <= 1e-12
        exact = Fraction(4, 10)
        gf = Fraction(g).limit_denominator(10)
        assert predicted_projection_angle(gf, 1, exact) == \
            (exact - gf ** 2) / (1 - gf ** 2)


def test_predicted_angle_domain_errors():
    with pytest.raises(InvalidParams):
        predicted_projection_angle(1.0, 1, 0.0)
    with pytest.raises(InvalidParams):
        predicted_projection_angle(-0.5, 2, 0.0)
    with pytest.raises(InvalidParams):
        predicted_projection_angle(0.5, 1, 1.5)


def clique_with_pair(gamma, t, p):
    """Embed Y u {x1, x2}: Y a gamma-clique of size t, both x_i at gamma to Y."""
    n = t + 2
    g = np.full((n, n), gamma, dtype=float)
    np.fill_diagonal(g, 1.0)
    g[t, t + 1] = g[t + 1, t] = p
    code = embed_from_gram(SymMatrix.from_array_symmetrized(g))
    return code


def test_projection_matches_prediction_on_explicit_vectors():
    cases = [(1 / 3, 2, -1 / 3), (1 / 3, 1, -1 / 3), (0.2, 4, 0.5),
             (0.5, 3, 0.1), (-0.4, 1, 0.3)]
    for gamma, t, p in cases:
        code = clique_with_pair(gamma, t, p)
        Y = code.subset(range(t))
        X = code.subset([t, t + 1])
        projected = project_onto_complement(X, Y)
        got = float(gram_of(projected).as_array()[0, 1])
        want = predicted_projection_angle(gamma, t, p)
        assert abs(got - want) <= 1e-8
        assert np.abs(projected.vectors @ Y.vectors.T).max() <= 1e-10


def test_projection_sigma_epsilon_example():
    # alpha = 1/3 (sigma = 1), t = 2 (eps = 1/5): -alpha projects to -3/5
    code = clique_with_pair(1 / 3, 2, -1 / 3)
    projected = project_onto_complement(code.subset([2, 3]), code.subset([0, 1]))
    assert abs(gram_of(projected).as_array()[0, 1] + 3 / 5) <= 1e-10


def test_projection_off_full_block_clique_collapses():
    # with one clique vector per block, every partner differs from the
    # clique span by the same direction, so all projections coincide
    code = lemmens_seidel_code(5)
    clique = [0, 2, 4, 6]
    partners = [1, 3, 5, 7]
    projected = project_onto_complement(code.subset(partners), code.subset(clique))
    g = gram_of(projected).as_array()
    assert np.abs(g - 1.0).max() <= 1e-9


def test_projection_orthonormal_clique_is_identity():
    c = basis(3)
    out = project_onto_complement(c.subset([1, 2]), c.subset([0]))
    assert np.abs(out.vectors - c.vectors[1:]).max() <= 1e-12


def test_projection_rejects_non_clique():
    c = Code(np.array([[1.0, 0, 0], [0, 1, 0], [0.6, 0.8, 0]]))
    with pytest.raises(NotAClique):
        project_onto_complement(c.subset([2]), c.subset([0, 1, 2]))


def test_projection_rejects_negative_clique_of_size_two():
    s = regular_simplex(3)
    with pytest.raises(NotAClique):
        project_onto_complement(s.subset([3]), s.subset([0, 1]))


def test_projection_zero_projection():
    c = Code(np.eye(3))
    with pytest.raises(ZeroProjection):
        project_onto_complement(c.subset([0]), c.subset([0, 1]))


def test_projection_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        project_onto_complement(basis(3), basis(4))


def test_angle_set_after_projection_examples():
    ap = AngleParams(1 / 3, 2)
    pts = angle_set_after_projection(ap).points
    assert abs(pts[0] + 3 / 5) <= 1e-12 and abs(pts[1] - 1 / 5) <= 1e-12
    ap = AngleParams(1 / 5, 10)
    pts = angle_set_after_projection(ap).points
    assert abs(pts[0] + 2 / 5) <= 1e-12 and abs(pts[1] - 1 / 15) <= 1e-12


def test_angle_set_after_projection_large_t_limit():
    ap = AngleParams(0.2, 10 ** 6)
    sigma = 2 * 0.2 / 0.8
    pts = angle_set_after_projection(ap).points
    assert abs(pts[0] + sigma) <= 1e-5 and abs(pts[1]) <= 1e-5


def test_angle_set_after_projection_drops_unreachable_negative():
    # sigma > 1 pushes the negative value below -1; no pair can attain it
    ap = AngleParams(0.4, 10 ** 6)
    pts = angle_set_after_projection(ap).points
    assert len(pts) == 1 and abs(pts[0]) <= 1e-5


def test_angle_params_exact_for_fractions():
    ap = AngleParams(Fraction(1, 3), 2)
    assert ap.epsilon == Fraction(1, 5) and ap.sigma == 1
    assert ap.negative_value == Fraction(-3, 5)


def test_span_inner_product_orthonormal_case():
    s1, s2 = [1, 2, 3], [4, 5, 6]
    assert span_inner_product(s1, s2, 0, 3) == 32


def test_span_inner_product_single_vector():
    g = Fraction(2, 5)
    assert span_inner_product([g], [g], g, 1) == g * g


def test_span_inner_product_singular():
    with pytest.raises(SingularGram):
        span_inner_product([1, 1, 1, 1], [1, 1, 1, 1], Fraction(-1, 3), 4)


def test_span_inner_product_length_mismatch():
    with pytest.raises(DimensionMismatch):
        span_inner_product([1, 2], [1, 2, 3], 0.1, 3)


def test_span_inner_product_against_explicit_span():
    rng = np.random.default_rng(7)
    t, gamma = 4, 1 / 5
    g = np.full((t, t), gamma)
    np.fill_diagonal(g, 1.0)
    Y = embed_from_gram(SymMatrix.from_array_symmetrized(g)).vectors
    for _ in range(20):
        c1 = rng.uniform(-1, 1, size=t)
        c2 = rng.uniform(-1, 1, size=t)
        v1, v2 = c1 @ Y, c2 @ Y
        s1, s2 = Y @ v1, Y @ v2
        got = span_inner_product(list(s1), list(s2), gamma, t)
        assert abs(got - float(v1 @ v2)) <= 1e-10


def test_embed_validate_round_trip_invariant():
    for code in (regular_simplex(4), lemmens_seidel_code(5),
                 seven_dim_28_lines(), binary_kcode(5, 2)):
        aset = angle_set_of(code)
        embedded = embed_from_gram(gram_of(code))
        assert validate_code(embedded, aset).passed


def test_detect_projection_params_round_trip():
    ap = AngleParams(0.25, 6)
    pts = angle_set_after_projection(ap).points
    g = np.full((8, 8), pts[1])
    np.fill_diagonal(g, 1.0)
    g[0, 1] = g[1, 0] = pts[0]
    g[2, 3] = g[3, 2] = pts[0]
    code = embed_from_gram(SymMatrix.from_array_symmetrized(g))
    found = detect_projection_params(code)
    assert found.t == 6 and abs(float(found.alpha) - 0.25) <= 1e-9


def test_detect_projection_params_rejects_plain_codes():
    with pytest.raises(NotAnLCode):
        detect_projection_params(regular_simplex(3))


def _angle_points_by_loop(code, tol):
    """Reference clustering: one pass over the sorted off-diagonal values."""
    g = gram_of(code).as_array()
    vals = np.sort(g[np.triu_indices(len(code), k=1)])
    points, start = [], 0
    for k in range(1, len(vals) + 1):
        if k == len(vals) or vals[k] - vals[k - 1] > 2 * tol.angle_tol:
            points.append(float((vals[start] + vals[k - 1]) / 2.0))
            start = k
    return tuple(min(p, 1.0 - 2 * tol.angle_tol) for p in points)


def _jittered_code(seed):
    """LS(9) lines plus a near-duplicate, jittered on the scale of the
    cluster gap 2 * angle_tol so that gaps fall on both sides of it."""
    rng = np.random.default_rng(seed)
    base = lemmens_seidel_code(9).vectors
    v = np.vstack([base, base[:1]])
    tol = Tolerance(angle_tol=10.0 ** rng.uniform(-9, -6))
    v = v + rng.normal(scale=tol.angle_tol * rng.uniform(0.1, 3.0), size=v.shape)
    return Code(v / np.linalg.norm(v, axis=1)[:, None], tol), tol


@pytest.mark.parametrize("seed", range(12))
def test_angle_set_of_matches_reference_loop(seed):
    code, tol = _jittered_code(seed)
    points = angle_set_of(code).points
    assert points == _angle_points_by_loop(code, tol)
    assert points[-1] == 1.0 - 2 * tol.angle_tol  # the near-duplicate, clamped


def test_jittered_codes_split_clusters():
    # the jitter really splits the +/- 1/3 clusters, so the comparison
    # above exercises cluster boundaries
    counts = [len(angle_set_of(_jittered_code(seed)[0]).points) for seed in range(12)]
    assert max(counts) > 3 and min(counts) == 3


def _classify_by_loop(L, values):
    """Reference classifier: one mask per element, lowest precedence first."""
    out = np.full(values.shape, -1, dtype=int)
    k = len(L.intervals)
    for j in range(len(L.points) - 1, -1, -1):
        out[np.abs(values - L.points[j]) <= L.tol] = k + j
    for cid in range(len(L.intervals) - 1, -1, -1):
        lo, hi = L.intervals[cid]
        out[(values >= lo - L.tol) & (values <= hi + L.tol)] = cid
    return out


def _histogram_by_loop(L, classes):
    labels, histogram = L.class_labels, {}
    for cid in range(L.class_count()):
        count = int(np.count_nonzero(classes == cid))
        if count:
            histogram[labels[cid]] = count
    return histogram


@pytest.mark.parametrize("seed", range(12))
def test_classify_all_matches_reference_loop(seed):
    code, tol = _jittered_code(seed)
    values = gram_of(code).as_array()
    detected = angle_set_of(code)
    pts = np.array(detected.points)
    # values exactly at +-tol from each point, and one ulp beyond
    edges = np.concatenate([pts + tol.angle_tol, pts - tol.angle_tol,
                            np.nextafter(pts + tol.angle_tol, 2.0),
                            np.nextafter(pts - tol.angle_tol, -2.0)])
    rng = np.random.default_rng(seed)
    sets = [
        detected,
        # duplicated and overlapping points: the lowest matching one wins
        AngleSet(points=tuple(pts) + tuple(pts[:2]) + (pts[0] + tol.angle_tol,),
                 tol=tol.angle_tol),
        # intervals win over points, in declared order
        AngleSet(intervals=((-1.0, float(pts[0])), (-0.5, 0.4)),
                 points=tuple(pts), tol=tol.angle_tol),
        AngleSet(points=tuple(rng.uniform(-1, 0.9, 5)), tol=0.2),
    ]
    for L in sets:
        for vals in (values, edges, values[np.triu_indices(len(code), k=1)]):
            classes = L.classify_all(vals)
            assert np.array_equal(classes, _classify_by_loop(L, vals))
        report = validate_code(code, L)
        iu = np.triu_indices(len(code), k=1)
        assert report.histogram == _histogram_by_loop(L, _classify_by_loop(L, values[iu]))
        for v in edges[:8]:
            expected = int(_classify_by_loop(L, np.array([v]))[0])
            assert L.classify(v) == (None if expected < 0 else expected)


def test_classify_all_at_rounding_edges():
    rng = np.random.default_rng(7)
    # dyadic values lie exactly at +-tol from a point
    tol = 2.0 ** -20
    pts = np.array([-0.5, 0.25, 0.25 + tol, 0.5])
    vals = np.concatenate([pts + tol, pts - tol, np.nextafter(pts + tol, 2.0),
                           np.nextafter(pts - tol, -2.0), pts])
    L = AngleSet(points=tuple(pts), tol=tol)
    assert np.array_equal(L.classify_all(vals), _classify_by_loop(L, vals))
    assert L.classify(0.25 + tol) == 1 and L.classify(0.5 + tol) == 3
    assert L.classify_all(np.float64(0.5 + tol)) == 3  # a 0-d value stays 0-d
    assert L.classify_all(np.array(0.9)).shape == ()
    assert L.classify(np.nextafter(0.5 + tol, 2.0)) is None
    # points just below the rounded v - tol that still match v
    vals = rng.uniform(-0.5, 0.9, 2000)
    below = np.nextafter(vals - 0.1, -2.0)
    for L in (AngleSet(points=tuple(below[:40]), tol=0.1),
              AngleSet(points=tuple(np.nextafter(below[:40], -2.0)) + tuple(below[:40]),
                       tol=0.1)):
        assert np.array_equal(L.classify_all(vals), _classify_by_loop(L, vals))


def _distance_by_loop(L, value):
    """Reference distance: one step per declared element."""
    best = np.inf
    for lo, hi in L.intervals:
        best = min(best, max(lo - value, value - hi, 0.0))
    for p in L.points:
        best = min(best, abs(value - p))
    return float(best)


@pytest.mark.parametrize("seed", range(6))
def test_distance_all_matches_reference_loop(seed):
    code, tol = _jittered_code(seed)
    detected = angle_set_of(code)
    pts = np.array(detected.points)
    rng = np.random.default_rng(seed)
    vals = np.concatenate([gram_of(code).as_array().ravel(), pts + tol.angle_tol,
                           pts - tol.angle_tol, np.nextafter(pts + tol.angle_tol, 2.0),
                           rng.uniform(-1, 1, 200), [-1.0, 0.999]])
    sets = [
        detected,
        AngleSet(intervals=((-1.0, -0.5), (-0.2, 0.1)), points=tuple(pts), tol=tol.angle_tol),
        AngleSet(intervals=((-0.4, -0.3),), tol=0.01),
        AngleSet(points=tuple(rng.uniform(-1, 0.9, 7)), tol=0.2),
    ]
    for L in sets:
        expected = [_distance_by_loop(L, v) for v in vals.tolist()]
        assert L.distance_all(vals).tolist() == expected
        assert [L.distance(v) for v in vals[:30].tolist()] == expected[:30]


def test_distance_at_exactly_tol():
    # dyadic values lie exactly at +-tol from a point or an interval end
    tol = 2.0 ** -20
    pts = (-0.5, 0.25, 0.5)
    L = AngleSet(intervals=((-0.125, 0.0),), points=pts, tol=tol)
    vals = np.array([p + s * tol for p in pts for s in (1, -1)] + [-0.125 - tol, tol])
    assert L.distance_all(vals).tolist() == [tol] * len(vals)
    assert [L.distance(v) for v in vals] == [_distance_by_loop(L, v) for v in vals]


def test_validate_code_with_many_points_and_violations_within_budget():
    # every pair misses a 100,000-point set; a loop over every point took
    # 14 ms per violation, about 10 minutes for this code
    rng = np.random.default_rng(3)
    v = rng.normal(size=(300, 12))
    code = Code(v / np.linalg.norm(v, axis=1)[:, None])
    L = AngleSet(points=tuple(np.linspace(-1.0, 0.99, 100_000)), tol=1e-13)
    start = time.perf_counter()
    report = validate_code(code, L)
    assert time.perf_counter() - start < 2.0
    assert len(report.violations) > 40_000
    for i, j, value, dist in report.violations[::5000]:
        assert dist == _distance_by_loop(L, value) > L.tol

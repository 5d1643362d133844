import gc
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from equicode import (
    AngleParams,
    AngleSet,
    Code,
    LabelledGraph,
    RngStream,
    angle_set_after_projection,
    ball_subgraph_lambda,
    build_graph,
    catalog_lambda_checks,
    embed_from_gram,
    find_clique,
    gamma_degree_stats,
    greedy_independent_set,
    lambda1,
    lambda_inequality_check,
    lemmens_seidel_code,
    negative_structure_report,
    project_onto_complement,
    ramsey_pair,
    reduction_pipeline,
    regular_simplex,
    seven_dim_28_lines,
    switch_vertices,
    validate_code,
    verify_monochromatic,
    SymMatrix,
)
from equicode import codes
from equicode.graphlab import (
    _majority_chain,
    cycle_graph,
    path_graph,
    star_graph,
    tree_from_pruefer,
)
from equicode.errors import InvalidParams, NoClique, NotAnLCode, TooSmall

TWO_POINT = AngleSet(points=(-1 / 3, 1 / 3))


def test_build_graph_simplex_interval_class():
    g = build_graph(regular_simplex(3), AngleSet(intervals=((-1, -1 / 3),)))
    assert g.n_classes == 1
    off = g.classes[np.triu_indices(4, k=1)]
    assert np.all(off == 0)
    assert g.negative_class_ids() == (0,)


def test_build_graph_lemmens_seidel_matching():
    code = lemmens_seidel_code(4)
    g = build_graph(code, TWO_POINT)
    neg = g.negative_adjacency()
    assert int(neg.sum()) // 2 == 3
    assert np.all(neg.sum(axis=1) == 1)


def test_build_graph_28_lines_negative_degree():
    g = build_graph(seven_dim_28_lines(), TWO_POINT)
    deg = g.negative_adjacency().sum(axis=1)
    # a pair {i,j} is negative to the pairs disjoint from it: C(6,2) of them
    assert np.all(deg == math.comb(6, 2))


def test_build_graph_rejects_wrong_angle_set():
    with pytest.raises(NotAnLCode):
        build_graph(regular_simplex(3), AngleSet(points=(0.5,)))


def test_build_graph_counts_the_pairs_outside_the_angle_set():
    with pytest.raises(NotAnLCode, match="^6 pairs fall outside the angle set$"):
        build_graph(regular_simplex(3), AngleSet(points=(0.5,)))


def test_build_graph_classifies_each_pair_once(monkeypatch):
    from equicode import graphlab

    code = lemmens_seidel_code(9)
    sizes, validations = [], []
    classify_all = AngleSet.classify_all
    monkeypatch.setattr(AngleSet, "classify_all",
                        lambda self, values: sizes.append(np.size(values))
                        or classify_all(self, values))
    monkeypatch.setattr(graphlab, "validate_code",
                        lambda *args: validations.append(args) or validate_code(*args))
    g = build_graph(code, TWO_POINT)
    m = len(code)
    assert sizes == [m * (m - 1) // 2] and validations == []
    assert np.array_equal(g.classes, g.classes.T) and np.all(np.diag(g.classes) == -1)


def test_build_graph_keeps_its_class_matrix_uncopied():
    # LS(200) has 398 vectors, so its class matrix takes 8 m^2 = 1.27 MB.
    # When the graph copied it (and classify_all kept more temporaries),
    # build_graph's tracemalloc peak was 5.29 MB
    code = lemmens_seidel_code(200)
    code.gram  # built before the measurement: the Gram belongs to the code
    gc.collect()
    tracemalloc.start()
    try:
        graph = build_graph(code, TWO_POINT)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert graph.classes.nbytes == 8 * 398 * 398
    assert peak <= 5.29e6 - 1e6
    assert not graph.classes.flags.writeable


def test_labelled_graph_is_not_changed_through_the_callers_array():
    classes = np.array([[-1, 0, 1], [0, -1, 0], [1, 0, -1]])
    graph = LabelledGraph(classes, 2)
    classes[0, 2] = classes[2, 0] = 0
    assert graph.classes.tolist() == [[-1, 0, 1], [0, -1, 0], [1, 0, -1]]
    assert classes.flags.writeable and not graph.classes.flags.writeable


def test_degree_stats_simplex():
    g = build_graph(regular_simplex(3), AngleSet(intervals=((-1, -1 / 3),)))
    stats = gamma_degree_stats(g)
    assert np.all(stats.degrees[0] == 3)
    assert stats.max_degree[0] == 3 and stats.edge_count[0] == 6


def test_degree_stats_lemmens_seidel():
    g = build_graph(lemmens_seidel_code(6), TWO_POINT)
    stats = gamma_degree_stats(g)
    assert np.all(stats.degrees[0] == 1)
    assert stats.average_degree[0] == 1.0


def test_degree_stats_orthonormal_basis():
    g = build_graph(Code(np.eye(3)), AngleSet(points=(0.0,)))
    stats = gamma_degree_stats(g)
    assert np.all(stats.degrees[0] == 2)


def test_greedy_independent_set_empty_class():
    g = build_graph(Code(np.eye(4)), AngleSet(points=(0.0, 0.5)))
    assert greedy_independent_set(g, 1) == (0, 1, 2, 3)


def test_greedy_independent_set_complete_class():
    g = build_graph(regular_simplex(4), AngleSet(intervals=((-1, -1 / 4),)))
    assert len(greedy_independent_set(g, 0)) == 1


def test_greedy_independent_set_matching():
    code = lemmens_seidel_code(7)
    g = build_graph(code, TWO_POINT)
    chosen = greedy_independent_set(g, 0)
    assert len(chosen) == len(code) // 2
    adj = g.adjacency(0)
    for a in chosen:
        for b in chosen:
            assert not adj[a, b]


def test_greedy_independent_set_meets_turan_bound_randomized():
    rng = np.random.default_rng(0)
    for _ in range(30):
        n = int(rng.integers(5, 60))
        p = float(rng.uniform(0.05, 0.6))
        adj = rng.random((n, n)) < p
        adj = np.triu(adj, k=1)
        classes = np.where(adj | adj.T, 0, 1)
        np.fill_diagonal(classes, -1)
        g = LabelledGraph(classes, 2)
        chosen = greedy_independent_set(g, 0)
        delta = int(g.adjacency(0).sum(axis=1).max(initial=0))
        assert len(chosen) >= math.ceil(n / (delta + 1))


def test_ramsey_single_color_trivial():
    classes = np.zeros((6, 6), dtype=int)
    np.fill_diagonal(classes, -1)
    g = LabelledGraph(classes, 1)
    pair = ramsey_pair(g, k=1, t=2, m=2)
    assert len(pair.X) == 2 and len(pair.Y) == 2
    assert verify_monochromatic(g, pair)


def test_ramsey_parity_coloring():
    n = 33
    idx = np.arange(n)
    classes = (idx[:, None] + idx[None, :]) % 2
    np.fill_diagonal(classes, -1)
    g = LabelledGraph(classes, 2)
    pair = ramsey_pair(g, k=2, t=2, m=1)
    assert verify_monochromatic(g, pair)


def test_ramsey_first_shrink_bound():
    rng = np.random.default_rng(4)
    for k in (2, 3):
        n = (k ** (2 * k)) + 40
        upper = rng.integers(0, k, size=(n, n))
        classes = np.triu(upper, k=1)
        classes = classes + classes.T
        np.fill_diagonal(classes, -1)
        g = LabelledGraph(classes, k)
        _, _, _, sizes = _majority_chain(g, k, 1)
        assert sizes[0] >= math.ceil((n - 1) / k)


def test_ramsey_too_small():
    classes = np.zeros((5, 5), dtype=int)
    np.fill_diagonal(classes, -1)
    g = LabelledGraph(classes, 2)
    with pytest.raises(TooSmall):
        ramsey_pair(g, k=2, t=2, m=1)


def test_ramsey_random_colorings_invariant():
    rng = np.random.default_rng(8)
    for trial in range(20):
        k = 2 if trial % 2 == 0 else 3
        t, m = 2, 1
        n = (k ** (k * t)) * m + int(rng.integers(1, 30))
        upper = rng.integers(0, k, size=(n, n))
        classes = np.triu(upper, k=1)
        classes = classes + classes.T
        np.fill_diagonal(classes, -1)
        g = LabelledGraph(classes, k)
        pair = ramsey_pair(g, k=k, t=t, m=m)
        assert verify_monochromatic(g, pair)
        assert len(pair.X) == m and len(pair.Y) == t


def test_negative_structure_reports():
    assert negative_structure_report(
        build_graph(lemmens_seidel_code(8), TWO_POINT)).is_matching

    simplex_graph = build_graph(regular_simplex(3), AngleSet(intervals=((-1, -1 / 3),)))
    rep = negative_structure_report(simplex_graph)
    assert not rep.is_matching
    assert rep.components == ((4, 6, False),)

    empty = build_graph(Code(np.eye(4)), AngleSet(points=(0.0,)))
    # treat the single zero class as negative-free: no negative ids
    assert negative_structure_report(
        build_graph(binary_kcode_like(), AngleSet(points=(0.0, 0.5)))).components == ()


def binary_kcode_like():
    from equicode import binary_kcode

    return binary_kcode(4, 2)


def test_ball_subgraph_complete_graph():
    adj = ~np.eye(4, dtype=bool)
    ball = ball_subgraph_lambda(adj, 0, 11)
    assert len(ball.vertices) == 4
    assert abs(ball.lambda1 - 3.0) <= 1e-9
    assert ball.lambda1 >= 2 * (1 - 1 / 12) * math.sqrt(2) - 1e-9


def test_ball_subgraph_cycle():
    ball = ball_subgraph_lambda(cycle_graph(8), 0, 3)
    assert len(ball.vertices) == 7
    assert ball.lambda1 >= 2 * (1 - 1 / 4) * 1.0 - 1e-9


def test_ball_subgraph_isolated_vertex():
    adj = np.zeros((3, 3), dtype=bool)
    ball = ball_subgraph_lambda(adj, 1, 5)
    assert ball.vertices == (1,) and ball.lambda1 == 0.0


def test_ball_bound_on_random_graphs():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(12, 60))
        delta = int(rng.integers(2, 5))
        adj = _random_min_degree_graph(rng, n, delta)
        k = int(rng.integers(2, 12))
        v0 = int(rng.integers(0, n))
        ball = ball_subgraph_lambda(adj, v0, k)
        bound = 2 * (1 - 1 / (k + 1)) * math.sqrt(delta - 1)
        assert ball.lambda1 >= bound - 1e-9


def _random_min_degree_graph(rng, n, delta):
    adj = np.zeros((n, n), dtype=bool)
    for v in range(n):
        while adj[v].sum() < delta:
            w = int(rng.integers(0, n))
            if w != v:
                adj[v, w] = adj[w, v] = True
    return adj


def test_lambda1_monotone_under_subgraphs():
    rng = np.random.default_rng(21)
    for _ in range(15):
        n = int(rng.integers(5, 40))
        adj = np.triu(rng.random((n, n)) < 0.3, k=1)
        adj = adj | adj.T
        sub = adj.copy()
        iu = np.transpose(np.nonzero(np.triu(sub, k=1)))
        if len(iu) == 0:
            continue
        drop = iu[rng.integers(0, len(iu))]
        sub[drop[0], drop[1]] = sub[drop[1], drop[0]] = False
        keep = rng.random(n) < 0.8
        induced = sub[np.ix_(np.nonzero(keep)[0], np.nonzero(keep)[0])]
        if induced.size:
            assert lambda1(induced) <= lambda1(adj) + 1e-9


def test_lambda1_power_iteration_matches_dense():
    # a random graph above 500 vertices against a direct dense solve
    rng = np.random.default_rng(44)
    n = 560
    adj = np.triu(rng.random((n, n)) < 0.02, k=1)
    adj = adj | adj.T
    lam = lambda1(adj)
    want = float(np.linalg.eigvalsh(adj.astype(float))[-1])
    assert abs(lam - want) <= 1e-8


def test_lambda1_long_path_exact_and_fast():
    # P_n has lambda_1 = 2 cos(pi / (n + 1)) and a spectral gap of order
    # 1/n^2, the worst case for an iterative method; the answer must be
    # exact and quick
    started = time.time()
    lam = lambda1(path_graph(1200))
    assert time.time() - started < 10.0
    assert abs(lam - 2 * math.cos(math.pi / 1201)) <= 1e-9


def test_catalog_checks_all_pass():
    certs = catalog_lambda_checks()
    assert len(certs) >= 18
    for cert in certs:
        assert cert.passed, cert.name
    star = next(c for c in certs if c.name == "catalog-iii-star5")
    assert abs(star.rhs - math.sqrt(5)) <= 1e-9
    path11 = next(c for c in certs if c.name == "catalog-i-path11")
    assert abs(path11.rhs - 2 * math.cos(math.pi / 12)) <= 1e-9
    assert path11.lhs == pytest.approx(20 / 11)
    for k in range(3, 11):
        cyc = next(c for c in certs if c.name == f"catalog-ii-cycle{k}")
        assert abs(cyc.rhs - 2.0) <= 1e-9


def test_tree_from_pruefer_is_tree():
    rng = RngStream(3)
    for j in range(5):
        seq = (rng.derive(j).uniforms(9) * 11).astype(int)
        adj = tree_from_pruefer(seq)
        assert adj.shape == (11, 11)
        assert int(adj.sum()) // 2 == 10
        assert lambda1(adj) >= 20 / 11 - 1e-9


def test_graph_helpers():
    assert int(path_graph(11).sum()) // 2 == 10
    assert int(cycle_graph(6).sum()) // 2 == 6
    assert int(star_graph(5).sum()) // 2 == 5
    assert abs(lambda1(star_graph(5)) - math.sqrt(5)) <= 1e-12


def test_find_clique():
    code = seven_dim_28_lines()
    g = build_graph(code, TWO_POINT)
    clique = find_clique(g.adjacency(1), 4)
    assert clique is not None and len(clique) == 4
    gram = code.gram.as_array()
    for a in clique:
        for b in clique:
            if a != b:
                assert gram[a, b] > 0
    assert find_clique(np.zeros((5, 5), dtype=bool), 2) is None


def _ls_positive_graph(n, seed=None):
    """Positive graph of LS(n): K_{2,...,2} on 2n-2 vertices, optionally permuted."""
    m = 2 * n - 2
    adj = ~np.eye(m, dtype=bool)
    for b in range(n - 1):
        adj[2 * b, 2 * b + 1] = adj[2 * b + 1, 2 * b] = False
    if seed is not None:
        perm = np.random.default_rng(seed).permutation(m)
        adj = adj[np.ix_(perm, perm)]
    return adj


def test_ls_positive_graph_helper_matches_build_graph():
    g = build_graph(lemmens_seidel_code(12), TWO_POINT)
    assert np.array_equal(g.adjacency(1), _ls_positive_graph(12))


def test_find_clique_matches_brute_force_oracle():
    rng = np.random.default_rng(20261018)
    for _ in range(600):
        n = int(rng.integers(0, 15))
        upper = np.triu(rng.random((n, n)) < rng.uniform(0.2, 0.95), 1)
        adj = upper | upper.T
        # the diagonal is ignored, whatever it holds
        adj[np.diag_indices(n)] = rng.random(n) < 0.5
        t = int(rng.integers(0, n + 2))
        expected = next((s for s in itertools.combinations(range(n), t)
                         if all(adj[a, b] for a, b in itertools.combinations(s, 2))),
                        None)
        assert find_clique(adj, t) == expected


def test_find_clique_refuses_non_square_or_asymmetric():
    with pytest.raises(InvalidParams):
        find_clique(np.ones((3, 4), dtype=bool), 2)
    with pytest.raises(InvalidParams):
        find_clique(np.ones(4, dtype=bool), 2)
    arrow = np.zeros((3, 3), dtype=bool)
    arrow[0, 1] = True
    with pytest.raises(InvalidParams):
        find_clique(arrow, 2)
    loops = np.eye(3, dtype=bool)
    assert find_clique(loops, 1) == (0,)
    assert find_clique(loops, 2) is None


def test_find_clique_unsatisfiable_ls40_refuted_fast():
    adj = build_graph(lemmens_seidel_code(40), TWO_POINT).adjacency(1)
    start = time.perf_counter()
    assert find_clique(adj, 40) is None
    assert time.perf_counter() - start < 1.0
    assert find_clique(adj, 39) == tuple(range(0, 78, 2))


def test_find_clique_leaves_nothing_live_without_the_collector():
    adj = _ls_positive_graph(300, seed=7)
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        clique = find_clique(adj, 6)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert clique is not None and len(clique) == 6
    assert live < 1e6


def test_lambda_inequality_on_projected_code():
    outcome = reduction_pipeline(lemmens_seidel_code(12), t=6)
    assert outcome.projected is not None
    cert = lambda_inequality_check(outcome.projected)
    assert cert.passed
    assert abs(cert.witness["lambda1"] - 1.0) <= 1e-9  # matching negatives


def test_lambda_inequality_no_negative_edges():
    params = AngleParams(0.25, 6)
    eps = float(params.epsilon)
    g = np.full((7, 7), eps)
    np.fill_diagonal(g, 1.0)
    code = embed_from_gram(SymMatrix.from_array_symmetrized(g))
    cert = lambda_inequality_check(code, params)
    assert cert.passed and cert.witness["lambda1"] <= 1e-9
    assert cert.rhs >= 1 - eps - 1e-9


def test_lambda_inequality_random_psd_instances():
    rng = np.random.default_rng(31)
    params = AngleParams(0.2, 50)
    eps, sigma = float(params.epsilon), float(params.sigma)
    built = 0
    while built < 10:
        n = int(rng.integers(8, 26))
        adj = np.triu(rng.random((n, n)) < 0.08, k=1)
        adj = adj | adj.T
        m = (1 - eps) * np.eye(n) + eps * np.ones((n, n)) - sigma * (1 - eps) * adj
        sym = SymMatrix.from_array_symmetrized(m)
        from equicode import is_psd

        if not is_psd(sym).passed:
            continue
        code = embed_from_gram(sym)
        cert = lambda_inequality_check(code, params)
        assert cert.passed
        built += 1


def test_reduction_lemmens_seidel_partial_clique():
    n, t = 10, 7
    outcome = reduction_pipeline(lemmens_seidel_code(n), t=t)
    assert outcome.accounting["size"] == 2 * n - 2
    assert outcome.accounting["s_y"] == 2 * (n - 1 - t)
    assert outcome.accounting["s_y"] + outcome.accounting["others"] + t == 2 * n - 2
    assert outcome.projected is not None
    aset = angle_set_after_projection(outcome.params)
    assert validate_code(outcome.projected, aset).passed


def test_reduction_lemmens_seidel_full_clique_empty_bucket():
    # with t = n-1 every block partner meets the clique in one negative edge,
    # so S_Y is empty and the garbage buckets are all singletons
    n = 8
    outcome = reduction_pipeline(lemmens_seidel_code(n), t=n - 1)
    assert outcome.accounting["s_y"] == 0
    assert outcome.projected is None
    assert outcome.accounting["others"] == n - 1
    non_full = [vs for key, vs in outcome.buckets.items() if len(vs)]
    assert all(len(vs) == 1 for vs in non_full)


def test_reduction_simplex_has_no_positive_clique():
    with pytest.raises(NoClique):
        reduction_pipeline(regular_simplex(5), t=2)


def test_reduction_28_lines():
    outcome = reduction_pipeline(seven_dim_28_lines(), t=4)
    acc = outcome.accounting
    assert acc["size"] == 28
    assert acc["s_y"] + acc["others"] + acc["clique"] == 28
    assert outcome.switched  # disjoint pairs get negated
    for check in outcome.garbage_checks:
        assert check["bucket_size"] < check["bound"]
    if outcome.projected is not None:
        aset = angle_set_after_projection(outcome.params)
        assert validate_code(outcome.projected, aset).passed


def test_reduction_uses_ramsey_route_on_large_codes():
    # 1026 vectors exceed 4^max(t, ceil(1/alpha)+2) = 4^5, so the positive
    # clique comes from the monochromatic-pair extraction, not backtracking
    blocks = 513
    m = 2 * blocks
    g = np.full((m, m), 1 / 3)
    np.fill_diagonal(g, 1.0)
    for b in range(blocks):
        g[2 * b, 2 * b + 1] = g[2 * b + 1, 2 * b] = -1 / 3
    code = embed_from_gram(SymMatrix.from_array_symmetrized(g))
    outcome = reduction_pipeline(code, t=5)
    acc = outcome.accounting
    assert acc["size"] == m
    assert acc["size"] == acc["s_y"] + acc["others"] + acc["clique"]
    assert outcome.projected is not None
    aset = angle_set_after_projection(outcome.params)
    assert validate_code(outcome.projected, aset).passed


def test_reduction_size_class_buckets_above_24():
    # attachment sets are summarized by size once the clique exceeds 24
    outcome = reduction_pipeline(lemmens_seidel_code(27), t=25)
    assert all(isinstance(key, int) for key in outcome.buckets)
    acc = outcome.accounting
    assert acc["size"] == 52 and acc["s_y"] == 2 and acc["others"] == 25
    assert outcome.buckets[24] and len(outcome.buckets[24]) == 25
    assert len(outcome.buckets[25]) == 2


def test_reduction_accounting_identity_randomized():
    rng = np.random.default_rng(6)
    for n in (6, 9, 12):
        code = lemmens_seidel_code(n)
        for t in (2, 3, n - 2):
            outcome = reduction_pipeline(code, t=t)
            acc = outcome.accounting
            assert acc["size"] == acc["s_y"] + acc["others"] + acc["clique"]


def test_find_clique_deeper_than_the_recursion_limit():
    # one stack frame per clique vertex would overflow the interpreter's stack
    assert find_clique(np.ones((1100, 1100), dtype=bool), 1100) == tuple(range(1100))


def _scrambled_ls(n, seed):
    """LS(n) with about 15% of its vectors negated and the rows permuted."""
    rng = np.random.default_rng(seed)
    v = lemmens_seidel_code(n).vectors.copy()
    v[rng.random(len(v)) < 0.15] *= -1.0
    return Code(v[rng.permutation(len(v))])


def _reduction_oracle(C, t, alpha, clique):
    """Switched set, buckets and projection of the pipeline, from a second
    graph built on the switched code through the public functions."""
    aset = AngleSet(points=(-alpha, alpha))

    def attachments(code):
        g = build_graph(code, aset)
        return {v: tuple(y for y in clique if g.classes[v, y] == 1)
                for v in range(len(code)) if v not in clique}

    switched = tuple(v for v, T in attachments(C).items() if 2 * len(T) < t)
    work = switch_vertices(C, switched)
    buckets = {}
    for v, T in attachments(work).items():
        buckets.setdefault(T if t <= 24 else len(T), []).append(v)
    s_y = buckets.get(tuple(clique) if t <= 24 else t, [])
    projected = project_onto_complement(work.subset(s_y), work.subset(clique)) \
        if s_y else None
    return switched, {key: tuple(vs) for key, vs in buckets.items()}, projected


@pytest.mark.parametrize("n, t, seed", [(12, 6, 1), (16, 9, 2), (20, 5, 3),
                                        (30, 25, 4), (32, 27, 5)])
def test_reduction_matches_a_graph_built_on_the_switched_code(n, t, seed):
    code = _scrambled_ls(n, seed)
    outcome = reduction_pipeline(code, t)
    switched, buckets, projected = _reduction_oracle(code, t, outcome.alpha,
                                                     outcome.clique)
    assert outcome.switched == switched and switched
    assert outcome.buckets == buckets
    assert projected is not None
    assert np.array_equal(outcome.projected.gram.as_array(), projected.gram.as_array())


@pytest.mark.parametrize("t", [1, 6])
def test_reduction_builds_no_gram_for_the_switched_code(t, monkeypatch):
    # Grams of the input code, of the clique (which has no pairs at t = 1)
    # and of the projected bucket; the switched code's classes follow from
    # the input's by sign flips
    calls = []
    real = codes.gram_of
    monkeypatch.setattr(codes, "gram_of", lambda C: calls.append(len(C)) or real(C))
    outcome = reduction_pipeline(_scrambled_ls(12, 1), t=t)
    assert outcome.switched and outcome.projected is not None
    assert calls == [22] + [t] * (t > 1) + [len(outcome.projected)]

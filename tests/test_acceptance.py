"""Acceptance criteria, one test per criterion, each printing PASS/FAIL."""

import math
import time
from fractions import Fraction

import numpy as np

from equicode import (
    AngleSet,
    ConcatParams,
    LabelledGraph,
    RngStream,
    SymMatrix,
    ball_subgraph_lambda,
    catalog_lambda_checks,
    concatenated_code,
    detect_equiangular,
    embed_from_gram,
    gerzon_certificate,
    gram_of,
    greedy_independent_set,
    lemmens_seidel_code,
    lemmens_seidel_gram,
    multipartite_certificate,
    odd_reciprocal_code,
    predicted_projection_angle,
    project_onto_complement,
    ramsey_pair,
    random_unit_vectors,
    rank_of,
    regular_simplex,
    seven_dim_28_lines,
    trace_rank_lower_bound,
    validate_code,
    verify_monochromatic,
)


def _report(criterion, started, budget, ok):
    elapsed = time.time() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"criterion {criterion}: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert ok, f"criterion {criterion} assertions failed"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s"


def test_criterion_1_lemmens_seidel_family():
    started = time.time()
    ok = True
    for n in range(3, 101):
        code = lemmens_seidel_code(n)
        ok &= len(code) == 2 * n - 2 and code.dim == n
        ok &= abs(detect_equiangular(code) - 1 / 3) <= 1e-9
        rank = rank_of(lemmens_seidel_gram(n))
        ok &= rank == n
        ok &= (2 * n - 2) - rank == n - 2  # zero eigenvalue multiplicity
        if not ok:
            break
    _report(1, started, 30, ok)


def test_criterion_2_28_lines_and_gerzon():
    started = time.time()
    code = seven_dim_28_lines()
    ok = validate_code(code, AngleSet(points=(-1 / 3, 1 / 3))).passed
    ok &= rank_of(gram_of(code)) == 7
    cert = gerzon_certificate(code)
    ok &= cert.passed and cert.lhs == 28 and cert.rhs == math.comb(8, 2)
    ok &= cert.witness["outer_rank"] == 28
    _report(2, started, 1, ok)


def _projection_triples():
    triples = []
    gammas = [0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85]
    for gamma in gammas:
        for t in (1, 2, 3, 5, 8, 13):
            q = t * gamma * gamma / (1 + gamma * (t - 1))
            lo = max(2 * q - 1, -1.0) + 0.01
            for p in np.linspace(lo, 0.98, 17):
                triples.append((gamma, t, float(p)))
    for gamma in [-g for g in gammas]:
        q = gamma * gamma
        lo = max(2 * q - 1, -1.0) + 0.01
        for p in np.linspace(lo, 0.98, 17):
            triples.append((gamma, 1, float(p)))
    return triples


def test_criterion_3_projection_identity():
    started = time.time()
    triples = _projection_triples()
    assert len(triples) >= 1000
    ok = True
    for gamma, t, p in triples:
        n = t + 2
        g = np.full((n, n), gamma)
        np.fill_diagonal(g, 1.0)
        g[t, t + 1] = g[t + 1, t] = p
        code = embed_from_gram(SymMatrix.from_array_symmetrized(g))
        projected = project_onto_complement(code.subset([t, t + 1]),
                                            code.subset(range(t)))
        got = float(gram_of(projected).as_array()[0, 1])
        want = predicted_projection_angle(gamma, t, p)
        ok &= abs(got - want) <= 1e-8
        if not ok:
            break
    # positive-clique special case, exact in rational arithmetic
    for num, den in ((1, 3), (1, 5), (2, 7), (3, 8)):
        alpha = Fraction(num, den)
        for t in range(1, 26):
            ok &= predicted_projection_angle(alpha, t, alpha) == 1 / (t + 1 / alpha)
    _report(3, started, 10, ok)


def test_criterion_4_concatenated_construction():
    started = time.time()
    successes = 0
    for seed in range(10):
        seed_started = time.time()
        params = ConcatParams(30, 2, 3, 0.5, seed)
        assert abs(params.beta_target - (1 / 3 - params.t_threshold) / 2) <= 1e-15
        code, achieved_beta, report = concatenated_code(params)
        block = math.comb(30, 2)
        okay = len(code) == 4 * block == 1740 and code.dim == 33
        g = code.vectors @ code.vectors.T
        for c in range(4):
            sl = slice(c * block, (c + 1) * block)
            inner = g[sl, sl][np.triu_indices(block, k=1)]
            dev = np.minimum(np.abs(inner - 0.5), np.abs(inner - 0.75))
            okay &= float(dev.max()) <= 1e-9
        cross_max = -np.inf
        for a in range(4):
            for b in range(a + 1, 4):
                sa = slice(a * block, (a + 1) * block)
                sb = slice(b * block, (b + 1) * block)
                cross_max = max(cross_max, float(g[sa, sb].max()))
        okay &= cross_max <= -params.beta_target
        okay &= achieved_beta >= params.beta_target
        if okay:
            successes += 1
        assert time.time() - seed_started < 60, f"seed {seed} exceeded 60s"
    print(f"criterion 4 success rate: {successes}/10")
    _report(4, started, 600, successes >= 9)


def test_criterion_5_random_rotation_tail():
    started = time.time()
    n, pairs, t = 200, 10 ** 4, 0.2
    u = random_unit_vectors(pairs, n, RngStream(100).derive(0)).vectors
    v = random_unit_vectors(pairs, n, RngStream(100).derive(1)).vectors
    frac = float(np.mean(np.sum(u * v, axis=1) >= t))
    bound = math.exp(-t * t * n / 2)
    se = math.sqrt(bound * (1 - bound) / pairs)
    print(f"criterion 5 exceedance: {frac:.5f} vs {bound + 3 * se:.5f}")
    _report(5, started, 30, frac < bound + 3 * se)


def test_criterion_6_trace_ratio_bound():
    started = time.time()
    rng = np.random.default_rng(600)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(2, 51))
        m = SymMatrix.from_array_symmetrized(rng.uniform(-1, 1, size=(n, n)))
        try:
            bound = trace_rank_lower_bound(m)
        except Exception:
            continue
        ok &= rank_of(m) >= bound - 1e-9
        if not ok:
            break
    eye = SymMatrix.from_integers(np.eye(7, dtype=np.int64))
    ok &= trace_rank_lower_bound(eye) == Fraction(7) == rank_of(eye)
    ones = SymMatrix.from_integers(np.ones((7, 7), dtype=np.int64))
    ok &= trace_rank_lower_bound(ones) == Fraction(1) == rank_of(ones)
    _report(6, started, 30, ok)


def test_criterion_7_spectral_catalog_and_ball_bound():
    started = time.time()
    certs = catalog_lambda_checks()
    ok = all(c.passed for c in certs)
    star = next(c for c in certs if c.name == "catalog-iii-star5")
    ok &= abs(star.rhs - math.sqrt(5)) <= 1e-9
    path11 = next(c for c in certs if c.name == "catalog-i-path11")
    ok &= path11.rhs >= 20 / 11 - 1e-9
    for k in range(3, 11):
        cyc = next(c for c in certs if c.name == f"catalog-ii-cycle{k}")
        ok &= cyc.rhs >= 2.0 - 1e-9
    deg4 = next(c for c in certs if c.name == "catalog-iv-deg4-5edges")
    ok &= deg4.rhs >= 2.25 - 1e-9
    for name in ("catalog-v-spider", "catalog-v-adjacent-neighbors"):
        ok &= next(c for c in certs if c.name == name).rhs >= 2.2 - 1e-9

    rng = np.random.default_rng(700)
    violations = 0
    for _ in range(100):
        n = int(rng.integers(12, 80))
        delta = int(rng.integers(2, 5))
        adj = np.zeros((n, n), dtype=bool)
        for v in range(n):
            while adj[v].sum() < delta:
                w = int(rng.integers(0, n))
                if w != v:
                    adj[v, w] = adj[w, v] = True
        k = int(rng.integers(2, 12))
        v0 = int(rng.integers(0, n))
        ball = ball_subgraph_lambda(adj, v0, k)
        bound = 2 * (1 - 1 / (k + 1)) * math.sqrt(delta - 1)
        if ball.lambda1 < bound - 1e-9:
            violations += 1
    print(f"criterion 7 ball-bound violations: {violations}/100")
    _report(7, started, 60, ok and violations == 0)


def test_criterion_8_ramsey_and_turan():
    started = time.time()
    rng = np.random.default_rng(800)
    ok = True
    for trial in range(100):
        k = 2 if trial % 2 == 0 else 3
        t, m = 2, 2 if k == 2 else 1
        n = (k ** (k * t)) * m + int(rng.integers(1, 20))
        upper = rng.integers(0, k, size=(n, n))
        classes = np.triu(upper, k=1)
        classes = classes + classes.T
        np.fill_diagonal(classes, -1)
        g = LabelledGraph(classes, k)
        pair = ramsey_pair(g, k=k, t=t, m=m)
        ok &= verify_monochromatic(g, pair)
        ok &= len(pair.X) == m and len(pair.Y) == t
        if not ok:
            break
    for _ in range(100):
        n = int(rng.integers(5, 80))
        p = float(rng.uniform(0.05, 0.5))
        adj = np.triu(rng.random((n, n)) < p, k=1)
        classes = np.where(adj | adj.T, 0, 1)
        np.fill_diagonal(classes, -1)
        g = LabelledGraph(classes, 2)
        chosen = greedy_independent_set(g, 0)
        delta = int(g.adjacency(0).sum(axis=1).max(initial=0))
        ok &= len(chosen) >= n / (delta + 1)
        if not ok:
            break
    _report(8, started, 30, ok)


def test_criterion_9_multipartite_equality_on_simplices():
    started = time.time()
    ok = True
    for r in range(1, 51):
        code = regular_simplex(r)
        cert = multipartite_certificate(code, [[i] for i in range(r + 1)],
                                        alpha=0.5, beta=1.0 / r)
        ok &= cert.passed
        ok &= abs(float(cert.lhs) - float(cert.rhs)) <= 1e-10 * max(1.0, float(cert.rhs))
        if not ok:
            break
    _report(9, started, 5, ok)


def test_criterion_10_no_counterexample_sweep():
    # asymptotic maximality itself is out of reach; this checks that no
    # generated equiangular code at fixed alpha != 1/3 beats 1.93n
    started = time.time()
    ok = True
    for r in (3, 4, 5):
        for n in range(50, 201):
            size = r * ((n - 1) // (r - 1))
            ok &= size <= 1.93 * n
    for r in (3, 4, 5):
        for n in (50, 100, 200):
            code = odd_reciprocal_code(n, r)
            alpha = detect_equiangular(code)
            ok &= abs(alpha - 1 / (2 * r - 1)) <= 1e-9
            ok &= len(code) == r * ((n - 1) // (r - 1))
            ok &= len(code) <= 1.93 * n
    _report(10, started, 120, ok)

import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from equicode import (
    DEFAULT_TOL,
    Code,
    SymMatrix,
    Tolerance,
    embed_from_gram,
    gram_of,
    is_psd,
    lemmens_seidel_code,
    lemmens_seidel_gram,
    lines28_gram,
    odd_reciprocal_gram,
    quadratic_form,
    rank_of,
    seven_dim_28_lines,
    simplex_gram,
    sym_eigen,
    trace_rank_lower_bound,
)
from equicode.errors import (
    DegenerateInput,
    DimensionMismatch,
    InvalidMatrix,
    NotRealizable,
    NotUnitDiagonal,
)


def test_sym_eigen_identity():
    spec = sym_eigen(SymMatrix(np.eye(3)))
    assert np.allclose(spec.eigenvalues, [1.0, 1.0, 1.0])
    assert spec.residual <= 1e-10


def test_sym_eigen_all_ones():
    spec = sym_eigen(SymMatrix(np.ones((4, 4))))
    assert np.allclose(spec.eigenvalues, [4.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_sym_eigen_two_by_two_block():
    m = SymMatrix(np.array([[1.0, -1 / 3], [-1 / 3, 1.0]]))
    spec = sym_eigen(m)
    assert np.allclose(spec.eigenvalues, [4 / 3, 2 / 3])


def test_sym_eigen_rejects_rational_backend():
    with pytest.raises(InvalidMatrix):
        sym_eigen(simplex_gram(2))


def test_sym_eigen_rejects_non_finite():
    with pytest.raises(InvalidMatrix):
        SymMatrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_sym_eigen_residual_bound():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 40))
        a = rng.uniform(-1, 1, size=(n, n))
        m = SymMatrix.from_array_symmetrized(a)
        spec = sym_eigen(m)
        scale = max(1.0, float(np.abs(spec.eigenvalues).max()))
        assert spec.residual <= 1e-10 * scale


def test_rank_all_ones_is_one():
    for n in (2, 5, 9):
        assert rank_of(SymMatrix(np.ones((n, n)))) == 1
        assert rank_of(SymMatrix.from_integers(np.ones((n, n), dtype=np.int64))) == 1


def test_rank_lemmens_seidel_small():
    assert rank_of(lemmens_seidel_gram(3)) == 3
    assert rank_of(gram_of(lemmens_seidel_code(3))) == 3


def test_rank_threshold_semantics():
    m = SymMatrix(np.diag([1.0, 1e-15, 1.0]))
    assert rank_of(m) == 2


def test_is_psd_identity():
    cert = is_psd(SymMatrix(np.eye(3)))
    assert cert.passed and abs(cert.witness["lambda_min"] - 1.0) < 1e-12


def test_is_psd_indefinite():
    cert = is_psd(SymMatrix(np.array([[1.0, -2.0], [-2.0, 1.0]])))
    assert not cert.passed
    assert abs(cert.witness["lambda_min"] + 1.0) < 1e-12


def test_is_psd_28_lines():
    assert is_psd(gram_of(seven_dim_28_lines())).passed


def test_is_psd_rational_witness():
    bad = SymMatrix([[Fraction(1), Fraction(-2)], [Fraction(-2), Fraction(1)]])
    cert = is_psd(bad)
    assert not cert.passed
    assert cert.witness["pivot"] < 0


def test_is_psd_rational_zero_diagonal_rules():
    ok = SymMatrix([[0, 0], [0, 1]])
    assert is_psd(ok).passed
    bad = SymMatrix([[0, 1], [1, 1]])
    cert = is_psd(bad)
    assert not cert.passed and "indefinite_pair" in cert.witness


def test_trace_rank_bound_equality_cases():
    eye = SymMatrix.from_integers(np.eye(5, dtype=np.int64))
    assert trace_rank_lower_bound(eye) == Fraction(5)
    assert rank_of(eye) == 5
    ones = SymMatrix.from_integers(np.ones((6, 6), dtype=np.int64))
    assert trace_rank_lower_bound(ones) == Fraction(1)
    assert rank_of(ones) == 1


def test_trace_rank_bound_diagonal_example():
    m = SymMatrix([[2, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert trace_rank_lower_bound(m) == Fraction(16, 6)
    assert rank_of(m) == 3


def test_trace_rank_bound_zero_matrix():
    with pytest.raises(DegenerateInput):
        trace_rank_lower_bound(SymMatrix(np.zeros((3, 3))))


def test_trace_rank_bound_never_exceeds_rank():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 30))
        m = SymMatrix.from_array_symmetrized(rng.uniform(-1, 1, size=(n, n)))
        bound = trace_rank_lower_bound(m)
        assert rank_of(m) >= math.ceil(bound - 1e-9)


def test_embed_identity():
    code = embed_from_gram(SymMatrix(np.eye(3)))
    assert code.dim == 3 and len(code) == 3
    assert np.allclose(gram_of(code).as_array(), np.eye(3), atol=1e-10)


def test_embed_simplex_round_trip():
    g = simplex_gram(2).to_float()
    code = embed_from_gram(g)
    assert code.dim == 2 and len(code) == 3
    assert np.abs(gram_of(code).as_array() - g.as_array()).max() <= 1e-10


def test_embed_lemmens_seidel_four():
    code = embed_from_gram(lemmens_seidel_gram(4).to_float())
    assert len(code) == 6 and code.dim == 4


def test_embed_rejects_indefinite():
    with pytest.raises(NotRealizable):
        embed_from_gram(SymMatrix(np.array([[1.0, -2.0], [-2.0, 1.0]])))


def test_embed_rejects_bad_diagonal():
    with pytest.raises(NotUnitDiagonal):
        embed_from_gram(SymMatrix(np.diag([1.0, 2.0])))


@pytest.mark.parametrize("diagonal, message", [
    ([1, Fraction(5, 3), 1, 3], "diagonal entry 1 is 5/3, not 1"),
    ([1.0, 2.0, 1.0, 0.5], "diagonal entry 1 is 2.0, not 1"),
], ids=["rational", "float"])
def test_unit_diagonal_check_names_the_first_bad_entry(diagonal, message):
    from equicode.matcore import _require_unit_diagonal

    m = SymMatrix([[x if i == j else 0 * x for j, x in enumerate(diagonal)]
                   for i in range(len(diagonal))])
    with pytest.raises(NotUnitDiagonal, match=f"^{message}$"):
        _require_unit_diagonal(m, DEFAULT_TOL)


def test_rational_unit_diagonal_is_compared_exactly():
    # |d - 1| = 10^-9 exactly, just below the float angle_tol 1e-9
    from equicode.matcore import _require_unit_diagonal

    m = SymMatrix([[Fraction(10 ** 9 + 1, 10 ** 9), 0], [0, Fraction(10 ** 9 - 1, 10 ** 9)]])
    assert m.backend == "rational"
    _require_unit_diagonal(m, DEFAULT_TOL)


def test_embed_gram_round_trip_psd_inputs():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(2, 12))
        b = rng.normal(size=(n, n))
        g = b @ b.T
        d = np.sqrt(np.diag(g))
        g = g / np.outer(d, d)
        m = SymMatrix.from_array_symmetrized(g)
        code = embed_from_gram(m)
        assert np.abs(gram_of(code).as_array() - m.as_array()).max() <= 1e-8


def test_quadratic_form_identity():
    assert quadratic_form(SymMatrix(np.eye(2)), [3, 4]) == 25


def test_quadratic_form_simplex_ones_is_zero():
    for r in (2, 3, 7):
        g = simplex_gram(r)
        assert quadratic_form(g, [Fraction(1)] * (r + 1)) == 0


def test_quadratic_form_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        quadratic_form(SymMatrix(np.eye(3)), [1, 2])


def test_quadratic_form_nonnegative_on_psd():
    rng = np.random.default_rng(17)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        b = rng.normal(size=(n, n))
        m = SymMatrix.from_array_symmetrized(b @ b.T)
        assert is_psd(m).passed
        for _ in range(10):
            v = rng.uniform(-2, 2, size=n)
            norm_sq = float(v @ v)
            assert quadratic_form(m, v) >= -DEFAULT_TOL.psd_slack * norm_sq


def test_eigenvalue_sums_match_traces():
    rng = np.random.default_rng(23)
    for _ in range(30):
        n = int(rng.integers(2, 40))
        m = SymMatrix.from_array_symmetrized(rng.uniform(-1, 1, size=(n, n)))
        spec = sym_eigen(m)
        assert abs(spec.eigenvalues.sum() - m.trace()) <= 1e-9 * n
        assert abs((spec.eigenvalues ** 2).sum() - m.trace_square()) <= 1e-9 * n


def _random_rational_symmetric(rng, n, deficient):
    if deficient:
        r = int(rng.integers(1, n))
        b = rng.integers(-1, 2, size=(r, n))
        m = (b.T @ b).tolist()
    else:
        a = rng.integers(-10, 11, size=(n, n))
        m = ((a + a.T) // 2).tolist()
    return [[Fraction(int(x)) for x in row] for row in m]


def test_rational_and_float_rank_agree():
    rng = np.random.default_rng(29)
    for trial in range(30):
        n = int(rng.integers(2, 51))
        rows = _random_rational_symmetric(rng, n, deficient=trial % 2 == 0)
        exact = SymMatrix(rows)
        assert exact.backend == "rational"
        assert rank_of(exact) == rank_of(exact.to_float())


def test_rational_rank_huge_entries_falls_back_exactly():
    # Hilbert-like matrix forces the int64 guard into the exact path.
    n = 12
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    m = SymMatrix(rows)
    assert m.backend == "rational"
    assert rank_of(m) == n
    assert is_psd(m).passed


# exact kernel: int64 start, restarts on the primitive part, Python ints ------


def _fraction_sweep(rows):
    """Symmetric elimination in plain Fractions, diagonal pivots only.

    Returns (rank, witness, largest |leading minor| of the integer form),
    with the witness as the exact sweep reports it.
    """
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    den = math.lcm(*(x.denominator for row in m for x in row))
    rank, minor, largest = 0, Fraction(1), 0
    for k in range(n):
        p = m[k][k]
        if p < 0:
            return rank, {"pivot_index": k, "pivot": p}, largest
        if p == 0:
            for j in range(k + 1, n):
                if m[k][j] != 0:
                    return rank, {"pivot_index": k, "pivot": Fraction(0),
                                  "indefinite_pair": (k, j)}, largest
            continue
        rank += 1
        minor *= p * den
        largest = max(largest, abs(minor))
        for i in range(k + 1, n):
            f = m[i][k] / p
            if f:
                for j in range(k + 1, n):
                    m[i][j] -= f * m[k][j]
    return rank, None, largest


def _fraction_rank(rows):
    """Rank in plain Fractions with row pivoting."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][col] / m[rank][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def _perturbed(gram, i, j, delta):
    rows = [list(row) for row in gram.rows()]
    rows[i][j] += delta
    if i != j:
        rows[j][i] += delta
    m = SymMatrix(rows)
    assert m.backend == "rational"
    return m


def _dense_gram(n, seed):
    """B^T B for a random integer B: dense, full rank, gcd-1 Schur blocks."""
    b = np.random.default_rng(seed).integers(-9, 10, size=(n, n))
    m = SymMatrix.from_integers(b.T @ b)
    assert m.backend == "rational"
    return m


class _GcdProbe:
    """Stands in for numpy in ``matcore`` and logs each ``gcd.reduce`` the
    kernel takes where the int64 guard fails, as (gcd, max |entry| of the block)."""

    def __init__(self):
        self.log = []
        self.gcd = self

    def __getattr__(self, name):
        return getattr(np, name)

    def reduce(self, block, **kwargs):
        g = np.gcd.reduce(block, **kwargs)
        self.log.append((int(g), int(np.abs(block).max())))
        return g


def _sweep_paths(sweep, *args):
    """Run ``sweep(*args)`` and count the kernel's restarts and promotions."""
    from equicode import matcore

    probe = _GcdProbe()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(matcore, "np", probe)
        result = sweep(*args)
    restarts = sum(2 * (top // g) ** 2 < 2 ** 62 for g, top in probe.log)
    return result, restarts, len(probe.log) - restarts


@pytest.mark.parametrize("case, kind", [
    ("ls40", "psd"),                      # rank 40 of 78, zero pivots after the restart
    ("simplex30", "psd"),                 # rank 30 of 31
    ("ls40-last-diagonal", "negative-pivot"),
    ("simplex30-last-diagonal", "negative-pivot"),
    ("ls40-far-pair", "indefinite-pair"),
    ("dense24", "psd"),                   # gcd-1 block past the guard: Python ints
])
def test_exact_kernel_promotes_partway_and_matches_fraction_oracle(case, kind):
    ls, simplex = lemmens_seidel_gram(40), simplex_gram(30)
    m = {
        "ls40": ls,
        "simplex30": simplex,
        "ls40-last-diagonal": _perturbed(ls, 77, 77, Fraction(-1, 3)),
        "simplex30-last-diagonal": _perturbed(simplex, 30, 30, Fraction(-1, 30)),
        "ls40-far-pair": _perturbed(ls, 70, 77, Fraction(1, 3)),
        "dense24": _dense_gram(24, seed=41),
    }[case]
    rank, witness, largest = _fraction_sweep(m.rows())
    # the entries pass the int64 guard (2 max^2 < 2^62) and a leading minor
    # before the verdict fails it, so plain Bareiss would leave int64 there;
    # the kernel restarts on the primitive part instead when that fits
    # (LS, simplex) and goes on in Python ints when it does not (dense)
    assert m._array.dtype == np.int64 and 2 * int(np.abs(m._array).max()) ** 2 < 2 ** 62
    assert 2 * largest ** 2 >= 2 ** 62
    _, restarts, promotions = _sweep_paths(is_psd, m)
    assert (restarts > 0, promotions) == ((False, 1) if case == "dense24" else (True, 0))
    cert = is_psd(m)
    assert cert.witness == ({"rank": rank} if witness is None else witness)
    assert rank_of(m) == _fraction_rank(m.rows())
    if kind == "psd":
        assert cert.passed and rank_of(m) == rank
    elif kind == "negative-pivot":
        assert not cert.passed and cert.witness["pivot"] < 0
    else:
        assert not cert.passed and cert.witness["indefinite_pair"] == (71, 77)


def _scaled(gram, factor):
    m = SymMatrix.from_integers(gram._array * factor, gram._den)
    assert m._array.dtype == np.int64
    return m


def _matching_matrix(m, p, q):
    """q I - p A for A a perfect matching on m vertices, as the matching
    certificate builds it."""
    a = np.zeros((m, m), dtype=np.int64)
    for e in range(0, m - 1, 2):
        a[e, e + 1] = a[e + 1, e] = 1
    return SymMatrix.from_integers(q * np.eye(m, dtype=np.int64) - p * a)


@pytest.mark.parametrize("build", [
    lambda: odd_reciprocal_gram(25, 3),
    lambda: _scaled(lemmens_seidel_gram(12), 3 ** 9),   # the guard fails at step 1
    lambda: _scaled(simplex_gram(9), 5 ** 19),          # the guard fails at step 0
    lambda: _matching_matrix(40, 1, 2),
], ids=["odd-reciprocal-25-3", "ls12-times-3^9", "simplex9-times-5^19", "matching40"])
def test_exact_kernel_restarts_where_plain_bareiss_leaves_int64(build):
    from equicode import matcore

    m = build()
    rank, witness, largest = _fraction_sweep(m.rows())
    assert witness is None and 2 * largest ** 2 >= 2 ** 62
    (psd_rank, _, _), restarts, promotions = _sweep_paths(
        matcore._fraction_free, m._array, m._den)
    assert psd_rank == rank == rank_of(m) == _fraction_rank(m.rows())
    assert restarts > 0 and promotions == 0


@pytest.mark.parametrize("num", [
    [[-2 ** 63, 6], [6, 4]],
    [[-2 ** 63, 0], [0, -2 ** 63]],
    [[0, -2 ** 63], [-2 ** 63, 0]],
    [[2 ** 62, -2 ** 63], [-2 ** 63, 2 ** 62]],
    [[2 ** 63 - 1, 2 ** 62], [2 ** 62, 2 ** 63 - 1]],
    [[2 ** 31, 2 ** 31], [2 ** 31, -2 ** 31]],  # order max^2 = 2^63: M M wraps in int64
], ids=["min-with-small", "min-diagonal", "min-off-diagonal", "indefinite", "max-psd",
        "square-past-int64"])
def test_exact_kernel_at_the_ends_of_int64(num):
    m = SymMatrix.from_integers(np.array(num, dtype=np.int64))
    rank, witness, _ = _fraction_sweep(m.rows())
    cert = is_psd(m)
    assert repr(cert.witness) == repr({"rank": rank} if witness is None else witness)
    assert rank_of(m) == _fraction_rank(m.rows())


@pytest.mark.parametrize("build, sweeps", [
    (lambda: lemmens_seidel_gram(12), 1),
    (lambda: _matching_matrix(40, 3, 2), 2),   # 2 I - 3 A is not PSD
], ids=["ls12-psd", "matching40-indefinite"])
def test_rank_takes_one_sweep_and_one_more_on_the_square_if_not_psd(build, sweeps, monkeypatch):
    from equicode import matcore

    m = build()
    calls = []
    kernel = matcore._fraction_free

    def counted(num, *args):
        calls.append(num)
        return kernel(num, *args)

    monkeypatch.setattr(matcore, "_fraction_free", counted)
    assert rank_of(m) == _fraction_rank(m.rows())
    assert len(calls) == sweeps and calls[0] is m._array
    if sweeps == 2:
        square = m._array @ m._array
        assert calls[1].dtype == square.dtype and np.array_equal(calls[1], square)


@pytest.mark.parametrize("build", [
    lambda: lemmens_seidel_gram(40),                        # restarts
    lambda: _dense_gram(24, seed=41),                       # promotes
    lambda: _perturbed(lemmens_seidel_gram(12), 21, 21, Fraction(-1, 3)),
    lambda: _matching_matrix(40, 3, 2),                     # ranked through M M
], ids=["ls40", "dense24", "ls12-last-diagonal", "matching40-indefinite"])
def test_rank_only_sweeps_form_no_factor(build, monkeypatch):
    from equicode import matcore

    m = build()
    rank, witness, _ = matcore._fraction_free(m._array, m._den, True)

    def refused(*args, **kwargs):
        raise AssertionError("a rank-only sweep formed a factor")

    class NoZeros:  # numpy in ``matcore``, with no zeros() for an m x m X
        zeros = staticmethod(refused)

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(matcore, "_scaled_root", refused)
    monkeypatch.setattr(matcore, "np", NoZeros())
    assert rank_of(m) == _fraction_rank(m.rows())
    cert = is_psd(m)
    assert repr(cert.witness) == repr({"rank": rank} if witness is None else witness)
    assert matcore._fraction_free(m._array, m._den) == (rank, witness, None)


def test_rank_of_indefinite_input_in_time():
    m = _matching_matrix(600, 3, 2)  # 2 I - 3 A: eigenvalues 5 and -1
    start = time.perf_counter()
    assert rank_of(m) == 600
    assert time.perf_counter() - start < 3.0


@st.composite
def _small_grams(draw):
    """Rational rows c/den * G for an integer Gram G = B^T B, maybe perturbed to
    indefinite; a large common factor c makes the kernel restart."""
    n = draw(st.integers(1, 7))
    r = draw(st.integers(1, n))
    b = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=r, max_size=r)), dtype=np.int64)
    g = b.T @ b
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    delta = draw(st.sampled_from([0, 0, -1, 1, -3]))
    g[i, j] += delta
    if i != j:
        g[j, i] += delta
    c = draw(st.sampled_from([1, 3 ** 9, 2 ** 20 + 7, 5 ** 19]))
    den = draw(st.integers(1, 6))
    return [[Fraction(int(x) * c, den) for x in row] for row in g]


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_small_grams())
def test_exact_kernel_matches_the_fraction_oracles(rows):
    m = SymMatrix(rows)
    assert m.backend == "rational"
    rank, witness, _ = _fraction_sweep(rows)
    cert = is_psd(m)
    assert cert.passed == (witness is None)
    assert repr(cert.witness) == repr({"rank": rank} if witness is None else witness)
    assert rank_of(m) == _fraction_rank(rows)


def _assert_factor_reproduces(rows, X):
    """Exact X X^T lies within 2^-52 sqrt(G_ii G_jj) of G at every entry: one
    ulp of 1 on a unit diagonal.  Each entry of X is correctly rounded, so each
    product is off by under 2^-52 of its size, and by Cauchy-Schwarz the sizes
    of row i times row j sum to at most sqrt(G_ii G_jj)."""
    F = [[Fraction(x) for x in row] for row in X.tolist()]
    n = len(rows)
    for i in range(n):
        for j in range(i, n):
            err = sum((a * b for a, b in zip(F[i], F[j])), Fraction(0)) - rows[i][j]
            assert err * err * 2 ** 104 <= rows[i][i] * rows[j][j], (i, j, float(err))


@settings(max_examples=300, deadline=None, database=None, derandomize=True)
@given(_small_grams())
def test_exact_factor_reproduces_the_gram(rows):
    # rank-deficient Grams B^T B, some scaled past the int64 guard, and some
    # perturbed to indefinite, which have no factor
    m = SymMatrix(rows)
    cert, X = is_psd(m, return_factor=True)
    if not cert.passed:
        assert X is None
        return
    assert X.shape == (m.order, cert.witness["rank"])
    assert cert.witness["rank"] == _fraction_rank(rows)
    _assert_factor_reproduces(m.rows(), X)


@pytest.mark.parametrize("build, path", [
    (lambda: odd_reciprocal_gram(25, 3), "restart"),
    (lambda: _scaled(lemmens_seidel_gram(12), 3 ** 9), "restart"),
    (lambda: _scaled(simplex_gram(9), 5 ** 19), "restart"),
    (lambda: _dense_gram(24, seed=41), "promotion"),
    (lambda: SymMatrix.from_integers(lemmens_seidel_gram(12)._array.astype(object) * 3 ** 40),
     "python-ints"),
], ids=["odd-reciprocal-25-3", "ls12-times-3^9", "simplex9-times-5^19", "dense24",
        "ls12-times-3^40"])
def test_exact_factor_on_every_kernel_path(build, path):
    # the PSD Grams that the tests above drive into a restart on the
    # primitive part, a promotion partway, and Python ints from the start
    m = build()
    (cert, X), restarts, promotions = _sweep_paths(
        lambda: is_psd(m, return_factor=True))
    assert (m._array.dtype == object, restarts > 0, promotions) == {
        "restart": (False, True, 0), "promotion": (False, False, 1),
        "python-ints": (True, False, 0)}[path]
    assert cert.passed and X.shape == (m.order, cert.witness["rank"])
    _assert_factor_reproduces(m.rows(), X)


def _pre_buffer_kernel(num, den=1):
    """The int64 sweep as it was before it reused buffers, kept as a test
    oracle: full-size temporaries per step, the guard scanned at every step
    and floor division by the previous pivot."""
    from equicode.matcore import _scaled_root

    def max_abs(a):
        return max(int(a.max()), -int(a.min()))

    A = np.array(num)
    m = A.shape[0]
    prev, rank, scale = 1, 0, Fraction(1)
    upper = None
    X = np.zeros((m, m), order="F")
    for col in range(m):
        d = int(A[col, col])
        if d < 0:
            pivot = Fraction(d, prev * den) * scale
            return rank, {"pivot_index": col, "pivot": pivot}, None
        if d == 0:
            nz = np.flatnonzero(A[col, col:])
            if nz.size:
                return rank, {"pivot_index": col, "pivot": Fraction(0),
                              "indefinite_pair": (col, col + int(nz[0]))}, None
            continue
        if A.dtype != object and 2 * (top := max_abs(A[col:, col:])) ** 2 >= 2 ** 62:
            g = int(np.gcd.reduce(A[col:, col:], axis=None))
            if 2 * (top // g) ** 2 < 2 ** 62:
                A[col:, col:] //= g
                d //= g
                scale *= Fraction(g, prev)
                prev = 1
            else:
                A = A.astype(object)
        q = scale / (d * prev * den)
        values, where = np.unique(A[col, col:], return_inverse=True)
        X[col:, rank] = np.array([_scaled_root(a, q) for a in values.tolist()])[where]
        if A.dtype == object:
            if upper is None:
                upper = np.triu_indices(m)
            start = (col + 1) * m - col * (col + 1) // 2
            i, j = upper[0][start:], upper[1][start:]
            A[i, j] = (d * A[i, j] - A[col, i] * A[col, j]) // prev
        else:
            a = A[col, col + 1:]
            A[col + 1:, col + 1:] = (d * A[col + 1:, col + 1:] - np.outer(a, a)) // prev
        prev = d
        rank += 1
    return rank, None, X[:, :rank]


def _matches_pre_buffer_kernel(num, den):
    """Assert the kernel's rank, witness and factor equal the oracle's bit for
    bit; return the kernel's restart and promotion counts."""
    from equicode import matcore

    rank, witness, X = _pre_buffer_kernel(num, den)
    (got_rank, got_witness, got_X), restarts, promotions = _sweep_paths(
        matcore._fraction_free, num, den, True)
    assert (got_rank, repr(got_witness)) == (rank, repr(witness))
    assert (got_X is None) == (X is None)
    if X is not None:
        assert got_X.shape == X.shape and np.array_equal(got_X.view(np.int64), X.view(np.int64))
    return restarts, promotions


@pytest.mark.parametrize("build, paths", [
    (lambda: lemmens_seidel_gram(40), (True, 0)),
    (lambda: _perturbed(lemmens_seidel_gram(40), 77, 77, Fraction(-1, 3)), (True, 0)),
    (lambda: _perturbed(lemmens_seidel_gram(40), 70, 77, Fraction(1, 3)), (True, 0)),
    (lambda: _scaled(simplex_gram(9), 5 ** 19), (True, 0)),
    (lambda: odd_reciprocal_gram(25, 3), (True, 0)),
    (lambda: _dense_gram(24, seed=41), (False, 1)),
    (lambda: lines28_gram(), (False, 0)),
], ids=["ls40", "ls40-last-diagonal", "ls40-far-pair", "simplex9-times-5^19",
        "odd-reciprocal-25-3", "dense24", "lines28"])
def test_exact_kernel_matches_the_pre_buffer_kernel_on_every_path(build, paths):
    m = build()
    restarts, promotions = _matches_pre_buffer_kernel(m._array, m._den)
    assert (restarts > 0, promotions) == paths


def _interleaved_gram(n, seed):
    """Two Grams B^T B of signed B, one on the even and one on the odd
    indices: every pivot row keeps a zero at each index of the other block."""
    rng = np.random.default_rng(seed)
    g = np.zeros((2 * n, 2 * n), dtype=np.int64)
    for half in (slice(0, 2 * n, 2), slice(1, 2 * n, 2)):
        b = rng.integers(-3, 4, size=(n, n))
        g[half, half] = b.T @ b
    return SymMatrix.from_integers(g)


@pytest.mark.parametrize("build, promotions, distinct, mixed", [
    (lambda: _dense_gram(40, seed=43), 1, 39, 0),
    (lambda: _interleaved_gram(4, seed=5), 0, 5, 5),
    (lambda: _interleaved_gram(8, seed=5), 1, 9, 14),
], ids=["dense40", "interleaved8-int64", "interleaved16-promoted"])
def test_factor_columns_match_the_pre_buffer_kernel(build, promotions, distinct, mixed):
    # a factor column takes one root per distinct value of its pivot row and
    # scatters them back: rows of up to 39 distinct values, and rows holding
    # negative and zero entries (``mixed`` columns) in int64 and on both sides
    # of the promotion to Python ints
    m = build()
    assert _matches_pre_buffer_kernel(m._array, m._den) == (0, promotions)
    cert, X = is_psd(m, return_factor=True)
    assert cert.passed and X.shape == (m.order, m.order)
    below = [X[c:, c] for c in range(m.order)]
    assert max(len(set(col.tolist())) for col in below) == distinct
    assert sum((col < 0).any() and (col == 0).any() for col in below) == mixed


@st.composite
def _kernel_inputs(draw):
    """(num, den) for num = c B^T B + delta (e_i e_j^T + e_j e_i^T): rank-deficient
    Grams, some perturbed to a negative pivot; a large c takes the sweep past
    the int64 guard, where it restarts, or promotes when delta leaves gcd 1."""
    n = draw(st.integers(1, 8))
    r = draw(st.integers(1, n))
    b = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                      min_size=r, max_size=r))
    c = draw(st.sampled_from([1, 3 ** 9, 2 ** 20 + 7, 5 ** 19]))
    g = [[c * sum(row[i] * row[j] for row in b) for j in range(n)] for i in range(n)]
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    delta = draw(st.sampled_from([0, -1, 1, -3, 2 ** 20]))
    g[i][j] += delta
    if i != j:
        g[j][i] += delta
    return np.array(g, dtype=np.int64), draw(st.integers(1, 6))


@settings(max_examples=400, deadline=None, database=None, derandomize=True)
@given(_kernel_inputs())
def test_exact_kernel_matches_the_pre_buffer_kernel(case):
    _matches_pre_buffer_kernel(*case)


@pytest.mark.parametrize("divisor", [1, 2, 3, 7, 12, 2 ** 40, 3 * 2 ** 40, 2 ** 61 - 1,
                                     2 ** 62, 2 ** 63 - 1],
                         ids=["1", "2", "3", "7", "12", "2^40", "3*2^40", "2^61-1", "2^62",
                              "2^63-1"])
def test_divide_exact_by_an_inverse(divisor):
    from equicode.matcore import _divide_exact

    hi, lo = (2 ** 63 - 1) // divisor, -(2 ** 63 // divisor)
    # near +-2^62 for divisors 1 and 2; the product of each with divisor is an int64
    quotients = [0, 1, -1, min(hi, 12345), max(lo, -12345), hi, hi - 1, lo, lo + 1]
    a = np.array([q * divisor for q in quotients], dtype=np.int64).reshape(3, 3).T
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _divide_exact(a, divisor)
    assert a.T.ravel().tolist() == quotients


def test_exact_factor_is_the_pivoted_cholesky_factor():
    # zero pivots give no column, and entries above each pivot are zero
    m = SymMatrix([[1, 1, 0], [1, 1, 0], [0, 0, 4]])
    cert, X = is_psd(m, return_factor=True)
    assert cert.witness == {"rank": 2}
    assert X.tolist() == [[1.0, 0.0], [1.0, 0.0], [0.0, 2.0]]
    assert is_psd(SymMatrix([[1, 2], [2, 1]]), return_factor=True)[1] is None


def test_rational_float_copy_rounds_like_fractions():
    # entries past 2^53 cannot go through float64 before the division
    big = 3 ** 40 + 1
    rows = [[Fraction(big, 7), Fraction(1, 3)], [Fraction(1, 3), Fraction(-big, 11)]]
    m = SymMatrix(rows)
    assert m.backend == "rational"
    assert m._array.dtype == object
    assert m.as_array().tolist() == [[float(x) for x in row] for row in rows]
    small = lemmens_seidel_gram(5)
    assert small.as_array().tolist() == [[float(x) for x in row] for row in small.rows()]


def test_one_exact_sweep_per_construction(tmp_path, monkeypatch):
    """Each exact construction takes one sweep and no spectrum, and writes
    the rank its code keeps from that sweep as ``gram_rank``."""
    from equicode import matcore
    from equicode.cli import EXIT_OK, read_code_file, run

    calls = []
    kernel = matcore._fraction_free

    def counted(*args, **kwargs):
        calls.append(args[0])
        return kernel(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("construct takes no spectrum")

    monkeypatch.setattr(matcore, "_fraction_free", counted)
    monkeypatch.setattr(matcore, "sym_eigen", refused)
    out = tmp_path / "c.json"
    for args, rank in ((["lemmens-seidel", "--n", "10"], 10),
                       (["odd-reciprocal", "--n", "9", "--r", "3"], 9),
                       (["odd-reciprocal", "--n", "10", "--r", "3"], 9),
                       (["simplex", "--r", "6"], 6), (["lines28"], 7)):
        calls.clear()
        assert run(["construct", *args, "--out", str(out)]) == EXIT_OK
        assert len(calls) == 1, args
        assert read_code_file(str(out))["metadata"]["gram_rank"] == rank, args


def _count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` and record the keyword arguments of every call."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_float_embedding_takes_one_spectrum(monkeypatch):
    from equicode import matcore

    gram = gram_of(lemmens_seidel_code(12))
    want_rank, want_psd = rank_of(gram), is_psd(gram)
    calls = _count_calls(monkeypatch, matcore, "sym_eigen")
    code = embed_from_gram(gram)
    assert len(calls) == 1
    assert code.dim == want_rank == 12 and want_psd.passed


def test_gerzon_takes_one_spectrum(monkeypatch):
    # at most one: the code keeps its exact rank, and the outer-product Gram
    # G o G takes a values-only spectrum only where Weyl's bound leaves its
    # full rank open, as on LS(40) at angle_tol 0.02 with every |g_ij| moved
    # 0.019 at random off 1/3
    from equicode import matcore
    from equicode.bounds import gerzon_certificate

    g = lemmens_seidel_gram(40).as_array()
    flips = np.random.default_rng(0).random(g.shape) < 0.5
    noise = np.triu(np.where(flips, 0.019, -0.019) * np.sign(g), 1)
    wide = Code.from_gram(SymMatrix(g + noise + noise.T), 78, Tolerance(angle_tol=0.02))
    assert wide.rank == 78  # taken and kept before the count
    calls = _count_calls(monkeypatch, matcore, "sym_eigen")
    for code, spectra, rank in ((seven_dim_28_lines(), [], 7), (wide, [False], 78)):
        calls.clear()
        cert = gerzon_certificate(code)
        assert [c.get("vectors", True) for c in calls] == spectra
        assert cert.passed
        assert (cert.witness["rank"], cert.witness["outer_rank"]) == (rank, len(code))


def test_certify_builds_one_gram_per_code(tmp_path, monkeypatch):
    from equicode import codes, graphlab, matcore
    from equicode.cli import EXIT_OK, run, write_code_file

    src, reduced = tmp_path / "ls12.json", tmp_path / "reduced.json"
    oddrec, oddrec_reduced = tmp_path / "oddrec.json", tmp_path / "oddrec_reduced.json"
    write_code_file(str(src), 12, gram=lemmens_seidel_gram(12).as_array(), metadata={})
    assert run(["reduce", str(src), "--t", "6", "--out", str(reduced)]) == EXIT_OK
    assert run(["construct", "odd-reciprocal", "--n", "9", "--r", "3",
                "--out", str(oddrec)]) == EXIT_OK
    assert run(["reduce", str(oddrec), "--t", "2", "--out", str(oddrec_reduced)]) == EXIT_OK
    grams = _count_calls(monkeypatch, codes, "gram_of")
    spectra = _count_calls(monkeypatch, matcore, "sym_eigen")
    monkeypatch.setattr(graphlab, "sym_eigen", matcore.sym_eigen)  # lambda's binding
    detections = _count_calls(monkeypatch, codes, "angle_set_of")
    matches = _count_calls(monkeypatch, codes.AngleSet, "classify_all")
    # whether each spectrum takes vectors: a Gram-only file is certified on
    # its own Gram, with no X X^T, by one values-only load spectrum that also
    # gives the code's rank, and Weyl's bound gives Gerzon's outer rank with
    # none; a reduced file takes the code's rank, then lambda's top eigenvector.
    # One angle set per file; its pairs are matched by dgs alone on the Gram
    # file.  A reduced file's pairs are matched once against L(alpha, t), whose
    # negative edges the code keeps for schnirelman, matching (which gets past
    # ExcludedAngle on odd-reciprocal, then SKIPs) and lambda, and once by dgs
    for path, want in ((src, (0, [False], 1, 1)),
                       (reduced, (1, [False, True], 1, 2)),
                       (oddrec_reduced, (1, [False, True], 1, 2))):
        for calls in (grams, spectra, detections, matches):
            calls.clear()
        assert run(["certify", str(path), "--suite", "all"]) == EXIT_OK
        assert (len(grams), [c.get("vectors", True) for c in spectra],
                len(detections), len(matches)) == want, path.name


def test_reduce_and_project_embed_a_gram_only_file_once(tmp_path, monkeypatch):
    # the file's Gram serves the loaded code and the clique sliced from it:
    # one values-only spectrum certifies the file, and one eigh embeds the
    # projected Gram, which the output keeps; gram_of builds no Gram
    from equicode import cli, codes, matcore

    src = tmp_path / "ls12.json"
    cli.write_code_file(str(src), 12, gram=lemmens_seidel_gram(12).as_array(), metadata={})
    loaded, spectra = [], []
    load, decompose = cli.load_code, matcore.sym_eigen

    def recorded_load(*args, **kwargs):
        loaded.append(load(*args, **kwargs))
        return loaded[-1]

    def recorded_spectrum(M, vectors=True):
        spectra.append((M.order, vectors))
        return decompose(M, vectors)

    monkeypatch.setattr(cli, "load_code", recorded_load)
    monkeypatch.setattr(matcore, "sym_eigen", recorded_spectrum)
    monkeypatch.setattr(codes, "gram_of", lambda C: pytest.fail("gram_of was called"))
    embeds = _count_calls(monkeypatch, codes, "embed_from_gram")
    for command, args, size in (("reduce", ["--t", "6"], 10),
                                ("project", ["--clique", "0,2,4,6,8,10"], 16)):
        for calls in (loaded, spectra, embeds):
            calls.clear()
        assert cli.run([command, str(src), *args, "--out", str(tmp_path / "out.json")]) == 0
        (code, _), = loaded
        assert spectra == [(22, False), (size, True)] and len(embeds) == 1, command
        assert code.gram.as_array().tobytes() == \
            cli.read_code_file(str(src))["gram"].tobytes()


def test_code_gram_and_eigenvalue_memo_are_read_only():
    code = lemmens_seidel_code(6)
    gram = code.gram
    assert gram is code.gram and not gram.as_array().flags.writeable
    assert rank_of(gram) == 6 and is_psd(gram).passed
    with pytest.raises(ValueError):
        gram.as_array()[0, 0] = 0.0


def test_float_matrix_keeps_no_spectrum(monkeypatch):
    # a spectrum with vectors leaves nothing behind: rank_of and is_psd each
    # take their own values-only spectrum
    from equicode import matcore

    assert SymMatrix.__slots__ == ("order", "_array", "_den")
    gram = gram_of(lemmens_seidel_code(6))
    sym_eigen(gram)
    calls = _count_calls(monkeypatch, matcore, "sym_eigen")
    assert rank_of(gram) == 6
    assert calls == [{"vectors": False}]
    assert is_psd(gram).passed
    assert calls == [{"vectors": False}, {"vectors": False}]


def test_rational_embedding_takes_one_symmetric_sweep(monkeypatch):
    from equicode import matcore

    calls = _count_calls(monkeypatch, matcore, "_fraction_free")
    code = embed_from_gram(lemmens_seidel_gram(10))
    assert calls == [{}]
    assert code.dim == 10


def test_rational_embedding_takes_no_spectrum(monkeypatch):
    # the vectors are the exact sweep's factor and the Gram is the exact one
    # rounded, so no eigendecomposition and no X X^T product is taken
    from equicode import codes, matcore

    spectra = _count_calls(monkeypatch, matcore, "sym_eigen")
    grams = _count_calls(monkeypatch, codes, "gram_of")
    gram = lemmens_seidel_gram(6)
    code = embed_from_gram(gram)
    assert code.dim == 6 and code.gram.as_array().tolist() == gram.as_array().tolist()
    assert spectra == [] and grams == []


# a rational matrix is stored once, as integers over one denominator --------


def test_rational_matrix_keeps_no_fraction_rows():
    assert "_rows" not in SymMatrix.__slots__
    rows = simplex_gram(3).rows()
    assert rows == tuple(tuple(Fraction(1) if i == j else Fraction(-1, 3) for j in range(4))
                         for i in range(4))


def _fraction_double_sum(rows, v):
    n = len(rows)
    return sum((v[i] * rows[i][j] * v[j] for i in range(n) for j in range(n)), Fraction(0))


@pytest.mark.parametrize("build", [lambda: lemmens_seidel_gram(12), lambda: simplex_gram(7),
                                   lambda: odd_reciprocal_gram(9, 3), lines28_gram],
                         ids=["ls12", "simplex7", "odd-reciprocal-9-3", "lines28"])
def test_exact_quadratic_form_equals_the_fraction_double_sum(build):
    m = build()
    rows = m.rows()
    rng = np.random.default_rng(37)
    for trial in range(6):
        nums = rng.integers(-20, 21, size=m.order).tolist()
        dens = rng.integers(1, 13, size=m.order).tolist()
        v = [Fraction(a, b) for a, b in zip(nums, dens)]
        if trial == 0:
            v = [int(a) for a in nums]  # integers only
        elif trial == 1:
            v = [x * Fraction(3 ** 40, 7 ** 25) for x in v]  # far past int64
        value = quadratic_form(m, v)
        assert type(value) is Fraction
        assert value == _fraction_double_sum(rows, [Fraction(x) for x in v])


def test_exact_quadratic_form_runs_on_integers_in_time():
    m = lemmens_seidel_gram(150)
    v = [Fraction(i % 7 - 3, i % 5 + 1) for i in range(m.order)]
    start = time.perf_counter()
    value = quadratic_form(m, v)
    assert time.perf_counter() - start < 0.05
    assert value == Fraction(706057, 3600)


def test_backend_follows_from_the_entries():
    # one way into each backend: no override, no helpers, no stored tag
    import inspect

    assert list(inspect.signature(SymMatrix.__init__).parameters) == ["self", "data"]
    assert not hasattr(SymMatrix, "identity") and not hasattr(SymMatrix, "ones")
    assert "backend" not in SymMatrix.__slots__
    exact = SymMatrix.from_integers(np.eye(2, dtype=np.int64))
    cases = [
        (SymMatrix(np.eye(2, dtype=np.int64)), "float64"),
        (SymMatrix([[1, 0], [0, 1]]), "rational"),
        (SymMatrix([[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 3), 1]]), "rational"),
        (SymMatrix([[1, 0.5], [0.5, 1]]), "float64"),
        (exact, "rational"),
        (exact.to_float(), "float64"),
    ]
    assert [m.backend for m, _ in cases] == [want for _, want in cases]

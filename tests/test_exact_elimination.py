"""Fuzz the fraction-free elimination against plain Fraction elimination.

The Bareiss routines underpin every exact rank and PSD verdict, so their
agreement with a direct rational-arithmetic oracle is checked on random
matrices covering rank deficiency, negative pivots, zero columns, and
denominators of mixed size.
"""

from fractions import Fraction

import numpy as np

from equicode import SymMatrix, is_psd, rank_of, sym_eigen


def oracle_rank(rows):
    """Gaussian elimination carrying exact Fractions; row pivoting only."""
    m = [[Fraction(x) for x in row] for row in rows]
    n_rows = len(m)
    n_cols = len(m[0])
    rank = 0
    row = 0
    for col in range(n_cols):
        if row >= n_rows:
            break
        piv = None
        for i in range(row, n_rows):
            if m[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        m[row], m[piv] = m[piv], m[row]
        inv = m[row][col]
        for i in range(row + 1, n_rows):
            if m[i][col] == 0:
                continue
            f = m[i][col] / inv
            for j in range(col, n_cols):
                m[i][j] -= f * m[row][j]
        rank += 1
        row += 1
    return rank


def random_symmetric_rational(rng, n, style):
    if style == 0:
        a = rng.integers(-9, 10, size=(n, n))
        rows = (a + a.T).tolist()
        return [[Fraction(int(x)) for x in row] for row in rows]
    if style == 1:
        r = int(rng.integers(1, n + 1))
        b = rng.integers(-3, 4, size=(r, n))
        rows = (b.T @ b).tolist()
        return [[Fraction(int(x)) for x in row] for row in rows]
    dens = [1, 2, 3, 5, 7]
    vals = [[Fraction(int(rng.integers(-6, 7)), dens[int(rng.integers(0, 5))])
             for _ in range(n)] for _ in range(n)]
    return [[vals[i][j] + vals[j][i] for j in range(n)] for i in range(n)]


def test_bareiss_rank_matches_fraction_oracle():
    rng = np.random.default_rng(1234)
    for trial in range(120):
        n = int(rng.integers(1, 14))
        rows = random_symmetric_rational(rng, n, trial % 3)
        m = SymMatrix(rows)
        assert m.backend == "rational"
        assert rank_of(m) == oracle_rank(rows), rows


def test_exact_psd_matches_float_spectrum_on_clear_cases():
    rng = np.random.default_rng(4321)
    checked_pos = checked_neg = 0
    for trial in range(250):
        n = int(rng.integers(2, 12))
        rows = random_symmetric_rational(rng, n, trial % 3)
        m = SymMatrix(rows)
        assert m.backend == "rational"
        lam_min = float(sym_eigen(m.to_float()).eigenvalues[-1])
        verdict = is_psd(m).passed
        if lam_min > 1e-6:
            assert verdict
            checked_pos += 1
        elif lam_min < -1e-6:
            assert not verdict
            checked_neg += 1
    assert checked_pos >= 10 and checked_neg >= 10


def test_exact_psd_rank_agrees_with_rank_of():
    rng = np.random.default_rng(99)
    for _ in range(60):
        n = int(rng.integers(1, 12))
        r = int(rng.integers(1, n + 1))
        b = rng.integers(-3, 4, size=(r, n))
        rows = [[Fraction(int(x)) for x in row] for row in (b.T @ b).tolist()]
        m = SymMatrix(rows)
        assert m.backend == "rational"
        cert = is_psd(m)
        assert cert.passed
        assert cert.witness["rank"] == rank_of(m) == oracle_rank(rows)


def test_bareiss_object_fallback_agrees_with_oracle():
    # denominators around 2^40 force intermediate minors past int64
    rng = np.random.default_rng(7)
    for _ in range(5):
        n = 8
        big = 1 << 40
        rows = [[Fraction(int(rng.integers(-big, big)), int(rng.integers(1, 50)))
                 for _ in range(n)] for _ in range(n)]
        sym = [[rows[i][j] + rows[j][i] for j in range(n)] for i in range(n)]
        m = SymMatrix(sym)
        assert m.backend == "rational"
        assert rank_of(m) == oracle_rank(sym)

"""Explicit code constructions, deterministic and randomized.

Deterministic constructions are built Gram-first in exact rational
arithmetic, certified PSD with the expected rank, and only then embedded
into floats, so rank claims never rest on float thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Tuple

import numpy as np

from .codes import AngleSet, Code
from .errors import InternalError, InvalidParams, RandomizedFailure, TooLarge
from .matcore import DEFAULT_TOL, SymMatrix, Tolerance, embed_from_gram, is_psd

SIZE_CAP = 10 ** 5
MAX_ATTEMPTS = 32  # seeds concatenated_code tries before RandomizedFailure


class RngStream:
    """Seedable random stream with a portable, documented construction.

    Uniform doubles come from numpy's PCG64 keyed by ``SeedSequence(seed,
    spawn_key)``; Gaussians are produced from them by an explicit
    Box-Muller transform.  Identical seeds therefore reproduce identical
    scalar sequences on every platform.
    """

    def __init__(self, seed: int, spawn_key: Tuple[int, ...] = ()):
        self.seed = int(seed)
        self.spawn_key = tuple(int(i) for i in spawn_key)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=self.spawn_key)
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def derive(self, index: int) -> "RngStream":
        """Independent child stream; used to give each code copy its own RNG."""
        return RngStream(self.seed, self.spawn_key + (int(index),))

    def uniforms(self, count: int) -> np.ndarray:
        return self._gen.random(int(count))

    def gaussians(self, count: int) -> np.ndarray:
        count = int(count)
        half = (count + 1) // 2
        u1 = self.uniforms(half)
        u2 = self.uniforms(half)
        radius = np.sqrt(-2.0 * np.log1p(-u1))
        angle = 2.0 * np.pi * u2
        z = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)])
        return z[:count]

    def rotation(self, dim: int) -> np.ndarray:
        """Haar-ish random orthogonal matrix via QR of a Gaussian square."""
        a = self.gaussians(dim * dim).reshape(dim, dim)
        q, r = np.linalg.qr(a)
        return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def random_unit_vectors(count: int, dim: int, rng: RngStream) -> Code:
    """i.i.d. uniform points on the unit sphere of R^dim."""
    if count < 1 or dim < 1:
        raise InvalidParams("count and dim must be positive")
    g = rng.gaussians(count * dim).reshape(count, dim)
    norms = np.linalg.norm(g, axis=1)
    if np.any(norms < 1e-12):
        raise InternalError("degenerate Gaussian sample")
    return Code(g / norms[:, np.newaxis])


# rational Gram builders ------------------------------------------------


def lemmens_seidel_gram(n: int) -> SymMatrix:
    """Order 2n-2 Gram: n-1 diagonal blocks [[1,-1/3],[-1/3,1]], 1/3 elsewhere."""
    if n < 3:
        raise InvalidParams("need n >= 3")
    m = 2 * n - 2
    num = np.ones((m, m), dtype=np.int64)
    np.fill_diagonal(num, 3)
    even = np.arange(0, m, 2)
    num[even, even + 1] = num[even + 1, even] = -1
    return SymMatrix.from_integers(num, 3)


def odd_reciprocal_gram(n: int, r: int) -> SymMatrix:
    """Blocks of size r with -1/(2r-1) inside, +1/(2r-1) across blocks."""
    if r < 2:
        raise InvalidParams("need r >= 2")
    if n < r:
        raise InvalidParams("need n >= r")
    den = 2 * r - 1
    block = np.arange(r * ((n - 1) // (r - 1))) // r
    num = np.where(block[:, None] == block[None, :], -1, 1).astype(np.int64)
    np.fill_diagonal(num, den)
    return SymMatrix.from_integers(num, den)


def simplex_gram(r: int) -> SymMatrix:
    """Order r+1 Gram of the regular r-simplex: -1/r off the diagonal."""
    if r < 1:
        raise InvalidParams("need r >= 1")
    num = np.full((r + 1, r + 1), -1, dtype=np.int64)
    np.fill_diagonal(num, r)
    return SymMatrix.from_integers(num, r)


def _certified_embed(gram: SymMatrix, expected_rank: int) -> Code:
    """Embedding of a rational Gram by ``embed_from_gram``'s exact branch;
    the code keeps the sweep's rank, which must be ``expected_rank``."""
    code = embed_from_gram(gram)
    if code.rank != expected_rank:
        raise InternalError(f"construction Gram rank {code.rank} != expected {expected_rank}")
    return code


# deterministic constructions -------------------------------------------


def lemmens_seidel_code(n: int) -> Code:
    """2n-2 unit vectors in R^n with all pairwise inner products +/- 1/3;
    the code's rank n is certified exactly."""
    return _certified_embed(lemmens_seidel_gram(n), expected_rank=n)


def odd_reciprocal_code(n: int, r: int) -> Code:
    """r * floor((n-1)/(r-1)) unit vectors in R^n at angle 1/(2r-1).

    The code's rank, 1 + blocks*(r-1) <= n, is certified exactly per instance.
    """
    gram = odd_reciprocal_gram(n, r)
    blocks = (n - 1) // (r - 1)
    return _certified_embed(gram, expected_rank=1 + blocks * (r - 1)).padded(n)


def regular_simplex(r: int) -> Code:
    """r+1 unit vectors in R^r with all pairwise inner products -1/r;
    the code's rank r is certified exactly."""
    return _certified_embed(simplex_gram(r), expected_rank=r)


def _lines28_integers() -> np.ndarray:
    """Rows (1,...,1,-3,-3) of R^8, the two -3 entries placed in lexicographic order."""
    vecs = np.ones((28, 8), dtype=np.int64)
    for row, support in enumerate(combinations(range(8), 2)):
        vecs[row, support] = -3
    return vecs


def seven_dim_28_lines() -> Code:
    """All 28 placements of the two -3 entries in (1,...,1,-3,-3)/sqrt(24), in
    lexicographic order.  Their coordinates sum to zero, so they span a
    7-dimensional subspace of R^8; the code keeps the rank 7 that the exact
    sweep of ``lines28_gram`` certifies."""
    return Code(_lines28_integers() / math.sqrt(24.0),
                rank=is_psd(lines28_gram()).witness["rank"])


def lines28_gram() -> SymMatrix:
    """Exact rational Gram of the 28-line code (entries +/- 1/3)."""
    vecs = _lines28_integers()
    return SymMatrix.from_integers(vecs @ vecs.T, 24)


def binary_kcode(n: int, k: int) -> Code:
    """All k-subset indicator vectors of R^n scaled by 1/sqrt(k).

    Inner products land on {0, 1/k, ..., (k-1)/k}.  Capped at C(n,k) <= 1e5.
    """
    if k < 1 or n < k:
        raise InvalidParams("need 1 <= k <= n")
    size = math.comb(n, k)
    if size > SIZE_CAP:
        raise TooLarge(f"C({n},{k}) = {size} exceeds the cap {SIZE_CAP}")
    rows = np.zeros((size, n))
    for idx, support in enumerate(combinations(range(n), k)):
        rows[idx, support] = 1.0
    return Code(rows / math.sqrt(k))


# randomized concatenated construction ----------------------------------


@dataclass(frozen=True)
class ConcatParams:
    """Parameters of the simplex-of-rotated-copies construction.

    lam = sqrt(1/alpha1 - 1) sets the concatenation scaling; alphas lists
    the within-copy inner products (alpha1 is reproduced at i = 1);
    beta_target is the cross-copy separation the randomized rotations must
    achieve.  Each derived value is computed from the inputs on access, so
    every formula sees the same float.  The code built from these
    parameters is an L-code for L = alphas + [-1, -achieved_beta].
    """

    n: int
    k: int
    r: int
    alpha1: float
    seed: int

    def __post_init__(self):
        if not (0 < self.alpha1 < 1):
            raise InvalidParams("alpha1 must lie in (0, 1)")
        if self.k < 1 or self.n < self.k or self.r < 1:
            raise InvalidParams("need 1 <= k <= n and r >= 1")
        if self.r * self.r > self.n:
            raise InvalidParams("need r <= sqrt(n)")
        alphas = self.alphas
        if any(b <= a for a, b in zip(alphas, alphas[1:])):
            raise InvalidParams("alphas must be strictly increasing")
        if abs(alphas[0] - self.alpha1) > 1e-12:
            raise InvalidParams("alpha ladder does not reproduce alpha1")

    @property
    def lam_sq(self) -> float:
        return 1.0 / self.alpha1 - 1.0

    @property
    def lam(self) -> float:
        return math.sqrt(self.lam_sq)

    @property
    def t_threshold(self) -> float:
        n = self.n
        return math.sqrt((4.0 * math.log(math.comb(n, self.k)) + 2.0 * math.log(n)) / n)

    @property
    def beta_target(self) -> float:
        """(1/r - lam^2 t) / (lam^2 + 1); the construction guarantees cross-copy
        inner products <= -achieved_beta <= -beta_target.

        At small n the threshold t exceeds 1/(r lam^2), so beta_target is
        negative and that bound is positive: concat n=9 k=2 r=3 alpha1=0.5
        has beta_target -0.555 and cross-copy inner products up to +0.294.
        Such parameters are accepted; the bound is still what holds.
        """
        lam_sq = self.lam_sq
        return (1.0 / self.r - lam_sq * self.t_threshold) / (lam_sq + 1.0)

    @property
    def alphas(self) -> Tuple[float, ...]:
        lam_sq = self.lam_sq
        return tuple((lam_sq * (i - 1) / self.k + 1.0) / (lam_sq + 1.0)
                     for i in range(1, self.k + 1))

    def angle_set(self, achieved_beta: float, angle_tol: float) -> AngleSet:
        """The L a code built from these parameters is declared to lie in:
        the alpha ladder as points plus the interval [-1, -achieved_beta]."""
        return AngleSet(intervals=((-1.0, -achieved_beta),), points=self.alphas,
                        tol=angle_tol)


@dataclass(frozen=True)
class ConcatReport:
    """What the randomized construction achieved; seed and target stay on ConcatParams."""

    attempts: int
    attempt_seed: int
    copy_seeds: Tuple[Tuple[int, ...], ...]
    achieved_beta: float
    max_within_deviation: float


def concatenated_code(params: ConcatParams,
                      tol: Tolerance = DEFAULT_TOL) -> Tuple[Code, float, ConcatReport]:
    """Simplex-anchored concatenation of randomly rotated k-subset codes.

    Each simplex vector v carries a rotated copy C_v of the k-subset code;
    the output vectors are (lam*u, v)/sqrt(lam^2+1).  Within one copy the
    inner products land on the alpha ladder, checked to ``tol.angle_tol``;
    every cross-copy product is at most -achieved_beta, and the rotations
    are redrawn until achieved_beta >= beta_target.  That is a separation
    only when beta_target > 0: with a negative beta_target the guaranteed
    bound -achieved_beta may be positive (see ``ConcatParams.beta_target``).
    The code is returned at ``tol`` and lies in
    ``params.angle_set(achieved_beta, tol.angle_tol)``.  On failure the
    construction retries seeds seed+1, seed+2, ... up to MAX_ATTEMPTS
    before raising RandomizedFailure.
    """
    base = binary_kcode(params.n, params.k).vectors
    simplex = regular_simplex(params.r).vectors
    scale = 1.0 / math.sqrt(params.lam_sq + 1.0)
    worst_cross = -np.inf
    for attempt in range(MAX_ATTEMPTS):
        attempt_seed = params.seed + attempt
        master = RngStream(attempt_seed)
        copies = []
        copy_seeds = []
        for c in range(params.r + 1):
            stream = master.derive(c)
            copy_seeds.append((stream.seed,) + stream.spawn_key)
            copies.append(base @ stream.rotation(params.n).T)
        blocks = [np.hstack([params.lam * u,
                             np.repeat(v[np.newaxis, :], len(u), axis=0)]) * scale
                  for u, v in zip(copies, simplex)]
        vectors = np.vstack(blocks)
        max_cross = -1.0
        for a in range(len(blocks)):
            for b in range(a + 1, len(blocks)):
                max_cross = max(max_cross, _blockwise_max(blocks[a], blocks[b]))
        achieved_beta = -max_cross
        worst_cross = max(worst_cross, max_cross)
        if achieved_beta >= params.beta_target:
            code = Code(vectors, tol)  # a tol below float rounding is InvalidParams here
            deviation = max(_within_deviation(blk, params.alphas) for blk in blocks)
            if deviation > tol.angle_tol:
                raise InternalError(
                    f"within-copy inner products deviate by {deviation:g}")
            report = ConcatReport(
                attempts=attempt + 1, attempt_seed=attempt_seed,
                copy_seeds=tuple(copy_seeds), achieved_beta=achieved_beta,
                max_within_deviation=deviation)
            return code, achieved_beta, report
    raise RandomizedFailure(
        f"no seed in [{params.seed}, {params.seed + MAX_ATTEMPTS}) reached "
        f"beta_target {params.beta_target:g}; worst cross inner product "
        f"{worst_cross:g}", worst_cross=worst_cross)


_CHUNK = 2048  # rows per block product in the two helpers below


def _blockwise_max(a: np.ndarray, b: np.ndarray) -> float:
    out = -np.inf
    for start in range(0, a.shape[0], _CHUNK):
        out = max(out, float((a[start:start + _CHUNK] @ b.T).max()))
    return out


def _within_deviation(block: np.ndarray, alphas: Tuple[float, ...]) -> float:
    worst = 0.0
    for start in range(0, block.shape[0], _CHUNK):
        g = block[start:start + _CHUNK] @ block.T
        stop = min(start + _CHUNK, block.shape[0])
        g[np.arange(stop - start), np.arange(start, stop)] = alphas[0]
        dev = np.full(g.shape, np.inf)
        for a in alphas:
            np.minimum(dev, np.abs(g - a), out=dev)
        worst = max(worst, float(dev.max()))
    return worst

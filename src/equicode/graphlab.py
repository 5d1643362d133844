"""Edge-labelled complete graphs over codes and their combinatorial tools.

Covers degree statistics, greedy independent sets, the iterative-majority
Ramsey extraction, negative-edge structure reports, spectral-radius bounds
on ball subgraphs, the small-graph eigenvalue catalog, and the clique /
switch / project reduction pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import _l_code_negatives
from .certificate import Certificate
from .codes import (
    AngleParams,
    AngleSet,
    Code,
    _pairs,
    angle_set_after_projection,
    detect_equiangular,
    project_onto_complement,
    switch_vertices,
    validate_code,
)
from .errors import (
    InternalError,
    InvalidIndex,
    InvalidParams,
    NoClique,
    NotAnLCode,
    NotEquiangular,
    TooSmall,
)
from .matcore import SymMatrix, sym_eigen


class LabelledGraph:
    """Complete graph on a code, each edge carrying a class id (-1 on the diagonal)."""

    __slots__ = ("size", "classes", "angle_set", "n_classes")

    def __init__(self, classes: np.ndarray, n_classes: int,
                 angle_set: Optional[AngleSet] = None):
        classes = np.array(classes, dtype=int)  # a copy: the caller's array cannot change it
        if classes.ndim != 2 or classes.shape[0] != classes.shape[1]:
            raise InvalidParams("classes must be a square matrix")
        if not np.array_equal(classes, classes.T):
            raise InvalidParams("classes must be symmetric")
        self._keep(classes, n_classes, angle_set)

    def _keep(self, classes: np.ndarray, n_classes: int, angle_set: Optional[AngleSet]):
        """Hold ``classes`` itself, read-only; nothing else may reference it."""
        classes.flags.writeable = False
        self.size, self.classes = classes.shape[0], classes
        self.n_classes, self.angle_set = int(n_classes), angle_set

    def adjacency(self, class_ids) -> np.ndarray:
        """Boolean adjacency of the union of the given classes."""
        if np.isscalar(class_ids):
            class_ids = [class_ids]
        adj = np.zeros((self.size, self.size), dtype=bool)
        for cid in class_ids:
            adj |= self.classes == cid
        np.fill_diagonal(adj, False)
        return adj

    def negative_class_ids(self) -> Tuple[int, ...]:
        if self.angle_set is None:
            raise InvalidParams("graph carries no angle set")
        return tuple(cid for cid in range(self.angle_set.class_count())
                     if self.angle_set.class_is_negative(cid))

    def negative_adjacency(self) -> np.ndarray:
        return self.adjacency(self.negative_class_ids())


def build_graph(C: Code, L: AngleSet) -> LabelledGraph:
    """Labelled graph of a code; NotAnLCode unless every pair matches L.

    Each pair i < j is classified once and mirrored to (j, i).
    """
    (rows, cols), values = _pairs(C)
    ids = L.classify_all(values)
    outside = int(np.count_nonzero(ids < 0))
    if outside:
        raise NotAnLCode(f"{outside} pairs fall outside the angle set")
    classes = np.full((len(C), len(C)), -1, dtype=int)
    classes[rows, cols] = ids
    classes[cols, rows] = ids
    graph = LabelledGraph.__new__(LabelledGraph)  # keeps this matrix, not a copy
    graph._keep(classes, L.class_count(), L)
    return graph


@dataclass(frozen=True)
class DegreeStats:
    """Exact per-class degree counts."""

    degrees: Dict[int, np.ndarray]
    max_degree: Dict[int, int]
    average_degree: Dict[int, float]
    edge_count: Dict[int, int]


def gamma_degree_stats(G: LabelledGraph) -> DegreeStats:
    degrees, dmax, davg, edges = {}, {}, {}, {}
    for cid in range(G.n_classes):
        deg = (G.classes == cid).sum(axis=1)
        np_deg = deg.astype(int)
        degrees[cid] = np_deg
        dmax[cid] = int(np_deg.max(initial=0))
        edges[cid] = int(np_deg.sum()) // 2
        davg[cid] = float(np_deg.sum() / G.size)
    return DegreeStats(degrees=degrees, max_degree=dmax,
                       average_degree=davg, edge_count=edges)


def greedy_independent_set(G: LabelledGraph, class_id: int) -> Tuple[int, ...]:
    """Independent set of the class graph of size >= ceil(size/(Delta+1)).

    Vertices are taken in ascending class-degree order (ties by index);
    each selection deletes its neighborhood.
    """
    adj = G.adjacency(class_id)
    deg = adj.sum(axis=1)
    order = np.lexsort((np.arange(G.size), deg))
    alive = np.ones(G.size, dtype=bool)
    chosen = []
    for v in order:
        if alive[v]:
            chosen.append(int(v))
            alive[v] = False
            alive[adj[v]] = False
    bound = -(-G.size // (int(deg.max(initial=0)) + 1))
    if len(chosen) < bound:
        raise InternalError("greedy set fell below size/(Delta+1)")
    return tuple(sorted(chosen))


@dataclass(frozen=True)
class MonochromaticPair:
    """Vertex sets (X, Y) where every edge in X u Y touching Y has one color."""

    X: Tuple[int, ...]
    Y: Tuple[int, ...]
    color: int


def verify_monochromatic(G: LabelledGraph, pair: MonochromaticPair) -> bool:
    """Invariant check for a monochromatic pair, independent of extraction."""
    xs, ys = set(pair.X), set(pair.Y)
    if xs & ys:
        return False
    members = sorted(xs | ys)
    for y in pair.Y:
        for u in members:
            if u != y and G.classes[y, u] != pair.color:
                return False
    return True


def _majority_chain(G: LabelledGraph, k: int, steps: int):
    """Run the iterated-majority shrinking for the given number of steps.

    Returns the fixed vertices, their majority colors, the final survivor
    set, and the survivor-count chain |X_1|, ..., |X_steps|.
    """
    survivors = np.arange(G.size)
    fixed: List[int] = []
    colors: List[int] = []
    sizes: List[int] = []
    for _ in range(steps):
        v = int(survivors[0])
        rest = survivors[1:]
        edge_colors = G.classes[v, rest]
        counts = np.bincount(edge_colors, minlength=k)
        c = int(np.argmax(counts))
        survivors = rest[edge_colors == c]
        fixed.append(v)
        colors.append(c)
        sizes.append(len(survivors))
    return fixed, colors, survivors, sizes


def ramsey_pair(G: LabelledGraph, k: int, t: int, m: int) -> MonochromaticPair:
    """Monochromatic pair (|X| = m, |Y| = t) by iterated majority colors.

    Requires size > k^(kt) * m.  At each of the kt steps the lowest-index
    survivor is fixed, its majority color among the survivors is taken
    (ties resolved toward the lowest class id), and the survivors shrink to
    that color class; a pigeonholed color then yields Y.
    """
    n = G.size
    if n <= (k ** (k * t)) * m:
        raise TooSmall(f"need more than k^(kt)*m = {(k ** (k * t)) * m} vertices")
    if n < m + k * t:
        # the procedure fixes kt vertices before keeping m survivors
        raise TooSmall(f"need at least m + kt = {m + k * t} vertices")
    off = G.classes[~np.eye(n, dtype=bool)]
    if off.min(initial=0) < 0 or off.max(initial=0) >= k:
        raise InvalidParams("every edge must carry one of the k colors")
    fixed, colors, survivors, _ = _majority_chain(G, k, k * t)
    pick = None
    for color in range(k):
        idx = [j for j, cj in enumerate(colors) if cj == color]
        if len(idx) >= t:
            pick = (color, idx[:t])
            break
    if pick is None:
        raise InternalError("pigeonhole failed; majority bookkeeping is wrong")
    color, idx = pick
    if len(survivors) < m:
        raise InternalError("survivor set fell below m; shrink bound violated")
    pair = MonochromaticPair(X=tuple(int(u) for u in survivors[:m]),
                             Y=tuple(fixed[j] for j in idx), color=color)
    if not verify_monochromatic(G, pair):
        raise InternalError("extracted pair failed the monochromatic invariant")
    return pair


@dataclass(frozen=True)
class NegativeStructure:
    """Component decomposition of the negative-edge graph."""

    is_matching: bool
    components: Tuple[Tuple[int, int, bool], ...]
    max_degree: int


def negative_structure_report(G: LabelledGraph) -> NegativeStructure:
    adj = G.negative_adjacency()
    deg = adj.sum(axis=1)
    seen = np.zeros(G.size, dtype=bool)
    comps = []
    for v in range(G.size):
        if seen[v] or deg[v] == 0:
            continue
        stack = [v]
        seen[v] = True
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for w in np.nonzero(adj[u])[0]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(int(w))
        nv = len(members)
        ne = int(adj[np.ix_(members, members)].sum()) // 2
        comps.append((nv, ne, ne == nv - 1))
    is_matching = all(nv == 2 and ne == 1 for nv, ne, _ in comps)
    return NegativeStructure(is_matching=is_matching,
                             components=tuple(comps),
                             max_degree=int(deg.max(initial=0)))


# spectral radius --------------------------------------------------------


def lambda1(adj: np.ndarray) -> float:
    """Largest adjacency eigenvalue, from ``sym_eigen`` at every size."""
    adj = np.asarray(adj)
    if adj.shape[0] == 0:
        return 0.0
    return float(sym_eigen(SymMatrix(adj.astype(float))).eigenvalues[0])


@dataclass(frozen=True)
class BallSubgraph:
    """Induced subgraph on a distance ball with its spectral radius."""

    vertices: Tuple[int, ...]
    adjacency: np.ndarray
    lambda1: float


def ball_subgraph_lambda(adj: np.ndarray, v0: int, k: int) -> BallSubgraph:
    """Ball of radius k around v0 in a simple graph, with lambda_1.

    When the host graph has minimum degree delta >= 2, the spectral radius
    of the ball is at least 2(1 - 1/(k+1)) sqrt(delta - 1).
    """
    adj = np.asarray(adj, dtype=bool)
    n = adj.shape[0]
    if not (0 <= v0 < n):
        raise InvalidIndex(f"vertex {v0} out of range")
    dist = np.full(n, -1)
    dist[v0] = 0
    frontier = [v0]
    d = 0
    while frontier and d < k:
        nxt = []
        for u in frontier:
            for w in np.nonzero(adj[u])[0]:
                if dist[w] < 0:
                    dist[w] = d + 1
                    nxt.append(int(w))
        frontier = nxt
        d += 1
    members = tuple(int(v) for v in np.nonzero(dist >= 0)[0])
    sub = adj[np.ix_(members, members)]
    return BallSubgraph(vertices=members, adjacency=sub, lambda1=lambda1(sub))


# small-graph catalog ----------------------------------------------------


def _adjacency_from_edges(n: int, edges) -> np.ndarray:
    a = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        a[u, v] = a[v, u] = True
    return a


def path_graph(n: int) -> np.ndarray:
    return _adjacency_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> np.ndarray:
    return _adjacency_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> np.ndarray:
    return _adjacency_from_edges(leaves + 1, [(0, i + 1) for i in range(leaves)])


def tree_from_pruefer(seq: Sequence[int]) -> np.ndarray:
    """Decode a Pruefer sequence over n = len(seq)+2 labelled vertices."""
    n = len(seq) + 2
    degree = np.ones(n, dtype=int)
    for s in seq:
        degree[s] += 1
    edges = []
    seq = list(seq)
    for s in seq:
        leaf = int(np.nonzero(degree == 1)[0][0])
        edges.append((leaf, s))
        degree[leaf] -= 1
        degree[s] -= 1
    u, v = [int(x) for x in np.nonzero(degree == 1)[0][:2]]
    edges.append((u, v))
    return _adjacency_from_edges(n, edges)


def catalog_lambda_checks(seed: int = 0) -> List[Certificate]:
    """Spectral-radius thresholds for the five catalog families.

    (i) connected trees on 11 vertices have lambda_1 >= 20/11 (average
    degree); (ii) connected graphs with as many edges as vertices have
    lambda_1 >= 2; (iii) the 5-leaf star reaches sqrt(5) > 2.2; (iv) the
    5-vertex, 5-edge graph with a degree-4 vertex reaches 2.25; (v) 8-edge
    graphs with a degree-4 vertex reach 2.2.
    """
    from .constructions import RngStream

    certs = []

    def emit(name, adj, threshold, extra=None):
        lam = lambda1(adj)
        witness = {"lambda1": lam, "vertices": int(adj.shape[0]),
                   "edges": int(adj.sum()) // 2}
        if extra:
            witness.update(extra)
        certs.append(Certificate.check(
            name, "catalog threshold <= lambda_1 of the witness graph",
            lhs=threshold, rhs=lam, tol=1e-9, witness=witness))

    emit("catalog-i-path11", path_graph(11), 20.0 / 11.0)
    rng = RngStream(seed)
    for j in range(5):
        seq = (rng.derive(j).uniforms(9) * 11).astype(int)
        emit(f"catalog-i-tree{j}", tree_from_pruefer(seq), 20.0 / 11.0)
    for k in range(3, 11):
        emit(f"catalog-ii-cycle{k}", cycle_graph(k), 2.0)
    emit("catalog-iii-star5", star_graph(5), 2.2,
         extra={"closed_form": math.sqrt(5.0)})
    deg4 = _adjacency_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2)])
    emit("catalog-iv-deg4-5edges", deg4, 2.25)
    spider = _adjacency_from_edges(
        9, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (2, 6), (3, 7), (4, 8)])
    emit("catalog-v-spider", spider, 2.2)
    dense = _adjacency_from_edges(
        7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (3, 5), (4, 6), (5, 6)])
    emit("catalog-v-adjacent-neighbors", dense, 2.2)
    return certs


# L(alpha, t) spectral certificate ---------------------------------------


def lambda_inequality_check(C: Code, params: Optional[AngleParams] = None) -> Certificate:
    """Exact PSD consequence for an L(alpha,t)-code and its negative graph.

    With x the top eigenvector of the negative-edge adjacency H, positive
    semidefiniteness of the Gram matrix forces
    0 <= 1 - eps + eps <Jx,x> - sigma (1 - eps) lambda_1(H).
    """
    params, neg = _l_code_negatives(C, params)
    eps = float(params.epsilon)
    sigma = float(params.sigma)
    spec = sym_eigen(SymMatrix(neg.astype(float)))
    lam = float(spec.eigenvalues[0])
    x = spec.eigenvectors[:, 0]
    jxx = float(np.sum(x)) ** 2
    rhs = 1.0 - eps + eps * jxx - sigma * (1.0 - eps) * lam
    return Certificate.check(
        "lambda-inequality",
        "0 <= 1 - eps + eps <Jx,x> - sigma (1-eps) lambda_1(H)",
        lhs=0.0, rhs=rhs, tol=C.tol.psd_slack * max(1.0, float(len(C))),
        witness={"lambda1": lam, "jxx": jxx, "epsilon": eps, "sigma": sigma,
                 "t": params.t, "negative_edges": int(neg.sum()) // 2})


# clique search and the reduction pipeline --------------------------------


def find_clique(adj: np.ndarray, t: int) -> Optional[Tuple[int, ...]]:
    """Lexicographically first t-clique of a simple graph, or None.

    ``adj`` must be square and symmetric (InvalidParams otherwise); its
    diagonal is ignored.  Backtracking tries candidates in ascending order
    and bounds each branch by a greedy colouring of its candidates
    (Carraghan-Pardalos 1990, Tomita-Seki MCQ 2003): a clique meets each
    colour class at most once, so a branch is cut once the clique plus the
    colours left among the remaining candidates falls below t.  The cut
    drops only branches without a t-clique, so the first clique found is
    unchanged.  A complete multipartite graph with p parts colours with
    exactly p colours, so asking it for a (p+1)-clique ends at the root.
    """
    adj = np.asarray(adj, dtype=bool)
    if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
        raise InvalidParams("clique search needs a square adjacency matrix")
    if not np.array_equal(adj, adj.T):
        raise InvalidParams("clique search needs a symmetric adjacency matrix")
    if t <= 0:
        return ()
    n = adj.shape[0]
    rows = np.packbits(adj, axis=1, bitorder="little")
    neighbors = [int.from_bytes(rows[v].tobytes(), "little") & ~(1 << v)
                 for v in range(n)]
    return _extend_clique((1 << n) - 1, neighbors, t)


def _extend_clique(candidates: int, neighbors: List[int],
                   t: int) -> Optional[Tuple[int, ...]]:
    """First t-clique among the bitset ``candidates``, searched depth first.

    An explicit stack holds one frame per clique vertex, so the depth is
    bounded by memory rather than by the interpreter's recursion limit.
    A frame is [candidates not yet tried, sorted colour-class tops, number
    of those tops below the next candidate].
    """
    clique: List[int] = []
    stack = [[candidates, _colour_tops(candidates, neighbors), 0]]
    while stack:
        frame = stack[-1]
        rest, tops, passed = frame
        if rest:
            low = rest & -rest
            v = low.bit_length() - 1
            # a class is among the candidates from v on while its top vertex is >= v
            while passed < len(tops) and tops[passed] < v:
                passed += 1
            if len(clique) + len(tops) - passed >= t:
                rest ^= low
                frame[0], frame[2] = rest, passed
                clique.append(v)
                if len(clique) == t:
                    return tuple(clique)
                inner = rest & neighbors[v]
                stack.append([inner, _colour_tops(inner, neighbors), 0])
                continue
        stack.pop()
        if stack:
            clique.pop()
    return None


def _colour_tops(candidates: int, neighbors: List[int]) -> List[int]:
    """Top vertex of each class of a greedy colouring of ``candidates``, sorted.

    Each class takes the lowest uncoloured candidate, then the lowest one
    adjacent to none of the class so far, and so on.
    """
    tops = []
    uncoloured = candidates
    while uncoloured:
        free = uncoloured
        while free:
            low = free & -free
            top = low.bit_length() - 1
            uncoloured ^= low
            free &= ~(neighbors[top] | low)
        tops.append(top)
    tops.sort()
    return tops


@dataclass(frozen=True)
class ReductionOutcome:
    """Everything the clique / switch / project pipeline produced."""

    alpha: float
    clique: Tuple[int, ...]
    switched: Tuple[int, ...]
    buckets: Dict[object, Tuple[int, ...]]
    projected: Optional[Code]
    params: AngleParams
    accounting: Dict[str, int]
    garbage_checks: Tuple[dict, ...]


def reduction_pipeline(C: Code, t: int) -> ReductionOutcome:
    """Find a positive t-clique, switch small attachments, bucket, project.

    Every vertex outside the clique Y lands in the bucket S_T of the subset
    T of Y it meets positively; vertices with |T| < t/2 are negated first,
    which flips their bucket to the complement.  S_Y projects onto the
    orthogonal complement of span(Y) as an L(alpha, t)-code, and
    |C| = |S_Y| + sum of the other buckets + |Y| holds exactly.

    Negating a vector negates its inner products exactly in floating point,
    and no clique vertex is negated, so the switched code's classes follow
    from the input's graph: one graph and one validation serve both.
    """
    alpha = detect_equiangular(C)
    if alpha is None or alpha <= C.tol.angle_tol:
        raise NotEquiangular("reduction needs a code with all pairs +/- alpha")
    if t < 1 or t >= len(C):
        raise InvalidParams("clique size t must satisfy 1 <= t < |C|")
    graph = build_graph(C, AngleSet(points=(-alpha, alpha), tol=C.tol.angle_tol))
    clique = _positive_clique(graph, t, alpha)
    if clique is None:
        raise NoClique(f"no positive clique of size {t}")
    clique_set = set(clique)
    use_exact_keys = t <= 24
    switched: List[int] = []
    buckets: Dict[object, List[int]] = {}
    for v, row in enumerate((graph.classes[:, list(clique)] == 1).tolist()):  # 1 is +alpha
        if v in clique_set:
            continue
        flip = 2 * sum(row) < t
        if flip:
            switched.append(v)
        T = tuple(y for y, positive in zip(clique, row) if positive != flip)
        buckets.setdefault(T if use_exact_keys else len(T), []).append(v)
    buckets = {key: tuple(vs) for key, vs in buckets.items()}

    full_key = tuple(clique) if use_exact_keys else t
    s_y = buckets.get(full_key, ())
    others = sum(len(vs) for key, vs in buckets.items() if key != full_key)
    accounting = {"size": len(C), "clique": t, "s_y": len(s_y),
                  "others": others}
    if len(C) != len(s_y) + others + t:
        raise InternalError("bucket accounting identity failed")

    garbage_bound = 2.0 / (alpha * alpha)
    garbage_checks = []
    for key, vs in buckets.items():
        tsize = len(key) if use_exact_keys else key
        if t <= 2 * tsize and tsize < t:
            applicable = tsize > garbage_bound
            garbage_checks.append({
                "attachment_size": tsize,
                "bucket_size": len(vs),
                "bound": garbage_bound,
                "applicable": applicable,
                "ok": (len(vs) < garbage_bound) if applicable else None,
            })

    params = AngleParams(alpha, t)
    projected = None
    if s_y:
        work = switch_vertices(C, switched)  # the projection needs the vectors
        projected = project_onto_complement(work.subset(s_y), work.subset(clique))
        rep = validate_code(projected, angle_set_after_projection(params, C.tol.angle_tol))
        if not rep.passed:
            raise InternalError("projected bucket is not an L(alpha, t)-code")
    return ReductionOutcome(alpha=alpha, clique=tuple(clique), switched=tuple(switched),
                            buckets=buckets, projected=projected, params=params,
                            accounting=accounting,
                            garbage_checks=tuple(garbage_checks))


def _positive_clique(graph: LabelledGraph, t: int, alpha: float) -> Optional[Tuple[int, ...]]:
    """Positive t-clique via the Ramsey route when the graph is large enough,
    otherwise by direct backtracking search."""
    t_forced = max(t, math.ceil(1.0 / alpha) + 2)
    if graph.size > 4 ** t_forced:
        pair = ramsey_pair(graph, k=2, t=t_forced, m=1)
        if pair.color != 1:
            raise InternalError(
                "found a negative clique larger than the 1/alpha + 1 cap")
        return tuple(sorted(pair.Y[:t]))
    return find_clique(graph.adjacency(1), t)

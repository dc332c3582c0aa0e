"""Comparison rankers: degree, clique-graph eigenvector, Z- and H-tensor
eigenvector centralities, continuous Borgatti-Everett scores, and k-core
decomposition.

Each ranker maps a hypergraph to a total order over its nodes.  Ties are
always broken by ascending node index, so identical inputs give identical
rankings bit for bit.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator

import numpy as np

from .hypergraph import Edge, Hypergraph


@dataclass(frozen=True)
class IterationParams:
    """Fixed-point solver settings: L1 convergence tolerance and a cap."""

    tolerance: float = 1e-10
    max_iters: int = 10_000

    def __post_init__(self) -> None:
        if self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


@dataclass(frozen=True)
class Ranking:
    """Scores per node plus the induced order, best first.

    converged/residual/iterations describe the fixed-point iteration when
    one was used (iterations is 0 when none was); note carries method
    metadata such as the solver variant.
    """

    scores: tuple[float, ...]
    order: tuple[int, ...]
    converged: bool = True
    residual: float = 0.0
    note: str = ""
    iterations: int = 0

    def __post_init__(self) -> None:
        n = len(self.scores)
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of all node indices")
        for a, b in zip(self.order, self.order[1:]):
            if self.scores[a] < self.scores[b] or (
                self.scores[a] == self.scores[b] and a > b
            ):
                raise ValueError("order inconsistent with scores and index tie-break")

    @classmethod
    def from_scores(
        cls,
        scores,
        converged: bool = True,
        residual: float = 0.0,
        note: str = "",
        iterations: int = 0,
    ) -> "Ranking":
        values = tuple(float(s) for s in scores)
        order = tuple(sorted(range(len(values)), key=lambda v: (-values[v], v)))
        return cls(
            scores=values,
            order=order,
            converged=converged,
            residual=residual,
            note=note,
            iterations=iterations,
        )


def degree_ranking(G: Hypergraph) -> Ranking:
    """Rank by the number of hyperedges containing each node."""
    return Ranking.from_scores(G.degrees())


def _fixed_point(
    apply: Callable[[np.ndarray], np.ndarray],
    normalize: Callable[[np.ndarray], float],
    x0: np.ndarray,
    it: IterationParams,
) -> tuple[np.ndarray, bool, float, int]:
    """Iterate x <- apply(x) / normalize(apply(x)) from x0.

    Stops when the L1 change drops below the tolerance, or after
    it.max_iters applications.  A zero norm ends the iteration at once as
    converged, returning that zero iterate with residual 0.  Returns the
    last iterate, a convergence flag, the final L1 residual and the number
    of applications made.
    """
    x = x0
    residual = float("inf")
    for step in range(1, it.max_iters + 1):
        y = apply(x)
        total = normalize(y)
        if total == 0.0:
            return y, True, 0.0, step
        y /= total
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < it.tolerance:
            return x, True, residual, step
    return x, False, residual, it.max_iters


def _clique_apply(
    indptr: np.ndarray, members: np.ndarray, n: int, x: np.ndarray
) -> np.ndarray:
    """(Wx)_i = sum over edges e containing i of (sum of x over e) - x_i.

    The edges are the CSR view (indptr, members) of a graph on n nodes, and
    W is its clique expansion: W[i, j] counts the edges holding both i and
    j.  Both bincounts add in slot order, so the result is the same float
    for float as the plain loop over edges and members; no matrix is formed.
    """
    m = len(indptr) - 1
    edge_ids = np.repeat(np.arange(m), np.diff(indptr))
    values = x[members]
    sums = np.bincount(edge_ids, weights=values, minlength=m)
    return np.bincount(members, weights=sums[edge_ids] - values, minlength=n)


def _power_iteration(
    indptr: np.ndarray, members: np.ndarray, n: int, it: IterationParams, norm_ord: int
) -> tuple[np.ndarray, bool, float, int]:
    """Dominant eigenvector of the clique expansion W of the CSR edge view
    (indptr, members) on n nodes.

    Iterates x <- (W x + x) / norm from a uniform start, the usual shift
    that defeats the sign oscillation on bipartite weight patterns without
    changing the leading eigenvector.
    """
    return _fixed_point(
        lambda x: _clique_apply(indptr, members, n, x) + x,
        lambda y: np.linalg.norm(y, ord=norm_ord),
        np.full(n, 1.0 / n),
        it,
    )


def _clique_components(
    G: Hypergraph,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each connected component of the clique expansion as (nodes, indptr,
    members): its nodes ascending, and the CSR view of its edges, in G's
    order, with every member renumbered to its position in nodes.  Edges of
    one member add nothing to the expansion and are left out."""
    edges = [e for e in G.edges if len(e) > 1]
    parent = list(range(G.n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for edge in edges:
        root = find(edge[0])
        for v in edge[1:]:
            parent[find(v)] = root
    groups: dict[int, list[Edge]] = {}
    for edge in edges:
        groups.setdefault(find(edge[0]), []).append(edge)
    for group in groups.values():
        sizes = [len(e) for e in group]
        indptr = np.zeros(len(group) + 1, dtype=np.intp)
        np.cumsum(sizes, out=indptr[1:])
        flat = np.fromiter(chain.from_iterable(group), dtype=np.int32, count=indptr[-1])
        # np.unique would import numpy.ma, about 1 MB of memory, on first use
        nodes = np.sort(flat)
        nodes = nodes[np.diff(nodes, prepend=-1) > 0]
        yield nodes, indptr, np.searchsorted(nodes, flat)


def clique_eigen_ranking(G: Hypergraph, it: IterationParams | None = None) -> Ranking:
    """Eigenvector centrality on the weighted clique graph.

    Each connected component is solved on its own edges, renumbered to its
    nodes in ascending order, by L1-normalized power iteration, then scaled
    so its maximum score equals its share of the total edge weight; isolated
    nodes score 0.  An edgeless input yields uniform zero scores in index
    order.  The reported residual and iteration count are the largest over
    the components.
    """
    it = it or IterationParams()
    sizes = np.diff(G.edge_csr[0])
    ordered_pairs = int((sizes * (sizes - 1)).sum())
    scores = np.zeros(G.n)
    converged = True
    residual = 0.0
    iterations = 0
    for nodes, indptr, members in _clique_components(G):
        x, ok, res, steps = _power_iteration(indptr, members, len(nodes), it, 1)
        lens = np.diff(indptr)
        share = int((lens * (lens - 1)).sum()) / ordered_pairs
        scores[nodes] = x * (share / float(x.max()))
        converged = converged and ok
        residual = max(residual, res)
        iterations = max(iterations, steps)
    return Ranking.from_scores(
        scores, converged=converged, residual=residual, iterations=iterations
    )


def _uniform_rank(G: Hypergraph) -> int:
    if not G.edges:
        raise ValueError("tensor centralities need at least one hyperedge")
    r = len(G.edges[0])
    if any(len(e) != r for e in G.edges):
        raise ValueError("hypergraph is not uniform; extract an r-uniform part first")
    if r < 2:
        raise ValueError(f"uniformity must be >= 2, got {r}")
    return r


def _tensor_apply(G: Hypergraph, x: np.ndarray) -> np.ndarray:
    """f(x)_i = sum over edges containing i of the product of the other members.

    G must be uniform with at least one edge.  Each product multiplies the
    other members' values left to right, and bincount adds the products up
    in edge order, so the result is the same float for float as the plain
    loop over edges; no division is involved, so zeros in x need no
    special case.
    """
    _, members = G.edge_csr
    m = len(G.edges)
    values = x[members].reshape(m, -1)
    prods = np.ones(values.shape)
    for pos in range(values.shape[1]):
        for j in range(values.shape[1]):
            if j != pos:
                prods[:, pos] *= values[:, j]
    return np.bincount(members, weights=prods.reshape(-1), minlength=G.n)


def z_eigen_ranking(G: Hypergraph, it: IterationParams | None = None) -> Ranking:
    """Z-eigenvector centrality of the adjacency tensor of an r-uniform input.

    Fixed point of x <- f(x)/||f(x)||_2 from a uniform positive start; the
    tensor's symmetrization constants scale f uniformly and drop out of the
    ranking.  Non-convergence within the iteration cap is reported on the
    result, with the last iterate returned.
    """
    it = it or IterationParams()
    if not G.edges:
        return Ranking.from_scores(
            np.zeros(G.n), note="z-eigenvector (edgeless input)"
        )
    _uniform_rank(G)
    x, converged, residual, steps = _fixed_point(
        lambda x: _tensor_apply(G, x),
        lambda f: float(np.linalg.norm(f, ord=2)),
        np.full(G.n, 1.0 / G.n),
        it,
    )
    note = "z-eigenvector" if converged else "z-eigenvector (no convergence)"
    return Ranking.from_scores(
        x, converged=converged, residual=residual, note=note, iterations=steps
    )


def h_eigen_ranking(G: Hypergraph, it: IterationParams | None = None) -> Ranking:
    """H-eigenvector centrality: x <- g(x)/||g(x)||_1 with g = f(x)^(1/(r-1)).

    Nodes in no hyperedge keep score 0; everything else follows the
    standard nonnegative-tensor power method.
    """
    it = it or IterationParams()
    if not G.edges:
        return Ranking.from_scores(
            np.zeros(G.n), note="h-eigenvector (edgeless input)"
        )
    exponent = 1.0 / (_uniform_rank(G) - 1)
    x, converged, residual, steps = _fixed_point(
        lambda x: _tensor_apply(G, x) ** exponent,
        lambda g: float(g.sum()),
        np.full(G.n, 1.0 / G.n),
        it,
    )
    note = "h-eigenvector" if converged else "h-eigenvector (no convergence)"
    return Ranking.from_scores(
        x, converged=converged, residual=residual, note=note, iterations=steps
    )


def borgatti_everett_ranking(
    G: Hypergraph, it: IterationParams | None = None
) -> Ranking:
    """Continuous core-periphery scores on the clique graph.

    The continuous model's stationary condition makes the score vector the
    dominant eigenvector of the weight matrix, here computed by power
    iteration and reported with unit L2 norm.  The discrete blockmodel
    variant is out of scope; the note labels the variant used.
    """
    it = it or IterationParams()
    note = "borgatti-everett continuous (dominant eigenvector)"
    if G.rank < 2:
        return Ranking.from_scores(np.zeros(G.n), note=note)
    x, converged, residual, steps = _power_iteration(*G.edge_csr, G.n, it, 2)
    return Ranking.from_scores(
        x, converged=converged, residual=residual, note=note, iterations=steps
    )


def kcore_ranking(G: Hypergraph) -> Ranking:
    """k-core decomposition under hypergraph degree.

    Peel a minimum-degree node each round (ties: lowest index); every edge
    containing a removed node disappears with it.  A node's core number is
    the largest minimum degree seen up to its removal.  Ranking: core number
    descending, then original degree descending, then index ascending.
    """
    degrees = list(G.degrees())
    original = G.degrees()
    alive_edge = [True] * len(G.edges)
    removed = [False] * G.n
    core = [0] * G.n
    threshold = 0
    # Lazy heap: a degree drop pushes a fresh (degree, node) entry, and the
    # older, larger entries of that node pop only after it is removed.
    heap = [(d, v) for v, d in enumerate(degrees)]
    heapq.heapify(heap)
    while heap:
        d, v = heapq.heappop(heap)
        if removed[v]:
            continue
        threshold = max(threshold, d)
        core[v] = threshold
        removed[v] = True
        for idx in G.incidence[v]:
            if alive_edge[idx]:
                alive_edge[idx] = False
                for u in G.edges[idx]:
                    if not removed[u]:
                        degrees[u] -= 1
                        heapq.heappush(heap, (degrees[u], u))
    span = max(original, default=0) + 1
    scores = [core[v] * span + original[v] for v in range(G.n)]
    return Ranking.from_scores(scores, note="k-core (peeling threshold)")

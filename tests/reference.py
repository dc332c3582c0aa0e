"""Reference implementations that only the tests use: exhaustive subset
searches that cross-check the oracle's alpha = n - k* route, the
list-based hitting-set search that the oracle's edge-bitset search is
checked against, the per-edge incidence loop that the hypergraph's
incidence views are checked against, and the dense clique matrix that the
matrix-free clique operator is checked against."""

import time
from itertools import combinations

import numpy as np

from umhs import OracleBudgetError, OracleLimits


def independence_number_exhaustive(G, limits=None):
    """alpha(G) by direct subset search, the cross-check route for n <= 20."""
    for size in range(G.n, -1, -1):
        if has_independent_set(G, size, limits):
            return size
    return 0


def has_independent_set(G, size, limits=None):
    """Is there a node set of the given size containing no hyperedge entirely?"""
    if size < 0:
        raise ValueError(f"size must be >= 0, got {size}")
    if size > G.n:
        return False
    if size == 0:
        return True
    limits = limits or OracleLimits()
    if G.n > limits.max_nodes:
        raise ValueError(
            f"instance has {G.n} nodes, above the oracle limit {limits.max_nodes}"
        )
    deadline = time.monotonic() + limits.time_budget
    masks = [sum(1 << v for v in e) for e in G.edges]
    for subset in combinations(range(G.n), size):
        s = sum(1 << v for v in subset)
        if all(m & ~s for m in masks):
            return True
        if time.monotonic() > deadline:
            raise OracleBudgetError(f"independent set search at size {size} timed out")
    return False


def incidence_reference(G):
    """For each node, the indices of the edges containing it, built by one
    Python pass over the edges."""
    lists = [[] for _ in range(G.n)]
    for idx, edge in enumerate(G.edges):
        for v in edge:
            lists[v].append(idx)
    return tuple(tuple(lst) for lst in lists)


def edge_masks(edges):
    """Each edge as an int node mask, the input of hitting_leaves_reference."""
    return [sum(1 << v for v in e) for e in edges]


def hitting_leaves_reference(masks, k, deadline):
    """The oracle's hitting-set search over a list of edge node masks.

    Each inner node keeps its uncovered edges as a list, branches on the
    first edge of least size and filters the list once per child.  Yields
    the same leaves, in the same order and multiplicity, as
    umhs.oracle._hitting_leaves on the graph's edge view.
    """
    visited = set()

    def dfs(chosen, count, uncovered):
        if not uncovered:
            yield chosen
            return
        if count == k or chosen in visited:
            return
        visited.add(chosen)
        if time.monotonic() > deadline:
            raise OracleBudgetError(f"search for hitting sets of size <= {k} timed out")
        edge = min(uncovered, key=int.bit_count)
        for v in range(edge.bit_length()):
            bit = 1 << v
            if edge & bit:
                rest = [m for m in uncovered if not m & bit]
                yield from dfs(chosen | bit, count + 1, rest)

    return dfs(0, 0, masks)


def clique_graph(graph):
    """Weighted co-occurrence matrix of the hypergraph.

    W[i, j] counts the hyperedges containing both i and j; the diagonal is
    zero.  Returned as a dense symmetric float array, so only for small n.
    """
    w = np.zeros((graph.n, graph.n), dtype=float)
    for edge in graph.edges:
        for a in range(len(edge)):
            for b in range(a + 1, len(edge)):
                w[edge[a], edge[b]] += 1.0
                w[edge[b], edge[a]] += 1.0
    return w

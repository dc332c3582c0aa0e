"""Immutable hypergraph values and basic set-cover predicates.

Nodes are dense integer indices 0..n-1.  A hyperedge is a sorted tuple of
distinct node indices.  All operations treat hypergraphs as values: nothing
here mutates, so instances are safe to share across threads and iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

Edge = tuple[int, ...]
HittingSet = frozenset[int]


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph on nodes 0..n-1 with deduplicated, sorted hyperedges.

    Edges must already be canonical: members strictly ascending, at least one
    member, no duplicate edges.  Use :func:`canonicalize` to build one from
    raw user input (which additionally rejects edges with fewer than two
    distinct members; single-member edges are legal only as outputs of
    kernelization-style rewrites).
    """

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"node count must be >= 0, got {self.n}")
        seen: set[Edge] = set()
        for idx, edge in enumerate(self.edges):
            if len(edge) == 0:
                raise ValueError(f"edge {idx} is empty")
            if any(edge[i] >= edge[i + 1] for i in range(len(edge) - 1)):
                raise ValueError(
                    f"edge {idx} is not strictly ascending: {list(edge)}"
                )
            if edge[0] < 0 or edge[-1] >= self.n:
                raise ValueError(
                    f"edge {idx} has members outside 0..{self.n - 1}: {list(edge)}"
                )
            if edge in seen:
                raise ValueError(f"duplicate edge {idx}: {list(edge)}")
            seen.add(edge)

    @cached_property
    def rank(self) -> int:
        """Maximum hyperedge size (0 for an edgeless hypergraph)."""
        return max((len(e) for e in self.edges), default=0)

    @cached_property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        """For each node, the ascending indices of the edges containing it:
        :attr:`incidence_csr` as tuples."""
        indptr, indices = self.incidence_csr
        bounds, ids = indptr.tolist(), tuple(indices.tolist())
        return tuple(ids[a:b] for a, b in zip(bounds, bounds[1:]))

    @cached_property
    def edge_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indptr, nodes) CSR form of :attr:`edges`.

        nodes[indptr[i]:indptr[i + 1]] are the int32 members of edge i,
        ascending; indptr has m + 1 entries.
        """
        sizes = np.fromiter(map(len, self.edges), dtype=np.intp, count=len(self.edges))
        indptr = np.zeros(len(self.edges) + 1, dtype=np.intp)
        np.cumsum(sizes, out=indptr[1:])
        nodes = np.fromiter(
            chain.from_iterable(self.edges), dtype=np.int32, count=int(indptr[-1])
        )
        return _read_only(indptr), _read_only(nodes)

    @cached_property
    def incidence_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (indptr, indices) CSR view of the edges at each node.

        indices[indptr[v]:indptr[v + 1]] are the int32 indices of the edges
        containing node v, ascending; indptr has n + 1 entries.
        """
        edge_ptr, members = self.edge_csr
        edge_ids = np.repeat(np.arange(len(self.edges), dtype=np.int32), np.diff(edge_ptr))
        indices = edge_ids[np.argsort(members, kind="stable")]
        indptr = np.zeros(self.n + 1, dtype=np.intp)
        np.cumsum(np.bincount(members, minlength=self.n), out=indptr[1:])
        return _read_only(indptr), _read_only(indices)

    def degrees(self) -> tuple[int, ...]:
        """Degree of every node, indexed by node."""
        return tuple(np.diff(self.incidence_csr[0]).tolist())


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class LabeledHypergraph:
    """A hypergraph together with a planted core C.

    The core must hit every hyperedge; an instance whose core misses an edge
    is rejected at construction so downstream recovery code can rely on it.
    """

    graph: Hypergraph
    core: HittingSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "core", node_set(self.graph.n, self.core))
        unhit = unhit_edges(self.graph, self.core)
        if unhit:
            edge = list(self.graph.edges[unhit[0]])
            raise ValueError(f"core is not a hitting set: edge {unhit[0]} {edge} is unhit")


def node_set(n: int, nodes: Iterable[int], what: str = "core members") -> HittingSet:
    """nodes as a frozenset; ValueError naming any that lie outside 0..n-1."""
    s = frozenset(nodes)
    bad = sorted(v for v in s if not 0 <= v < n)
    if bad:
        raise ValueError(f"{what} outside node range: {bad}")
    return s


def canonicalize(n: int, raw_edges: Iterable[Iterable[int]]) -> Hypergraph:
    """Build a Hypergraph from raw user edges.

    Members within an edge are deduplicated and sorted, duplicate edges are
    dropped (first occurrence kept), and any edge with fewer than two
    distinct members is rejected.

    Raises:
        ValueError: on an out-of-range member or an edge with < 2 distinct
            members, naming the offending edge.
    """
    out: list[Edge] = []
    for idx, raw in enumerate(raw_edges):
        members = tuple(sorted(set(raw)))
        if members and (members[0] < 0 or members[-1] >= n):
            raise ValueError(
                f"edge {idx} has members outside 0..{n - 1}: {list(members)}"
            )
        if len(members) < 2:
            raise ValueError(
                f"edge {idx} has fewer than 2 distinct members: {list(members)}"
            )
        out.append(members)
    return Hypergraph(n=n, edges=tuple(dict.fromkeys(out)))


def unhit_edges(graph: Hypergraph, nodes: Iterable[int]) -> list[int]:
    """Indices, ascending, of the hyperedges that contain none of nodes."""
    s = frozenset(nodes)
    return [idx for idx, edge in enumerate(graph.edges) if s.isdisjoint(edge)]


def is_hitting_set(graph: Hypergraph, candidate: Iterable[int]) -> bool:
    """True iff every hyperedge contains at least one candidate node."""
    return not unhit_edges(graph, candidate)


def is_minimal_hitting_set(graph: Hypergraph, candidate: Iterable[int]) -> bool:
    """True iff candidate hits every edge and no proper subset does.

    Minimality is equivalent to every member privately covering some edge
    (an edge in which it is the only member of the candidate set).
    """
    s = candidate if isinstance(candidate, (set, frozenset)) else set(candidate)
    counts = [sum(1 for v in edge if v in s) for edge in graph.edges]
    if any(c == 0 for c in counts):
        return False
    for v in s:
        if not any(counts[idx] == 1 for idx in graph.incidence[v]):
            return False
    return True


def prune_to_minimal(
    graph: Hypergraph,
    hitting_set: Iterable[int],
    removal_order: Sequence[int],
) -> HittingSet:
    """Greedily drop redundant nodes from a hitting set until it is minimal.

    Nodes are examined in removal_order (which must be a permutation of the
    hitting set); a node is dropped when every edge containing it retains
    another member.  One pass reaches minimality: a survivor privately
    covers some edge, and later removals never take that private edge away.

    Raises:
        ValueError: if hitting_set does not hit every edge, or removal_order
            is not a permutation of it.
    """
    current = set(hitting_set)
    if sorted(removal_order) != sorted(current):
        raise ValueError("removal_order must be a permutation of the hitting set")
    counts = [sum(1 for v in edge if v in current) for edge in graph.edges]
    if any(c == 0 for c in counts):
        bad = next(i for i, c in enumerate(counts) if c == 0)
        raise ValueError(f"not a hitting set: edge {bad} {list(graph.edges[bad])} is unhit")

    for v in removal_order:
        if all(counts[idx] >= 2 for idx in graph.incidence[v]):
            current.remove(v)
            for idx in graph.incidence[v]:
                counts[idx] -= 1
    return frozenset(current)


def uniform_subhypergraph(graph: Hypergraph, r: int) -> tuple[Hypergraph, dict[int, int]]:
    """Restrict to the hyperedges of size exactly r and re-index the nodes.

    Nodes that appear in no size-r edge are dropped.  Returns the r-uniform
    hypergraph and the mapping from old node index to new.
    """
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    kept = [e for e in graph.edges if len(e) == r]
    used = sorted({v for e in kept for v in e})
    remap = {old: new for new, old in enumerate(used)}
    new_edges = tuple(tuple(remap[v] for v in e) for e in kept)
    return Hypergraph(n=len(used), edges=new_edges), remap

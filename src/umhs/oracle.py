"""Exact small-instance machinery: minimum hitting sets, enumeration of the
minimal hitting sets of size <= k, sunflower search, and the edge-replacement
kernelization that preserves them.

Everything here is exponential in the worst case and exists for desk-scale
instances, both as a feature (exact k*, alpha, U(k)) and as the ground truth
that property tests compare the scalable recovery code against.  k* and U(k)
come from one depth-first hitting-set search: the enumeration takes every
leaf at its budget k, and k* deepens the budget one level at a time from
the size of a greedy maximal matching until a leaf appears (the matching's
edges are pairwise disjoint, so each needs a hitter of its own).  All entry
points take OracleLimits and fail loudly instead of truncating silently.
Internally sets of nodes are int bitmasks, and the search runs over an
edge-bitset view: the edges sorted stably by size, and per node an int
whose bits are the sorted positions of its edges.  The uncovered edges are
then one int, so a search step is a few big-int operations rather than a
Python loop over the edges, and no native code is needed.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import factorial
from typing import Iterator, Sequence

from .hypergraph import (
    Edge,
    HittingSet,
    Hypergraph,
    LabeledHypergraph,
    is_minimal_hitting_set,
    prune_to_minimal,
)
from .recovery import greedy_matching_certificate


@dataclass(frozen=True)
class OracleLimits:
    """Hard caps for the exponential procedures."""

    max_nodes: int = 26
    max_k: int = 12
    time_budget: float = 60.0

    def __post_init__(self) -> None:
        if self.max_nodes < 1 or self.max_k < 1 or self.time_budget <= 0:
            raise ValueError("all oracle limits must be positive")


class OracleBudgetError(Exception):
    """Raised when a search exhausts its time budget.

    Carries the best bounds found so far, never a truncated answer.
    """

    def __init__(self, message: str, best_lower: int | None = None,
                 best_upper: int | None = None) -> None:
        super().__init__(message)
        self.best_lower = best_lower
        self.best_upper = best_upper


@dataclass(frozen=True)
class Sunflower:
    """Edges whose pairwise intersections all equal the shared core."""

    petals: tuple[Edge, ...]
    core: HittingSet

    def __post_init__(self) -> None:
        object.__setattr__(self, "core", frozenset(self.core))
        sets = [set(p) for p in self.petals]
        for a, b in combinations(range(len(sets)), 2):
            if sets[a] & sets[b] != self.core:
                raise ValueError(
                    f"petals {a} and {b} intersect in {sorted(sets[a] & sets[b])}, "
                    f"not the core {sorted(self.core)}"
                )


@dataclass(frozen=True)
class KernelReport:
    """Outcome of the sunflower-replacement kernelization.

    phases counts performed replacements; replaced holds (petals, core)
    per phase.  infeasible means k+1 pairwise disjoint edges were found
    (witness holds them), so no hitting set of size <= k exists.  complete
    is False only when the time budget ran out mid-way.
    """

    kernel: Hypergraph
    phases: int
    replaced: tuple[tuple[tuple[Edge, ...], HittingSet], ...]
    infeasible: bool = False
    witness: tuple[Edge, ...] | None = None
    complete: bool = True


@dataclass(frozen=True)
class MembershipReport:
    """Nodes flagged by the two core-membership premises and the check outcome.

    outside_nodes: core nodes with an edge whose other members all lie
    outside the core.  interior_premise_nodes: core nodes with an edge whose
    other members are all interior (every edge containing them stays inside
    the core).  Each flagged node is checked against U(|C|); any misses land
    in violations.
    """

    outside_nodes: HittingSet
    interior_premise_nodes: HittingSet
    union_at_core_size: HittingSet
    violations: HittingSet

    @property
    def all_in_union(self) -> bool:
        return not self.violations


def sigma(r: int, k: int) -> int:
    """Sunflower threshold r!(k-1)^r; above this many size-<=r sets a
    k-sunflower must exist.  Exact arbitrary-precision integer, so the
    overflow failure mode of fixed-width arithmetic cannot occur."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return factorial(r) * (k - 1) ** r


def _check_limits(graph: Hypergraph, limits: OracleLimits) -> None:
    if graph.n > limits.max_nodes:
        raise ValueError(
            f"instance has {graph.n} nodes, above the oracle limit "
            f"{limits.max_nodes}"
        )


def _bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def find_sunflower(edges: Sequence[Edge], k: int) -> Sunflower | None:
    """Constructive sunflower search over distinct edges.

    Take a maximal pairwise-disjoint subfamily; with k members that is a
    k-sunflower with empty core.  Otherwise recurse on the link of the most
    frequent element (smallest index on ties) and add it back to the core.
    Guaranteed to succeed when len(edges) > sigma(max size, k); a None
    return is possible only below that threshold.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    items = [(idx, frozenset(e)) for idx, e in enumerate(edges)]
    found = _sunflower_rec(items, k)
    if found is None:
        return None
    indices, core = found
    return Sunflower(petals=tuple(edges[i] for i in indices), core=core)


def _sunflower_rec(
    items: list[tuple[int, frozenset[int]]], k: int
) -> tuple[list[int], frozenset[int]] | None:
    chosen: list[int] = []
    used: set[int] = set()
    for idx, members in items:
        if not used & members:
            chosen.append(idx)
            used |= members
            if len(chosen) == k:
                return chosen, frozenset()
    freq: Counter[int] = Counter()
    for _, members in items:
        freq.update(members)
    if not freq:
        return None
    x = max(freq, key=lambda v: (freq[v], -v))
    link = [(idx, members - {x}) for idx, members in items if x in members]
    sub = _sunflower_rec(link, k)
    if sub is None:
        return None
    indices, core = sub
    return indices, core | {x}


def kernelize(
    G: Hypergraph, k: int, limits: OracleLimits | None = None
) -> KernelReport:
    """Shrink G below sigma(rank, k+1) edges without disturbing any hitting
    set of size <= k.

    Each phase finds a (k+1)-sunflower, removes its petals and inserts its
    core as an edge (duplicates merged).  A sunflower with empty core means
    k+1 pairwise disjoint edges, so no k-node set can hit them all; the
    report says so and stops.  The rank used in the threshold stays fixed
    at the input's rank, matching the replacement argument.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    limits = limits or OracleLimits()
    deadline = time.monotonic() + limits.time_budget
    r = G.rank
    threshold = sigma(r, k + 1) if r >= 1 else 0
    edges = list(G.edges)
    present = set(edges)
    replaced: list[tuple[tuple[Edge, ...], HittingSet]] = []
    infeasible = False
    witness: tuple[Edge, ...] | None = None
    complete = True
    while len(edges) > threshold:
        if time.monotonic() > deadline:
            complete = False
            break
        flower = find_sunflower(edges, k + 1)
        assert flower is not None, "sunflower guaranteed above the threshold"
        if not flower.core:
            infeasible = True
            witness = flower.petals
            break
        petals = set(flower.petals)
        edges = [e for e in edges if e not in petals]
        present -= petals
        core_edge = tuple(sorted(flower.core))
        if core_edge not in present:
            edges.append(core_edge)
            present.add(core_edge)
        replaced.append((flower.petals, frozenset(flower.core)))
    kernel = Hypergraph(n=G.n, edges=tuple(edges))
    return KernelReport(
        kernel=kernel,
        phases=len(replaced),
        replaced=tuple(replaced),
        infeasible=infeasible,
        witness=witness,
        complete=complete,
    )


# The edges sorted stably by size, and per node the int bitmask of the
# sorted positions of its edges.
_EdgeView = tuple[list[Edge], list[int]]


def _edge_view(G: Hypergraph) -> _EdgeView:
    edges = sorted(G.edges, key=len)
    inc = [0] * G.n
    for i, e in enumerate(edges):
        for v in e:
            inc[v] |= 1 << i
    return edges, inc


def _hitting_leaves(view: _EdgeView, k: int, deadline: float) -> Iterator[int]:
    """Yield, depth first, node masks of size <= k that hit every edge.

    Each branch adds one member of the smallest uncovered edge, so every
    minimal hitting set of size <= k is reached (singleton edges, legal in
    kernels, force their node by always being smallest).  The uncovered
    edges are one bitmask over the view's positions, so the smallest is
    its lowest set bit; the stable size sort makes that the first edge of
    least size in the graph's own order, the same tie-break as a min()
    over the edge list.  Inner nodes are memoized on the chosen mask,
    which fixes both the count (its popcount) and the uncovered edges, so
    no subtree is searched twice.  The same leaf may be yielded more than
    once.
    """
    edges, inc = view
    visited: set[int] = set()

    def dfs(chosen: int, count: int, uncovered: int) -> Iterator[int]:
        if not uncovered:
            yield chosen
            return
        if count == k or chosen in visited:
            return
        visited.add(chosen)
        if time.monotonic() > deadline:
            raise OracleBudgetError(
                f"search for hitting sets of size <= {k} timed out"
            )
        for v in edges[(uncovered & -uncovered).bit_length() - 1]:
            yield from dfs(chosen | 1 << v, count + 1, uncovered & ~inc[v])

    return dfs(0, 0, (1 << len(edges)) - 1)


def min_hitting_set_size(
    G: Hypergraph, limits: OracleLimits | None = None
) -> int:
    """Exact k* by iterative deepening over the hitting-set search.

    One greedy maximal matching, over the edges in graph order, gives both
    bounds: its edges are pairwise disjoint, so their count bounds k* from
    below, and its vertex set, pruned to a minimal hitting set, is the
    incumbent above.  Levels k are searched upwards from the matching's
    size; the first with a leaf is k*, and reaching the incumbent proves
    it optimal.  On timeout the OracleBudgetError carries the level
    reached (every lower one is proved infeasible) and the incumbent.
    """
    limits = limits or OracleLimits()
    _check_limits(G, limits)
    deadline = time.monotonic() + limits.time_budget
    start, selected = greedy_matching_certificate(G, range(len(G.edges)))
    best = len(prune_to_minimal(G, start, sorted(start)))
    view = _edge_view(G)
    k = len(selected)
    while k < best:
        try:
            if next(_hitting_leaves(view, k, deadline), None) is not None:
                return k
        except OracleBudgetError:
            raise OracleBudgetError(
                f"minimum hitting set search timed out; size in [{k}, {best}]",
                best_lower=k,
                best_upper=best,
            ) from None
        k += 1
    return best


def enumerate_minimal_hitting_sets(
    G: Hypergraph, k: int, limits: OracleLimits | None = None
) -> list[HittingSet]:
    """All minimal hitting sets of size <= k, in (size, lexicographic) order.

    Every minimal hitting set within the budget is a leaf of the search;
    leaves are deduplicated and filtered by the minimality predicate.
    Raises OracleBudgetError rather than returning a partial family.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    limits = limits or OracleLimits()
    _check_limits(G, limits)
    if k > limits.max_k:
        raise ValueError(f"k={k} above the oracle limit {limits.max_k}")
    deadline = time.monotonic() + limits.time_budget
    view = _edge_view(G)
    out = [
        frozenset(_bits(leaf))
        for leaf in set(_hitting_leaves(view, k, deadline))
        if _is_minimal_mask(leaf, view)
    ]
    out.sort(key=lambda s: (len(s), sorted(s)))
    return out


def _is_minimal_mask(candidate: int, view: _EdgeView) -> bool:
    """Does the node mask hit every edge, each member some edge alone?"""
    edges, inc = view
    members = _bits(candidate)
    once = twice = 0
    for v in members:
        twice |= once & inc[v]
        once |= inc[v]
    alone = once & ~twice
    return once == (1 << len(edges)) - 1 and all(inc[v] & alone for v in members)


def union_minimal(
    G: Hypergraph, k: int, limits: OracleLimits | None = None
) -> HittingSet:
    """U(k): the union of all minimal hitting sets of size <= k."""
    members: set[int] = set()
    for s in enumerate_minimal_hitting_sets(G, k, limits):
        members |= s
    return frozenset(members)


def independence_number(
    G: Hypergraph, limits: OracleLimits | None = None
) -> int:
    """alpha(G) = n - k*: a set is edge-free exactly when its complement hits."""
    return G.n - min_hitting_set_size(G, limits)


def check_membership_lemmas(
    LG: LabeledHypergraph, limits: OracleLimits | None = None
) -> MembershipReport:
    """Flag core nodes under the outside/interior premises and test them
    against U(|C|).

    A node v is interior when every edge containing v lies entirely inside
    the core.  The outside premise asks for an edge whose other members all
    lie outside the core; the interior premise for an edge whose other
    members are all interior.  The report records which flagged nodes are
    missing from the union of minimal hitting sets of size <= |C|, rather
    than asserting, so callers can inspect failures.
    """
    graph, core = LG.graph, LG.core
    interior = {
        v
        for v in core
        if all(set(graph.edges[i]) <= core for i in graph.incidence[v])
    }
    outside_flagged: set[int] = set()
    interior_flagged: set[int] = set()
    for edge in graph.edges:
        members = set(edge)
        for u in members & core:
            rest = members - {u}
            if not rest & core:
                outside_flagged.add(u)
            if rest <= interior:
                interior_flagged.add(u)
    union = union_minimal(graph, len(core), limits)
    flagged = outside_flagged | interior_flagged
    return MembershipReport(
        outside_nodes=frozenset(outside_flagged),
        interior_premise_nodes=frozenset(interior_flagged),
        union_at_core_size=union,
        violations=frozenset(flagged - union),
    )

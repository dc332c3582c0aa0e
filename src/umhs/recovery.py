"""The recovery pipeline: greedy maximal-matching hitting set, randomized
union of minimal hitting sets (UMHS), and the member-first node ranking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .baselines import Ranking
from .hypergraph import HittingSet, Hypergraph, is_hitting_set, node_set


@dataclass(frozen=True)
class UmhsConfig:
    """Union-of-minimal-hitting-sets settings.

    iterations is the number of randomized greedy+prune rounds.  The default
    leaves headroom over the ~50 rounds at which recovery typically levels
    off.  All randomness is derived from seed; record_trajectory keeps
    per-iteration union statistics for sweep plots.
    """

    iterations: int = 100
    seed: int = 0
    record_trajectory: bool = False

    def __post_init__(self) -> None:
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


@dataclass(frozen=True)
class UmhsResult:
    """The accumulated union S' and, optionally, its growth per iteration.

    trajectory entries are (union size, union-core overlap); the overlap
    slot is None when no core was supplied.  saturation_round is the last
    round whose minimal set added a node to the union (0 if none did).
    """

    union_set: HittingSet
    trajectory: tuple[tuple[int, int | None], ...] | None = None
    saturation_round: int = 0


def greedy_matching_certificate(
    G: Hypergraph, edge_order: Sequence[int]
) -> tuple[HittingSet, tuple[int, ...]]:
    """Greedy hitting set plus the indices of the edges it selected.

    Scans edges in edge_order; whenever an edge has no member in S yet, all
    its members join S.  The selected edges are pairwise disjoint and no
    edge avoids S, i.e. they form a maximal matching certifying
    |S| <= rank * k*.
    """
    order = [int(i) for i in edge_order]
    m = len(G.edges)
    visited = bytearray(m)
    for idx in order:
        if not 0 <= idx < m or visited[idx]:
            raise ValueError("edge_order must be a permutation of the edge indices")
        visited[idx] = 1
    if len(order) != m:
        raise ValueError("edge_order must be a permutation of the edge indices")

    in_s = bytearray(G.n)
    selected: list[int] = []
    for idx in order:
        edge = G.edges[idx]
        if not any(in_s[v] for v in edge):
            selected.append(idx)
            for v in edge:
                in_s[v] = 1
    result = frozenset(v for v in range(G.n) if in_s[v])
    if __debug__:
        assert is_hitting_set(G, result), "greedy output must hit every edge"
        taken: set[int] = set()
        for idx in selected:
            members = set(G.edges[idx])
            assert not taken & members, "selected edges must be pairwise disjoint"
            taken |= members
    return result, tuple(selected)


def greedy_matching(G: Hypergraph, edge_order: Sequence[int]) -> HittingSet:
    """Greedy maximal-matching hitting set over the given edge order."""
    return greedy_matching_certificate(G, edge_order)[0]


# Rounds per lockstep block: keeps each int32 permutation block near 1 MiB.
# Sizing by max(m, n) rather than m alone also bounds the node-permutation
# block.  On large instances a block still holds _MIN_BLOCK rounds, so that
# the per-position numpy overhead is shared; memory then grows linearly in
# max(m, n) by a few dozen bytes per edge.  Either way block * max(m, n)
# stays at most 2**31, which keeps every flat index below 2**31.
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK = 4
_FLAT_LIMIT = 1 << 31

# CSR slots gathered per chunk of positions in _steps; bounds the gather's
# temporaries to a few hundred KiB whatever the block size.
_CHUNK_SLOTS = 1 << 13


def _block_size(G: Hypergraph, iterations: int) -> int:
    size = max(len(G.edges), G.n, 1)
    block = max(_MIN_BLOCK, _BLOCK_BYTES // (4 * size))
    return max(1, min(iterations, block, _FLAT_LIMIT // size))


def _steps(indptr: np.ndarray, values: np.ndarray, perms: np.ndarray, width: int):
    """The CSR segments that B rounds visit at each position of perms.

    perms is a (T, B) array of segment keys, column b being round b's order.
    For each row t this yields (slots, heads, lens): slots concatenates the
    segments values[indptr[k]:indptr[k + 1]] of the keys k in perms[t], the
    one of round b shifted by b * width so that slots index a flattened
    (B, width) array; heads[b] is where round b's segment starts in slots
    and lens[b] its length.  Every segment must be non-empty.  The work is
    linear in the total length of the segments; rows are gathered a chunk
    at a time so that the temporaries stay small.
    """
    rounds = perms.shape[1]
    shift = np.arange(rounds, dtype=np.int32) * width
    mean_len = -(-int(indptr[-1]) // max(1, len(indptr) - 1))
    chunk = max(1, _CHUNK_SLOTS // (rounds * max(1, mean_len)))
    for lo in range(0, len(perms), chunk):
        keys = perms[lo:lo + chunk]
        starts = indptr[keys]
        lens = indptr[keys + 1] - starts
        ends = np.cumsum(lens).reshape(lens.shape)
        heads = ends - lens
        flat_lens = lens.reshape(-1)
        slots = values[
            np.arange(ends[-1, -1]) + np.repeat((starts - heads).reshape(-1), flat_lens)
        ]
        slots += np.repeat(np.tile(shift, len(keys)), flat_lens)
        begins, stops = heads[:, 0].tolist(), ends[:, -1].tolist()
        heads = heads - heads[:, :1]
        for t in range(len(keys)):
            yield slots[begins[t]:stops[t]], heads[t], lens[t]


def _edge_counts(G: Hypergraph, member: np.ndarray) -> np.ndarray:
    """(B, m) int32 hits of each row's set of the (B, n) member on each edge."""
    indptr, nodes = G.edge_csr
    counts = np.zeros((member.shape[0], len(G.edges)), dtype=np.int32)
    if len(G.edges):
        for row, out in zip(member, counts):
            np.add.reduceat(row[nodes], indptr[:-1], dtype=np.int32, out=out)
    return counts


def _greedy_rounds(G: Hypergraph, edge_perms: np.ndarray) -> np.ndarray:
    """Greedy sets of B rounds from their (m, B) edge permutations.

    At position t every round takes its t-th edge if the edge is unhit.
    Returns a (B, n) bool membership array.
    """
    member = np.zeros((edge_perms.shape[1], G.n), dtype=bool)
    member_flat = member.reshape(-1)
    indptr, nodes = G.edge_csr
    for slots, heads, lens in _steps(indptr, nodes, edge_perms, G.n):
        unhit = ~np.logical_or.reduceat(member_flat[slots], heads)
        member_flat[slots[np.repeat(unhit, lens)]] = True
    return member


def _prune_rounds(G: Hypergraph, member: np.ndarray, node_perms: np.ndarray) -> None:
    """Prune every row of member in place along its node order.

    node_perms is (k, B): column b lists round b's nodes that lie in some
    edge.  At position t every round drops its t-th node if it is a member
    and every edge containing it is hit at least twice.
    """
    counts = _edge_counts(G, member)
    counts_flat = counts.reshape(-1)
    member_flat = member.reshape(-1)
    row_n = np.arange(member.shape[0], dtype=np.int32) * G.n
    indptr, edge_ids = G.incidence_csr
    steps = _steps(indptr, edge_ids, node_perms, len(G.edges))
    for perm_row, (slots, heads, lens) in zip(node_perms, steps):
        nodes = row_n + perm_row
        drop = member_flat[nodes] & (np.minimum.reduceat(counts_flat[slots], heads) > 1)
        member_flat[nodes[drop]] = False
        counts_flat[slots[np.repeat(drop, lens)]] -= 1


def _check_rounds(G: Hypergraph, member: np.ndarray) -> None:
    """Assert that every row of member is a minimal hitting set of G."""
    counts = _edge_counts(G, member)
    assert (counts > 0).all(), "every round's set must hit every edge"
    indptr, edge_ids = G.incidence_csr
    covered = np.flatnonzero(np.diff(indptr))
    private = np.zeros(G.n, dtype=bool)
    for row, row_counts in zip(member, counts):
        if covered.size:
            private[covered] = np.logical_or.reduceat(
                row_counts[edge_ids] == 1, indptr[covered]
            )
        assert not (row & ~private).any(), "every member must privately cover an edge"


def _lockstep_rounds(G: Hypergraph, seed: int, lo: int, hi: int) -> np.ndarray:
    """The minimal hitting sets of rounds lo..hi-1, computed in lockstep.

    Row b of the returned (hi - lo, n) bool array is the set of round lo + b:
    prune_to_minimal(greedy_matching(G, edge_perm), node_perm filtered to
    the greedy set), with both permutations drawn from the round's own
    stream in that order.  Nodes in no edge never join a greedy set, so
    they are left out of the node orders.
    """
    n, m, rounds = G.n, len(G.edges), hi - lo
    covered = np.diff(G.incidence_csr[0]) > 0
    edge_perms = np.empty((m, rounds), dtype=np.int32)
    node_perms = np.empty((int(covered.sum()), rounds), dtype=np.int32)
    for b in range(rounds):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(lo + b,))
        )
        edge_perms[:, b] = rng.permutation(m)
        node_perm = rng.permutation(n)
        node_perms[:, b] = node_perm[covered[node_perm]]
    member = _greedy_rounds(G, edge_perms)
    del edge_perms
    _prune_rounds(G, member, node_perms)
    if __debug__:
        _check_rounds(G, member)
    return member


def umhs(
    G: Hypergraph,
    cfg: UmhsConfig,
    core: Iterable[int] | None = None,
) -> UmhsResult:
    """Union of minimal hitting sets from randomized greedy rounds.

    Round i draws its edge and node permutations from a stream keyed by
    (cfg.seed, i), so the result is identical however the rounds are
    scheduled; the union itself is commutative.  Each round's greedy output
    is pruned to a minimal hitting set before joining the union.

    Rounds run in lockstep blocks over the hypergraph's CSR views: one
    pass over edge positions runs every round's greedy step, one pass over
    node positions every round's prune, and one vectorized check (skipped
    under ``python -O``) confirms each set is a minimal hitting set.  Each
    round's work is linear in the total edge size, however unevenly the
    degrees and edge sizes are spread.  The block size is derived from the
    instance so that a block's permutations take about 1 MiB, but a block
    holds at least four rounds when that many are asked for.
    :func:`greedy_matching_certificate` and
    :func:`~umhs.hypergraph.prune_to_minimal` remain the single-round
    reference that these rounds reproduce exactly.

    Raises:
        ValueError: if a core member lies outside 0..n-1.
    """
    n = G.n
    core_mask = np.zeros(n, dtype=bool)
    if core is not None:
        core_mask[list(node_set(n, core))] = True
    union = np.zeros(n, dtype=bool)
    sizes: list[int] = []
    overlaps: list[int] = []
    saturation = 0
    block = _block_size(G, cfg.iterations)
    for lo in range(1, cfg.iterations + 1, block):
        rows = _lockstep_rounds(G, cfg.seed, lo, min(lo + block, cfg.iterations + 1))
        running = np.logical_or.accumulate(rows, axis=0) | union
        size = running.sum(axis=1)
        grew = np.flatnonzero(np.diff(size, prepend=union.sum()))
        if grew.size:
            saturation = lo + int(grew[-1])
        sizes += size.tolist()
        overlaps += running[:, core_mask].sum(axis=1).tolist()
        union = running[-1]
    trajectory = None
    if cfg.record_trajectory:
        trajectory = tuple(
            (size, overlap if core is not None else None)
            for size, overlap in zip(sizes, overlaps)
        )
    return UmhsResult(
        union_set=frozenset(np.flatnonzero(union).tolist()),
        trajectory=trajectory,
        saturation_round=saturation,
    )


def rank_nodes(G: Hypergraph, members: Iterable[int]) -> Ranking:
    """Rank members of a recovered set ahead of everyone else.

    Within both blocks the order is degree descending with index tie-break.
    Scores encode (block, degree) on a single scale so that any top-k cut of
    the scores reproduces the order.
    """
    s = node_set(G.n, members, "members")
    deg = G.degrees()
    span = max(deg, default=0) + 1
    scores = [(2 if v in s else 1) * span + deg[v] for v in range(G.n)]
    return Ranking.from_scores(scores, note="members first, degree within blocks")

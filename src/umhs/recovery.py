"""The recovery pipeline: greedy maximal-matching hitting set, randomized
union of minimal hitting sets (UMHS), and the member-first node ranking."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

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
class RoundSizes:
    """Per-round counters of a UMHS run; entry i - 1 belongs to round i.

    matching counts the edges round i's greedy pass took (the maximal
    matching that certifies its set), greedy is the size of that greedy
    hitting set, pruned the size of the minimal set the prune left, and new
    the number of its members that no earlier round's set held.
    """

    matching: tuple[int, ...] = ()
    greedy: tuple[int, ...] = ()
    pruned: tuple[int, ...] = ()
    new: tuple[int, ...] = ()


@dataclass(frozen=True)
class UmhsResult:
    """The accumulated union S' and, optionally, its growth per iteration.

    trajectory entries are (union size, union-core overlap); the overlap
    slot is None when no core was supplied.  saturation_round is the last
    round whose minimal set added a node to the union (0 if none did).
    rounds holds every round's matching, greedy, pruned and new sizes.
    """

    union_set: HittingSet
    trajectory: tuple[tuple[int, int | None], ...] | None = None
    saturation_round: int = 0
    rounds: RoundSizes = RoundSizes()


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


# Rounds per lockstep block: keeps each int32 permutation block near 1 MiB.
# Sizing by max(m, n) rather than m alone also bounds the node-permutation
# block.  On large instances a block still holds _MIN_BLOCK rounds, so that
# the per-pass numpy overhead is shared; memory then grows linearly in
# max(m, n) by a few dozen bytes per edge.  Either way block * max(m, n)
# stays at most 2**31, which keeps every flat index below 2**31.
_BLOCK_BYTES = 1 << 20
_MIN_BLOCK = 4
_FLAT_LIMIT = 1 << 31

# CSR slots per window of the in-order scans, and first members per window
# of the greedy's pre-filter; bounds the gathers' temporaries to a few
# hundred KiB whatever the block size.
_CHUNK_SLOTS = 1 << 13


def _block_size(G: Hypergraph, iterations: int) -> int:
    size = max(len(G.edges), G.n, 1)
    block = max(_MIN_BLOCK, _BLOCK_BYTES // (4 * size))
    return max(1, min(iterations, block, _FLAT_LIMIT // size))


def _edge_counts(G: Hypergraph, member: np.ndarray) -> np.ndarray:
    """(B, m) int32 hits of each row's set of the (B, n) member on each edge.

    Summed over member positions, every round at once: step j adds the j-th
    member of each edge that has one.  A step that covers every edge adds
    in place (a fancy index of all m columns would copy them out and back);
    a later one gathers only the edges long enough, so one long edge costs
    no full pass per member, and copies their columns out and back a few
    hundred at a time, so the copies stay near _CHUNK_SLOTS int32 per round
    whatever the block size.
    """
    indptr, nodes = G.edge_csr
    counts = np.zeros((member.shape[0], len(G.edges)), dtype=np.int32)
    starts, sizes = indptr[:-1], np.diff(indptr)
    r_min = int(sizes.min(initial=G.rank))
    span = max(1, _CHUNK_SLOTS // member.shape[0])
    for j in range(G.rank):
        if j < r_min:
            counts += member[:, nodes[starts + j]]
            continue
        live = np.flatnonzero(sizes > j)
        for lo in range(0, len(live), span):
            cols = live[lo:lo + span]
            counts[:, cols] += member[:, nodes[starts[cols] + j]]
    return counts


def _in_order(
    indptr: np.ndarray,
    values: np.ndarray,
    perms: np.ndarray,
    pairs: np.ndarray,
    scratch: np.ndarray,
    settled: Callable[[np.ndarray, np.ndarray], np.ndarray],
    act: Callable[[np.ndarray, np.ndarray], None],
) -> int:
    """Run one window of B sequential scans, deciding every step as the
    scans would in turn, in a few whole-array passes; returns the number of
    passes.

    Column b of the (T, B) perms is round b's scan order, and its step t
    visits the key k = perms[t, b], whose resources are the non-empty CSR
    segment values[indptr[k]:indptr[k + 1]], shifted by b * width so that
    no two rounds share one; width is len(scratch) // B.  pairs are the
    ascending flat indices t * B + b of the window's steps, and every
    earlier step of their rounds must be decided.  Each pass drops the
    pairs that settled(slots, heads) marks, those whose step changes
    nothing now or later, then applies act(pairs, slots) to the ready pairs
    at once: a pair is ready when its position is the smallest of its
    round's remaining pairs at every one of its resources.  Ready pairs
    share no resource, so each sees the state its own turn would.  Every
    round's first remaining pair is ready, so a window takes at most as
    many passes as it holds positions.  This is the prefix form of
    Blelloch, Fineman and Shun, "Greedy sequential maximal independent set
    and matching are parallel on average" (SPAA 2012).

    slots concatenates the pairs' shifted resources, pair i's from
    heads[i].  The positions are written with np.minimum.at into scratch,
    one int32 per resource, whose values are back before each act.  A
    resource whose value exceeds the most pairs any round has in the window
    orders none of them: the prune keeps its hit counts there, and since
    each drop lowers a count by one, such an edge holds a second member at
    the turn of every member of the window, in any order.
    """
    rounds = perms.shape[1]
    width = len(scratch) // rounds
    # int32 positions keep np.minimum.at on its fast path
    pairs = pairs.astype(np.int32)
    keys = perms.reshape(-1)[pairs]
    starts = indptr[keys]
    lens = indptr[keys + 1] - starts
    ends = np.cumsum(lens)
    heads = ends - lens
    slots = np.repeat(starts - heads, lens)
    slots += np.arange(len(slots))
    slots = values[slots]
    slots += np.repeat(pairs % rounds * width, lens)
    limit = np.bincount(pairs % rounds).max()
    done = settled(slots, heads)
    passes = 0
    while not done.all():
        slots = slots[np.repeat(~done, lens)]
        pairs, lens = pairs[~done], lens[~done]
        heads = np.cumsum(lens) - lens
        at = np.repeat(pairs, lens)
        saved = scratch[slots]
        scratch[slots] = np.iinfo(np.int32).max
        np.minimum.at(scratch, slots, at)
        first = (scratch[slots] == at) | (saved > limit)
        scratch[slots] = saved
        ready = np.logical_and.reduceat(first, heads)
        act(pairs[ready], slots[np.repeat(ready, lens)])
        done = ready | settled(slots, heads)
        passes += 1
    return passes


def _greedy_rounds(
    G: Hypergraph, edge_perms: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy sets of B rounds from their (m, B) edge permutations.

    Round b's scan, column b, takes each edge that has no member yet: an
    _in_order scan whose resources are an edge's members and whose settled
    pairs are the edges already hit, which stay hit.  The scan goes in
    windows of positions, and at each window's start one gather tests the
    first r_min members of every round's edge there, r_min being the
    smallest edge size; only the pairs it leaves unhit enter _in_order.
    Returns the (B, n) bool membership array and the (B,) number of edges
    each round took.
    """
    m, rounds = edge_perms.shape
    member = np.zeros((rounds, G.n), dtype=bool)
    member_flat = member.reshape(-1)
    matched = np.zeros(rounds, dtype=np.int64)
    if not m:
        return member, matched
    indptr, nodes = G.edge_csr
    r_min = int(np.diff(indptr).min())
    # heads[j, e] is the j-th member of edge e, for every j < r_min
    heads = nodes[indptr[:-1] + np.arange(r_min)[:, None]]
    shift = np.arange(rounds, dtype=np.int32) * G.n
    scratch = np.zeros(rounds * G.n, dtype=np.int32)

    def hit(slots: np.ndarray, starts: np.ndarray) -> np.ndarray:
        return np.logical_or.reduceat(member_flat[slots], starts)

    def take(pairs: np.ndarray, slots: np.ndarray) -> None:
        member_flat[slots] = True
        np.add.at(matched, pairs % rounds, 1)

    window = max(1, _CHUNK_SLOTS // (rounds * r_min))
    for lo in range(0, m, window):
        keys = edge_perms[lo:lo + window]
        firsts = np.take(heads, keys, axis=1)
        firsts += shift
        live = np.flatnonzero(~np.take(member_flat, firsts).any(axis=0))
        if len(live):
            _in_order(indptr, nodes, edge_perms, live + lo * rounds, scratch, hit, take)
    return member, matched


def _pack_rounds(rows: np.ndarray) -> np.ndarray:
    """np.packbits(rows, axis=0) of a (B, k) bool array: the B rounds eight
    to a byte, as eight shifted ORs of every eighth row.  numpy packs along
    a leading axis several times slower."""
    packed = np.zeros((-(-len(rows) // 8), rows.shape[1]), dtype=np.uint8)
    for bit in range(8):
        part = rows[bit::8].view(np.uint8)
        packed[:len(part)] |= part << (7 - bit)
    return packed


def _reduce_segments(
    ufunc: np.ufunc, bits: np.ndarray, indptr: np.ndarray, indices: np.ndarray
) -> np.ndarray:
    """ufunc (bitwise or/and) over each CSR segment of packed bit columns.

    bits is a (R, k) uint8 array, B rounds packed eight to a byte along axis
    0 (_pack_rounds).  Column s of the (R, len(indptr) - 1) result reduces the
    columns indices[indptr[s]:indptr[s + 1]] of bits; an empty segment reads
    0.  The gather moves R = ceil(B / 8) bytes per slot.
    """
    out = np.zeros((len(bits), len(indptr) - 1), dtype=np.uint8)
    nonempty = np.flatnonzero(np.diff(indptr))
    if nonempty.size:
        out[:, nonempty] = ufunc.reduceat(
            np.take(bits, indices, axis=1), indptr[nonempty], axis=1
        )
    return out


def _lone_members(G: Hypergraph, counts: np.ndarray) -> np.ndarray:
    """Packed (ceil(B / 8), n) bits: node v's bit of round b is set if some
    edge at v holds exactly one member of round b's set, counts being the
    (B, m) hits of _edge_counts.  A member with its bit set privately covers
    that edge."""
    return _reduce_segments(np.bitwise_or, _pack_rounds(counts == 1), *G.incidence_csr)


def _settle_rounds(
    G: Hypergraph, member: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The (B, n) bool (keep, drop) masks of the members of every row of
    member whose fate no removal order can change, counts being its (B, m)
    hits.

    A keeper is the only member of some edge: counts only fall, so it never
    drops.  Call an edge held if it contains a keeper; a non-keeper member
    whose edges are all held always drops, since at its turn each of its
    edges still holds the keeper and the member itself.  All three steps
    work on the rounds packed eight to a byte.
    """
    members = _pack_rounds(member)
    keep = members & _lone_members(G, counts)
    held = _reduce_segments(np.bitwise_or, keep, *G.edge_csr)
    drop = members & ~keep & _reduce_segments(np.bitwise_and, held, *G.incidence_csr)
    rows = len(member)
    return (
        np.unpackbits(keep, axis=0, count=rows).view(bool),
        np.unpackbits(drop, axis=0, count=rows).view(bool),
    )


def _prune_rounds(G: Hypergraph, member: np.ndarray, node_perms: np.ndarray) -> None:
    """Prune every row of member in place along its node order.

    node_perms is (T, B): column b lists round b's greedy members in its
    removal order, possibly mixed with nodes that lie in some edge but are
    no members.  At its turn a member drops if every edge containing it
    holds another member.  The settle (_settle_rounds) first decides every
    member that any order keeps or drops, and its drops go at once: they
    lie only in held edges, where every present member's count stays at
    least 2, so they change no undecided member's test, and the scan may
    use the counts from before the settle, stale only on held edges.  The
    undecided members alone then go through _in_order, in windows of about
    _CHUNK_SLOTS incidence slots, with their edges as resources and the hit
    counts as scratch: a member alone in some edge is settled (kept), and a
    ready member that is not drops.
    """
    counts = _edge_counts(G, member)
    keep, drop = _settle_rounds(G, member, counts)
    member &= ~drop
    undecided = member & ~keep
    if not undecided.any():
        return
    rounds = len(member)
    pairs = np.flatnonzero(undecided[np.arange(rounds), node_perms])
    indptr, edge_ids = G.incidence_csr
    counts_flat = counts.reshape(-1)
    member_flat = member.reshape(-1)
    keys = node_perms.reshape(-1)

    def alone(slots: np.ndarray, heads: np.ndarray) -> np.ndarray:
        return np.minimum.reduceat(counts_flat[slots], heads) == 1

    def remove(ready: np.ndarray, slots: np.ndarray) -> None:
        member_flat[ready % rounds * G.n + keys[ready]] = False
        # an int32 one keeps ufunc.at on its fast path
        np.subtract.at(counts_flat, slots, np.int32(1))

    window = np.cumsum(np.diff(indptr)[keys[pairs]]) // _CHUNK_SLOTS
    for part in np.split(pairs, np.flatnonzero(np.diff(window)) + 1):
        _in_order(indptr, edge_ids, node_perms, part, counts_flat, alone, remove)


def _check_rounds(G: Hypergraph, member: np.ndarray) -> None:
    """Assert that every row of member is a minimal hitting set of G."""
    counts = _edge_counts(G, member)
    assert (counts > 0).all(), "every round's set must hit every edge"
    lone = _lone_members(G, counts)
    assert not (_pack_rounds(member) & ~lone).any(), (
        "every member must privately cover an edge"
    )


def _lockstep_rounds(
    G: Hypergraph, seed: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """The minimal hitting sets of rounds lo..hi-1, computed in lockstep.

    Row b of the returned (hi - lo, n) bool array is the set of round lo + b:
    prune_to_minimal(greedy_matching_certificate(G, edge_perm)[0],
    node_perm filtered to the greedy set), with both permutations drawn from
    the round's own stream in that order.  Nodes in no edge never join a
    greedy set, so they are left out of the node orders.  The greedy pass
    (_greedy_rounds) and the prune (_prune_rounds) each scan all rounds at
    once through _in_order, and _check_rounds (skipped under ``python -O``)
    asserts that every set is a minimal hitting set.
    Row b of the returned (hi - lo, 3) int array holds that round's
    matching, greedy and pruned sizes.
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
    member, matched = _greedy_rounds(G, edge_perms)
    del edge_perms
    greedy = member.sum(axis=1)
    _prune_rounds(G, member, node_perms)
    if __debug__:
        _check_rounds(G, member)
    return member, np.stack([matched, greedy, member.sum(axis=1)], axis=1)


def umhs(
    G: Hypergraph,
    cfg: UmhsConfig,
    core: Iterable[int] | None = None,
) -> UmhsResult:
    """Union of minimal hitting sets from randomized greedy rounds.

    Round i draws its edge and node permutations from a stream keyed by
    (cfg.seed, i), so the result is identical however the rounds are
    scheduled; the union itself is commutative.  Each round's greedy set is
    pruned to a minimal hitting set before joining the union.

    The rounds run in lockstep blocks (_lockstep_rounds) of a size derived
    from the instance (_BLOCK_BYTES).  Every round's set equals the
    single-round reference, greedy_matching_certificate over its edge order
    and then prune_to_minimal over its node order.

    Raises:
        ValueError: if a core member lies outside 0..n-1.
    """
    n = G.n
    core_mask = np.zeros(n, dtype=bool)
    if core is not None:
        core_mask[list(node_set(n, core))] = True
    union = np.zeros(n, dtype=bool)
    counts: list[np.ndarray] = []
    sizes: list[int] = []
    overlaps: list[int] = []
    block = _block_size(G, cfg.iterations)
    for lo in range(1, cfg.iterations + 1, block):
        rows, row_counts = _lockstep_rounds(
            G, cfg.seed, lo, min(lo + block, cfg.iterations + 1)
        )
        counts.append(row_counts)
        running = np.logical_or.accumulate(rows, axis=0) | union
        sizes += running.sum(axis=1).tolist()
        overlaps += running[:, core_mask].sum(axis=1).tolist()
        union = running[-1]
    new = np.diff(sizes, prepend=0)
    grew = np.flatnonzero(new)
    trajectory = None
    if cfg.record_trajectory:
        trajectory = tuple(
            (size, overlap if core is not None else None)
            for size, overlap in zip(sizes, overlaps)
        )
    table = np.vstack([*np.concatenate(counts).T, new])
    return UmhsResult(
        union_set=frozenset(np.flatnonzero(union).tolist()),
        trajectory=trajectory,
        saturation_round=int(grew[-1]) + 1 if grew.size else 0,
        rounds=RoundSizes(*map(tuple, table.tolist())),
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

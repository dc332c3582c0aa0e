"""Tests for greedy matching, the UMHS union loop, and member-first ranking."""

import itertools
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from umhs import (
    Hypergraph,
    OracleLimits,
    RoundSizes,
    SbmParams,
    UmhsConfig,
    canonicalize,
    greedy_matching_certificate,
    is_hitting_set,
    is_minimal_hitting_set,
    min_hitting_set_size,
    prune_to_minimal,
    random_hypergraph,
    rank_nodes,
    sbm_hypergraph,
    umhs,
    union_minimal,
)
from umhs import recovery

LIMITS = OracleLimits(max_nodes=26, max_k=12, time_budget=60.0)


def overlapping_triples():
    return canonicalize(5, [[0, 1, 2], [2, 3, 4]])


class TestGreedyMatching:
    def test_first_edge_blocks_second(self):
        s, _ = greedy_matching_certificate(overlapping_triples(), [0, 1])
        assert s == {0, 1, 2}

    def test_reversed_order(self):
        s, _ = greedy_matching_certificate(overlapping_triples(), [1, 0])
        assert s == {2, 3, 4}

    def test_disjoint_edges_take_everything(self):
        G = canonicalize(6, [[0, 1, 2], [3, 4, 5]])
        for order in itertools.permutations(range(2)):
            assert greedy_matching_certificate(G, order)[0] == set(range(6))

    def test_empty_graph(self):
        assert greedy_matching_certificate(canonicalize(4, []), [])[0] == frozenset()

    def test_certificate_edges_disjoint_and_maximal(self):
        G = random_hypergraph(12, 4, 14, seed=2)
        s, selected = greedy_matching_certificate(G, range(14))
        assert is_hitting_set(G, s)
        used = set()
        for idx in selected:
            members = set(G.edges[idx])
            assert not used & members
            used |= members
        assert used == s

    def test_order_must_be_permutation(self):
        G = overlapping_triples()
        with pytest.raises(ValueError, match="permutation"):
            greedy_matching_certificate(G, [0, 0])
        with pytest.raises(ValueError, match="permutation"):
            greedy_matching_certificate(G, [0])

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=60, deadline=None)
    def test_output_hits_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 16))
        m = int(rng.integers(1, 14))
        try:
            G = random_hypergraph(n, 4, m, seed=seed)
        except ValueError:
            return
        order = rng.permutation(len(G.edges))
        assert is_hitting_set(G, greedy_matching_certificate(G, order)[0])

    def test_size_bounded_by_rank_times_optimum(self):
        for seed in range(10):
            G = random_hypergraph(10, 3, 8, seed=seed)
            k_star = min_hitting_set_size(G, LIMITS)
            s = greedy_matching_certificate(G, range(len(G.edges)))[0]
            assert len(s) <= G.rank * k_star


class TestUmhs:
    def test_single_iteration_matches_manual_streams(self):
        # iteration i draws from SeedSequence(entropy=seed, spawn_key=(i,)):
        # first the edge permutation, then the node permutation
        G = random_hypergraph(10, 3, 9, seed=6)
        cfg = UmhsConfig(iterations=1, seed=42)
        rng = np.random.default_rng(np.random.SeedSequence(entropy=42, spawn_key=(1,)))
        hit = greedy_matching_certificate(G, rng.permutation(len(G.edges)))[0]
        removal = [v for v in rng.permutation(G.n).tolist() if v in hit]
        assert umhs(G, cfg).union_set == prune_to_minimal(G, hit, removal)

    def test_single_iteration_output_is_minimal(self):
        G = random_hypergraph(11, 3, 10, seed=1)
        out = umhs(G, UmhsConfig(iterations=1, seed=0)).union_set
        assert is_minimal_hitting_set(G, out)

    def test_path_graph_union_is_the_reachable_part(self):
        # greedy on {{0,1},{1,2}} always selects exactly one edge, and
        # pruning a full edge through the shared node leaves {1}; the other
        # minimal hitting set {0,2} can never appear in a pruned greedy run,
        # so the union stays strictly inside U(2) = {0,1,2}
        G = canonicalize(3, [[0, 1], [1, 2]])
        out = umhs(G, UmhsConfig(iterations=200, seed=0)).union_set
        assert out == {1}
        assert out < union_minimal(G, 2, LIMITS) == {0, 1, 2}

    def test_single_edge_union_covers_all_singletons(self):
        G = canonicalize(3, [[0, 1, 2]])
        out = umhs(G, UmhsConfig(iterations=50, seed=1)).union_set
        assert out == {0, 1, 2}

    def test_deterministic(self):
        G = random_hypergraph(14, 3, 16, seed=3)
        cfg = UmhsConfig(iterations=20, seed=7)
        assert umhs(G, cfg) == umhs(G, cfg)

    def test_trajectory_deterministic(self):
        G = random_hypergraph(10, 3, 10, seed=7)
        core = umhs(G, UmhsConfig(iterations=1, seed=8)).union_set
        cfg = UmhsConfig(iterations=10, seed=4, record_trajectory=True)
        assert umhs(G, cfg, core=core) == umhs(G, cfg, core=core)

    def test_single_round_trajectory_holds_its_own_union(self):
        G = random_hypergraph(10, 3, 9, seed=2)
        core = umhs(G, UmhsConfig(iterations=1, seed=0)).union_set
        cfg = UmhsConfig(iterations=1, seed=0, record_trajectory=True)
        assert umhs(G, cfg, core=core).trajectory == ((len(core), len(core)),)

    def test_union_grows_with_iterations(self):
        G = random_hypergraph(14, 3, 16, seed=3)
        small = umhs(G, UmhsConfig(iterations=3, seed=5)).union_set
        large = umhs(G, UmhsConfig(iterations=30, seed=5)).union_set
        assert small <= large

    def test_union_within_oracle_union(self):
        # every constituent is minimal, so the union lies inside U(k_max)
        G = random_hypergraph(10, 3, 9, seed=12)
        result = umhs(G, UmhsConfig(iterations=40, seed=0, record_trajectory=True))
        sizes = []
        for iteration in range(1, 41):
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=0, spawn_key=(iteration,))
            )
            hit = greedy_matching_certificate(G, rng.permutation(len(G.edges)))[0]
            removal = [v for v in rng.permutation(G.n).tolist() if v in hit]
            sizes.append(len(prune_to_minimal(G, hit, removal)))
        assert result.union_set <= union_minimal(G, max(sizes), LIMITS)

    def test_recovers_any_reachable_minimal_set(self):
        # a minimal set observed in one seeded run must reappear in the
        # union of a long run under a different seed
        for seed in range(5):
            G = random_hypergraph(9, 3, 7, seed=seed + 20)
            planted = umhs(G, UmhsConfig(iterations=1, seed=seed + 900)).union_set
            assert is_minimal_hitting_set(G, planted)
            out = umhs(G, UmhsConfig(iterations=500, seed=seed)).union_set
            assert planted <= out, f"seed {seed}: planted {sorted(planted)} not recovered"

    def test_trajectory_monotone_with_overlap(self):
        G = random_hypergraph(12, 3, 12, seed=9)
        core = prune_to_minimal(G, range(12), list(range(12)))
        result = umhs(G, UmhsConfig(iterations=25, seed=2, record_trajectory=True), core=core)
        assert result.trajectory is not None
        assert len(result.trajectory) == 25
        sizes = [size for size, _ in result.trajectory]
        assert sizes == sorted(sizes)
        overlaps = [ov for _, ov in result.trajectory]
        assert all(ov is not None for ov in overlaps)
        assert overlaps == sorted(overlaps)

    def test_core_outside_node_range_rejected(self):
        # a core member that is no node must not be dropped silently: it
        # would shrink the denominator of every recovered fraction
        G = random_hypergraph(10, 3, 9, seed=2)
        with pytest.raises(ValueError, match=r"core members outside node range: \[-1, 10\]"):
            umhs(G, UmhsConfig(iterations=2), core=[0, 10, -1])

    def test_saturation_round_is_last_growth(self):
        G = random_hypergraph(12, 3, 12, seed=9)
        result = umhs(G, UmhsConfig(iterations=25, seed=2, record_trajectory=True))
        sizes = [0] + [size for size, _ in result.trajectory]
        grew = [i for i in range(1, 26) if sizes[i] > sizes[i - 1]]
        assert result.saturation_round == grew[-1]
        path = canonicalize(3, [[0, 1], [1, 2]])
        assert umhs(path, UmhsConfig(iterations=20, seed=0)).saturation_round == 1
        assert umhs(canonicalize(3, []), UmhsConfig(iterations=5)).saturation_round == 0

    def test_trajectory_overlap_none_without_core(self):
        G = random_hypergraph(8, 3, 6, seed=4)
        result = umhs(G, UmhsConfig(iterations=4, seed=0, record_trajectory=True))
        assert all(ov is None for _, ov in result.trajectory)

    def test_no_trajectory_by_default(self):
        G = random_hypergraph(8, 3, 6, seed=4)
        assert umhs(G, UmhsConfig(iterations=2, seed=0)).trajectory is None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            UmhsConfig(iterations=0)
        with pytest.raises(ValueError):
            UmhsConfig(seed=-1)


def reference_round(G, seed, i):
    """Round i of UMHS through the single-round reference functions: its
    minimal set and its (matching, greedy, pruned) sizes."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
    hit, selected = greedy_matching_certificate(G, rng.permutation(len(G.edges)))
    removal = [v for v in rng.permutation(G.n).tolist() if v in hit]
    minimal = prune_to_minimal(G, hit, removal)
    return minimal, (len(selected), len(hit), len(minimal))


def reference_umhs(G, iterations, seed, core):
    """(union, trajectory, saturation round, round sizes with the new members
    of each round) from a round-by-round loop."""
    union, trajectory, saturation, sizes = set(), [], 0, []
    for i in range(1, iterations + 1):
        minimal, round_sizes = reference_round(G, seed, i)
        if not minimal <= union:
            saturation = i
        round_sizes += (len(minimal - union),)
        union |= minimal
        trajectory.append((len(union), len(union & core)))
        sizes.append(round_sizes)
    rounds = RoundSizes(*(tuple(column) for column in zip(*sizes)))
    return union, tuple(trajectory), saturation, rounds


def prune_inputs(G, seed, lo, hi):
    """The greedy membership and the node block that _lockstep_rounds hands
    its prune for rounds lo..hi-1, as they were before the prune."""
    seen = []
    prune = recovery._prune_rounds

    def record(G, member, node_perms):
        seen.append((member.copy(), node_perms))
        prune(G, member, node_perms)

    with mock.patch.object(recovery, "_prune_rounds", record):
        recovery._lockstep_rounds(G, seed, lo, hi)
    return seen[0]


def settle_reference(G, hit):
    """(keep, drop) of the prune's settle for one greedy set, member by
    member: the members alone in some edge, and the other members whose
    every edge holds one of those."""
    keep = {v for e in G.edges if len(hit.intersection(e)) == 1 for v in e if v in hit}
    drop = {
        v for v in hit - keep
        if all(keep.intersection(G.edges[i]) for i in G.incidence[v])
    }
    return keep, drop


def scans(G, fn, *args):
    """fn(*args) and the _in_order windows it ran, split into the greedy's
    and the prune's: for each window the pairs it was given, the slots they
    hold, the most pairs of one round and the passes it took."""
    windows = {"greedy": [], "prune": []}
    scan = recovery._in_order

    def spy(indptr, values, perms, pairs, *rest):
        passes = scan(indptr, values, perms, pairs, *rest)
        keys = perms.reshape(-1)[pairs]
        windows["greedy" if values is G.edge_csr[1] else "prune"].append(SimpleNamespace(
            pairs=len(pairs),
            slots=int(np.diff(indptr)[keys].sum()),
            per_round=int(np.bincount(pairs % perms.shape[1]).max()),
            passes=passes,
        ))
        return passes

    with mock.patch.object(recovery, "_in_order", spy):
        out = fn(*args)
    return windows, out


@st.composite
def mixed_hypergraphs(draw, max_n=10, max_edges=14):
    """Edges of sizes 1-4 and isolated nodes, including m = 0 and n = 0."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    if n == 0:
        return Hypergraph(n=0, edges=())
    nodes = st.integers(min_value=0, max_value=n - 1)
    edges = draw(
        st.sets(
            st.frozensets(nodes, min_size=1, max_size=min(4, n)), max_size=max_edges
        )
    )
    return Hypergraph(n=n, edges=tuple(sorted(tuple(sorted(e)) for e in edges)))


def star(leaves):
    """A hub node 0 in every edge {0, v}."""
    return Hypergraph(n=leaves + 1, edges=tuple((0, v) for v in range(1, leaves + 1)))


def huge_edge_plus_pairs(size, pairs):
    """One edge over nodes 0..size-1, and pairs that tie it to new nodes."""
    edges = [tuple(range(size))] + [(v % size, size + v) for v in range(pairs)]
    return Hypergraph(n=size + pairs, edges=tuple(sorted(edges)))


def windowed_hypergraphs():
    """Graphs with enough edges for many scan windows, besides the small
    mixed ones: a hub in every edge, and one huge edge among pairs."""
    return st.one_of(
        mixed_hypergraphs(),
        mixed_hypergraphs(max_n=30, max_edges=90),
        st.builds(star, st.integers(min_value=1, max_value=80)),
        st.builds(
            huge_edge_plus_pairs,
            st.integers(min_value=2, max_value=60),
            st.integers(min_value=0, max_value=60),
        ),
    )


# Slots per window of the in-order scans: 1 gives greedy windows of one
# position and prune windows of one member, 8192 (the default) often one
# window for the whole block.
CHUNK_SLOTS = st.sampled_from([1, 7, 64, recovery._CHUNK_SLOTS])


class TestLockstepRounds:
    @given(
        windowed_hypergraphs(),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=50),
        st.lists(st.integers(min_value=1, max_value=7), min_size=1, max_size=4),
        CHUNK_SLOTS,
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_match_reference_rounds(self, G, seed, lo, block_sizes, slots):
        # the rounds lo.. split into consecutive blocks of the drawn sizes
        bounds = np.cumsum([lo] + block_sizes).tolist()
        with mock.patch.object(recovery, "_CHUNK_SLOTS", slots):
            blocks = [
                recovery._lockstep_rounds(G, seed, start, stop)
                for start, stop in zip(bounds, bounds[1:])
            ]
        rows = np.concatenate([rows for rows, _ in blocks])
        sizes = np.concatenate([sizes for _, sizes in blocks])
        assert rows.shape == (bounds[-1] - lo, G.n)
        assert sizes.shape == (bounds[-1] - lo, 3)
        for b, i in enumerate(range(lo, bounds[-1])):
            minimal, round_sizes = reference_round(G, seed, i)
            assert frozenset(np.flatnonzero(rows[b]).tolist()) == minimal, f"round {i}"
            assert tuple(sizes[b].tolist()) == round_sizes, f"round {i}"

    @given(
        windowed_hypergraphs(),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=30),
        st.integers(min_value=1, max_value=8),
        CHUNK_SLOTS,
    )
    @settings(max_examples=80, deadline=None)
    def test_union_and_trajectory_match_reference(self, G, seed, iterations, block, slots):
        core = frozenset(range(0, G.n, 2))
        cfg = UmhsConfig(iterations=iterations, seed=seed, record_trajectory=True)
        with mock.patch.object(recovery, "_block_size", lambda G, it: block), \
                mock.patch.object(recovery, "_CHUNK_SLOTS", slots):
            result = umhs(G, cfg, core=core)
        union, trajectory, saturation, rounds = reference_umhs(G, iterations, seed, core)
        assert result.union_set == union
        assert result.trajectory == trajectory
        assert result.saturation_round == saturation
        assert result.rounds == rounds

    @given(
        windowed_hypergraphs(),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=8),
        CHUNK_SLOTS,
    )
    @settings(max_examples=100, deadline=None)
    def test_greedy_rows_match_certificate(self, G, seed, rounds, slots):
        # the greedy pass alone, before any prune, round by round
        m = len(G.edges)
        edge_perms = np.empty((m, rounds), dtype=np.int32)
        for b in range(rounds):
            rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
            edge_perms[:, b] = rng.permutation(m)
        with mock.patch.object(recovery, "_CHUNK_SLOTS", slots):
            windows, (member, matched) = scans(G, recovery._greedy_rounds, G, edge_perms)
        for b in range(rounds):
            hit, selected = greedy_matching_certificate(G, edge_perms[:, b])
            assert frozenset(np.flatnonzero(member[b]).tolist()) == hit, f"round {b}"
            assert matched[b] == len(selected), f"round {b}"
        # every pass takes the first remaining edge of some round, so a
        # window takes at most as many passes as one round has pairs in it,
        # and the block at most as many as its rounds take edges
        for window in windows["greedy"]:
            assert window.passes <= window.per_round
        assert sum(window.passes for window in windows["greedy"]) <= int(matched.sum())

    @given(
        windowed_hypergraphs(),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_edge_counts_match_per_edge_sums(self, G, seed, rounds):
        # uniform graphs take only in-place steps; the mixed and huge-edge
        # graphs also take the steps that gather only the edges long enough
        member = np.random.default_rng(seed).random((rounds, G.n)) < 0.5
        counts = recovery._edge_counts(G, member)
        assert counts.dtype == np.int32
        assert counts.shape == (rounds, len(G.edges))
        assert counts.tolist() == [
            [int(member[b, list(e)].sum()) for e in G.edges] for b in range(rounds)
        ]

    def test_prefilter_leaves_few_greedy_pairs(self):
        # recover's second bench instance at seed 1: of the 259,400
        # (position, round) pairs of its one 100-round block, the first-member
        # pre-filter sends 4,994 to the in-order scan, which decides them in
        # 26 passes over 19 of the 97 windows
        G = sbm_hypergraph(SbmParams(40, 450, 3, 0.05, 0.0005, 3)).graph
        windows, _ = scans(G, umhs, G, UmhsConfig(iterations=100, seed=1))
        greedy = windows["greedy"]
        assert 0 < sum(window.pairs for window in greedy) <= 0.05 * 100 * len(G.edges)
        assert sum(window.passes for window in greedy) <= 100

    def test_prefilter_leaves_few_greedy_slots(self):
        # the same block: the pairs that reach the in-order scan hold 14,982
        # of the 778,200 slots of its 100 rounds' edges; before the scan the
        # exact test gathered 90,300, and without the pre-filter all of them
        G = sbm_hypergraph(SbmParams(40, 450, 3, 0.05, 0.0005, 3)).graph
        windows, _ = scans(G, umhs, G, UmhsConfig(iterations=100, seed=1))
        gathered = sum(window.slots for window in windows["greedy"])
        assert 0 < gathered <= 0.05 * 100 * int(G.edge_csr[0][-1])

    def test_short_block_passes_bounded(self):
        # a 2-round block: its windows hold 8192 // (2 * 3) = 1365 positions,
        # and the first window's 2730 pairs are decided in 3 passes, while
        # the two rounds take 69 edges between them
        G = sbm_hypergraph(SbmParams(40, 450, 3, 0.05, 0.0005, 2)).graph
        windows, (_, sizes) = scans(G, recovery._lockstep_rounds, G, 1, 99, 101)
        passes = sum(window.passes for window in windows["greedy"])
        assert passes <= int(sizes[:, 0].sum())
        assert passes <= 10

    @given(
        windowed_hypergraphs(),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_settle_agrees_with_every_removal_order(self, G, seed, rounds):
        # each member the settle keeps survives, and each it drops goes,
        # whatever order prune_to_minimal takes the round's greedy set in
        rng = np.random.default_rng(seed)
        edge_perms = np.array(
            [rng.permutation(len(G.edges)) for _ in range(rounds)], dtype=np.int32
        ).T
        member, _ = recovery._greedy_rounds(G, edge_perms)
        keep, drop = recovery._settle_rounds(G, member, recovery._edge_counts(G, member))
        assert keep.shape == drop.shape == member.shape
        assert not (keep & drop).any()
        for b in range(rounds):
            hit = np.flatnonzero(member[b]).tolist()
            kept = set(np.flatnonzero(keep[b]).tolist())
            dropped = set(np.flatnonzero(drop[b]).tolist())
            assert (kept, dropped) == settle_reference(G, set(hit)), f"round {b}"
            for _ in range(5):
                minimal = prune_to_minimal(G, hit, rng.permutation(hit).tolist())
                assert kept <= minimal, f"round {b}"
                assert not dropped & minimal, f"round {b}"
        # the rule is its own fixed point: after its drops it decides nothing new
        settled = member & ~drop
        again = recovery._settle_rounds(G, settled, recovery._edge_counts(G, settled))
        assert (again[0] == keep).all()
        assert not again[1].any()

    def test_settle_leaves_no_walk_on_the_recover_shape(self):
        # recover's second bench instance at seed 1: every member each round
        # keeps is alone in some edge of its greedy set, and every other
        # member's edges all hold such a member, so the prune scans no
        # member; before the settle it walked 120 positions
        G = sbm_hypergraph(SbmParams(40, 450, 3, 0.05, 0.0005, 3)).graph
        windows, result = scans(G, umhs, G, UmhsConfig(iterations=100, seed=1))
        assert windows["prune"] == []
        assert sum(result.rounds.pruned) < sum(result.rounds.greedy)

    def test_prune_walks_only_the_undecided_members(self):
        # random_hypergraph(300, 3, 5000, 0) at seed 1, where the walk still
        # runs: the settle decides about half the members, and only the
        # undecided members of each round enter the in-order scan
        G = random_hypergraph(300, 3, 5000, seed=0)
        block = recovery._block_size(G, 100)
        for lo in range(1, 101, block):
            member, node_perms = prune_inputs(G, 1, lo, min(lo + block, 101))
            greedy = member.sum(axis=1)
            undecided = []
            for row in member:
                hit = set(np.flatnonzero(row).tolist())
                keep, drop = settle_reference(G, hit)
                undecided.append(len(hit - keep - drop))
            windows, _ = scans(G, recovery._prune_rounds, G, member, node_perms)
            scanned = sum(window.pairs for window in windows["prune"])
            assert scanned == sum(undecided), f"block at {lo}"
            assert scanned < greedy.sum(), f"block at {lo}"

    def test_prune_chunk_temporaries_bounded(self):
        # windows are sized from the degrees of the members the prune scans,
        # here the first 52-round block of random_hypergraph(300, 3, 5000, 0)
        # at seed 1, where the walk still runs: the prune's temporaries stay
        # within 400 kB beyond the (B, m) int32 hit counts that it needs
        # anyway
        G = random_hypergraph(300, 3, 5000, seed=0)
        member, node_perms = prune_inputs(G, 1, 1, 1 + recovery._block_size(G, 100))
        tracemalloc.start()
        try:
            recovery._prune_rounds(G, member, node_perms)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        counts = member.shape[0] * len(G.edges) * 4
        assert peak < counts + 400_000, f"prune peaked at {peak} bytes"

    def test_settle_temporaries_bounded(self):
        # recover's second bench instance at seed 1, its one 100-round block:
        # the settle's three gathers move 13 packed bytes per CSR slot, and
        # its largest temporary is the (B, m) bool of the edges hit once
        # (259 kB); unpacked (B, sum |e|) bool gathers took 778 kB each
        G = sbm_hypergraph(SbmParams(40, 450, 3, 0.05, 0.0005, 3)).graph
        member, _ = prune_inputs(G, 1, 1, 101)
        counts = recovery._edge_counts(G, member)
        tracemalloc.start()
        try:
            recovery._settle_rounds(G, member, counts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 400_000, f"settle peaked at {peak} bytes"

    @given(
        mixed_hypergraphs(),
        st.integers(min_value=0, max_value=2**32),
        st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=100, deadline=None)
    @pytest.mark.skipif(not __debug__, reason="python -O strips the check")
    def test_check_passes_exactly_the_minimal_rows(self, G, seed, rounds):
        member = np.random.default_rng(seed).random((rounds, G.n)) < 0.4
        minimal = all(
            is_minimal_hitting_set(G, np.flatnonzero(row).tolist()) for row in member
        )
        try:
            recovery._check_rounds(G, member)
        except AssertionError:
            assert not minimal
        else:
            assert minimal

    @pytest.mark.skipif(not __debug__, reason="python -O strips the check")
    def test_check_rejects_a_redundant_member(self):
        # row 1 holds node 0, whose only edge node 2 hits as well
        member = np.zeros((2, 5), dtype=bool)
        member[0, 2] = member[1, [0, 2]] = True
        with pytest.raises(AssertionError, match="privately cover an edge"):
            recovery._check_rounds(overlapping_triples(), member)

    @pytest.mark.skipif(not __debug__, reason="python -O strips the check")
    def test_check_rejects_a_row_missing_an_edge(self):
        # row 1 misses the edge (2, 3, 4)
        member = np.zeros((2, 5), dtype=bool)
        member[0, 2] = member[1, 0] = True
        with pytest.raises(AssertionError, match="hit every edge"):
            recovery._check_rounds(overlapping_triples(), member)

    def test_derived_block_keeps_permutations_near_one_mib(self):
        G = random_hypergraph(300, 3, 5000, seed=0)
        assert recovery._block_size(G, 100) == 2**20 // (4 * 5000)
        assert recovery._block_size(G, 10) == 10
        assert recovery._block_size(canonicalize(0, []), 100) == 100

    def test_derived_block_keeps_four_rounds_on_large_instances(self):
        # above 2**16 edges or nodes the 1 MiB budget alone would give fewer
        # than four rounds per block, and one above 2**17; the floor keeps
        # four, or all rounds if fewer are asked for
        assert recovery._block_size(canonicalize(300_000, []), 100) == 4
        assert recovery._block_size(canonicalize(300_000, []), 3) == 3
        for size in (2**16 + 1, 2**17 + 1, 2**20, 10**7):
            big = SimpleNamespace(edges=range(size), n=1000)
            assert recovery._block_size(big, 100) == 4
            assert recovery._block_size(SimpleNamespace(edges=(), n=size), 100) == 4
        assert recovery._block_size(SimpleNamespace(edges=(), n=2**15), 100) == 8

    def test_derived_block_keeps_flat_indices_below_2_31(self):
        for size in (2**29, 2**30, 2**31 - 1):
            block = recovery._block_size(SimpleNamespace(edges=(), n=size), 100)
            assert block * size <= 2**31
            assert block >= 1

    def test_peak_memory_bounded(self):
        G = random_hypergraph(300, 3, 5000, seed=0)
        tracemalloc.start()
        try:
            umhs(G, UmhsConfig(iterations=100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000, f"umhs peaked at {peak} bytes"

    def test_peak_memory_bounded_with_a_hub_node(self):
        # a hub in every edge: a view padded to the largest degree would
        # take n * 4000 int32 slots (64 MB); the CSR views take 8000
        leaves = 4000
        G = Hypergraph(n=leaves + 1, edges=tuple((0, v) for v in range(1, leaves + 1)))
        tracemalloc.start()
        try:
            result = umhs(G, UmhsConfig(iterations=100))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.union_set == {0}
        assert peak < 8_000_000, f"umhs peaked at {peak} bytes"

    def test_optimized_mode_gives_same_result(self):
        # python -O strips the per-block minimality check; it must not
        # change what umhs returns
        # the second graph has m >= 1000, so its greedy pass runs many
        # windows after the first
        script = (
            "import sys\n"
            "from umhs import UmhsConfig, random_hypergraph, umhs\n"
            "print(sys.flags.optimize, end='')\n"
            "for G in (random_hypergraph(40, 5, 90, seed=3),\n"
            "          random_hypergraph(300, 3, 1500, seed=4)):\n"
            "    cfg = UmhsConfig(iterations=60, seed=8, record_trajectory=True)\n"
            "    r = umhs(G, cfg, core=range(0, G.n, 3))\n"
            "    print(' ', len(G.edges), sorted(r.union_set), r.trajectory, "
            "r.saturation_round, r.rounds, end='')\n"
        )
        src = str(Path(recovery.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        outputs = [
            subprocess.run(
                [sys.executable, *flags, "-c", script],
                env=env, capture_output=True, text=True, check=True,
            ).stdout.split(" ", 1)
            for flags in ([], ["-O"])
        ]
        assert [flag for flag, _ in outputs] == ["0", "1"]
        assert outputs[0][1] == outputs[1][1]
        assert int(outputs[0][1].split("  ")[1].split(" ", 1)[0]) >= 1000


class TestRankNodes:
    def test_members_precede_high_degree_outsiders(self):
        G = canonicalize(5, [[0, 1], [0, 2], [0, 4], [1, 2], [2, 4]])
        ranking = rank_nodes(G, {3})
        assert ranking.order[0] == 3

    def test_empty_member_set_reduces_to_degree(self):
        G = overlapping_triples()
        ranking = rank_nodes(G, frozenset())
        assert ranking.order[0] == 2
        assert list(ranking.order) == [2, 0, 1, 3, 4]

    def test_all_members_reduces_to_degree(self):
        G = overlapping_triples()
        ranking = rank_nodes(G, range(5))
        assert list(ranking.order) == [2, 0, 1, 3, 4]

    def test_degree_orders_within_blocks(self):
        G = overlapping_triples()
        ranking = rank_nodes(G, {1, 2})
        assert list(ranking.order[:2]) == [2, 1]

    def test_scores_reproduce_order_via_top_k_cut(self):
        G = random_hypergraph(10, 3, 9, seed=5)
        ranking = rank_nodes(G, {0, 7})
        scores = ranking.scores
        for a, b in zip(ranking.order, ranking.order[1:]):
            assert scores[a] >= scores[b]
        member_floor = min(scores[v] for v in (0, 7))
        outsider_peak = max(scores[v] for v in range(10) if v not in (0, 7))
        assert member_floor > outsider_peak

    def test_rejects_members_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            rank_nodes(overlapping_triples(), {9})

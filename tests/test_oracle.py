"""Tests for the exact small-instance oracle: sunflowers, kernelization,
the hitting-set search behind k* (iterative deepening) and the enumeration
of minimal hitting sets, and membership checks."""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import umhs.oracle
from reference import (
    edge_masks,
    has_independent_set,
    hitting_leaves_reference,
    independence_number_exhaustive,
)
from umhs import (
    Hypergraph,
    LabeledHypergraph,
    OracleBudgetError,
    OracleLimits,
    SbmParams,
    Sunflower,
    canonicalize,
    check_membership_lemmas,
    enumerate_minimal_hitting_sets,
    find_sunflower,
    independence_number,
    is_hitting_set,
    is_minimal_hitting_set,
    kernelize,
    min_hitting_set_size,
    random_hypergraph,
    sbm_hypergraph,
    sigma,
    tree_family,
    union_minimal,
    TreeFamilyParams,
)

LIMITS = OracleLimits(max_nodes=26, max_k=12, time_budget=60.0)


def naive_minimal_hitting_sets(G, k):
    """Reference enumeration by scanning every subset of size <= k."""
    out = []
    for size in range(k + 1):
        for members in itertools.combinations(range(G.n), size):
            if is_minimal_hitting_set(G, members):
                out.append(frozenset(members))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def naive_alpha(G):
    """Largest subset containing no edge, by exhaustive scan."""
    for size in range(G.n, -1, -1):
        for members in itertools.combinations(range(G.n), size):
            chosen = set(members)
            if not any(set(e) <= chosen for e in G.edges):
                return size
    return 0


def hub_dense_instance(n, hubs, r, edge_count, seed):
    """Dense hypergraph whose every edge passes through one of the hubs.

    Any disjoint edge family then uses distinct hubs, so the matching
    number is at most len(hubs) and kernelization never hits an
    empty-core sunflower.
    """
    rng = np.random.default_rng(seed)
    edges = set()
    guard = 0
    while len(edges) < edge_count and guard < 200 * edge_count:
        guard += 1
        h = int(rng.choice(hubs))
        rest = rng.choice([v for v in range(n) if v != h], size=r - 1, replace=False)
        edges.add(tuple(sorted([h, *rest.tolist()])))
    if len(edges) < edge_count:
        raise AssertionError("could not realize the requested edge count")
    return canonicalize(n, sorted(edges))


# Inputs at the edges of the hitting-set search, built on demand.
EDGE_CASES = {
    # size-1 edges force their node; packing bound 3 below k* = 4
    "singleton_edges": lambda: Hypergraph(
        n=7, edges=((3,), (0, 1), (1, 2), (0, 2), (4, 5, 6), (3, 4))
    ),
    # the kernel of a two-hub sunflower family keeps both bare hubs
    "kernel_with_singletons": lambda: kernelize(
        hub_dense_instance(12, [0, 1], 3, 60, seed=2), 2, LIMITS
    ).kernel,
    "edgeless": lambda: canonicalize(5, []),
    # the packing bound equals the greedy incumbent, so no level is searched
    "disjoint_edges": lambda: canonicalize(
        10, [[0, 1, 2], [3, 4], [5, 6, 7], [8, 9]]
    ),
}


class TestSigma:
    def test_small_values(self):
        assert sigma(3, 2) == 6
        assert sigma(2, 3) == 8

    def test_k_one_vanishes(self):
        for r in range(1, 8):
            assert sigma(r, 1) == 0

    def test_exact_big_integers(self):
        assert sigma(20, 10) == math.factorial(20) * 9**20

    def test_rejects_degenerate_arguments(self):
        with pytest.raises(ValueError):
            sigma(0, 2)
        with pytest.raises(ValueError):
            sigma(2, 0)


class TestSunflowerType:
    def test_valid_sunflower_accepted(self):
        s = Sunflower(petals=((1, 2), (1, 3), (1, 4)), core=frozenset({1}))
        assert s.core == {1}

    def test_empty_core_requires_disjoint_petals(self):
        s = Sunflower(petals=((1, 2), (3, 4)), core=frozenset())
        assert not s.core

    def test_inconsistent_intersection_rejected(self):
        with pytest.raises(ValueError):
            Sunflower(petals=((1, 2), (2, 3), (1, 3)), core=frozenset())


class TestFindSunflower:
    def test_shared_singleton_core(self):
        s = find_sunflower([(1, 2), (1, 3), (1, 4)], k=3)
        assert s is not None
        assert s.core == {1}
        assert len(s.petals) == 3

    def test_disjoint_edges_give_empty_core(self):
        s = find_sunflower([(1, 2), (3, 4), (5, 6)], k=3)
        assert s is not None
        assert s.core == frozenset()
        assert len(s.petals) == 3

    def test_triangle_has_no_three_sunflower(self):
        # |edges| = 3 <= sigma(2,3) = 8, so absence is permitted
        assert find_sunflower([(1, 2), (2, 3), (1, 3)], k=3) is None

    def test_guaranteed_above_threshold(self):
        rng = np.random.default_rng(7)
        for trial in range(40):
            r = int(rng.integers(2, 4))
            k = int(rng.integers(2, 4))
            need = sigma(r, k) + 1
            n = 30
            edges = set()
            while len(edges) < need:
                size = int(rng.integers(2, r + 1))
                edges.add(tuple(sorted(rng.choice(n, size=size, replace=False).tolist())))
            s = find_sunflower(sorted(edges), k)
            assert s is not None, f"trial {trial}: no {k}-sunflower in {need} edges"
            assert len(s.petals) >= k
            for petal in s.petals:
                assert petal in edges

    def test_petals_are_input_edges(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2)]
        s = find_sunflower(edges, k=3)
        assert s is not None
        for petal in s.petals:
            assert petal in edges


class TestKernelize:
    def test_below_threshold_is_identity(self):
        G = canonicalize(5, [[0, 1, 2], [2, 3, 4]])
        report = kernelize(G, k=2, limits=LIMITS)
        assert report.phases == 0
        assert report.kernel == G
        assert not report.infeasible

    def test_disjoint_edges_reported_infeasible(self):
        # k+1 = 3 disjoint pairs among plenty of edges: no hitting set of size <= 2
        base = [[0, 1], [2, 3], [4, 5]]
        extra = [[i, j] for i, j in itertools.combinations(range(6), 2)]
        G = canonicalize(6, base + extra)
        assert len(G.edges) > sigma(2, 3)
        report = kernelize(G, k=2, limits=LIMITS)
        assert report.infeasible
        assert report.witness is not None
        assert len(report.witness) == 3
        members = [set(e) for e in report.witness]
        for a, b in itertools.combinations(members, 2):
            assert not a & b

    def test_kernel_respects_size_bound(self):
        G = hub_dense_instance(15, [0, 1, 2], 3, 200, seed=5)
        report = kernelize(G, k=3, limits=LIMITS)
        assert not report.infeasible
        assert report.phases >= 1
        assert len(report.kernel.edges) <= sigma(3, 4)

    def test_each_phase_logs_petals_and_core(self):
        G = hub_dense_instance(12, [0], 2, 11, seed=9)
        report = kernelize(G, k=1, limits=LIMITS)
        assert report.phases == len(report.replaced) >= 1
        for petals, core in report.replaced:
            assert len(petals) == 2  # k+1 petals per phase
            for a, b in itertools.combinations(petals, 2):
                assert set(a) & set(b) == set(core)

    @pytest.mark.parametrize(
        "k,hub_count,n,r,edge_count",
        [
            (1, 1, 12, 2, 6),
            (2, 1, 12, 2, 10),
            (2, 2, 12, 2, 15),
            (3, 3, 12, 2, 24),
            (2, 2, 12, 3, 60),
            (3, 3, 14, 3, 170),
        ],
    )
    def test_preserves_minimal_families(self, k, hub_count, n, r, edge_count):
        assert edge_count > sigma(r, k + 1)
        G = hub_dense_instance(n, list(range(hub_count)), r, edge_count, seed=k * 10 + r)
        report = kernelize(G, k, limits=LIMITS)
        assert report.phases >= 1
        assert not report.infeasible
        before = set(enumerate_minimal_hitting_sets(G, k, LIMITS))
        after = set(enumerate_minimal_hitting_sets(report.kernel, k, LIMITS))
        assert before == after

    def test_kernel_may_contain_singleton_edges(self):
        # replacing petals of a hub sunflower leaves the bare hub
        G = hub_dense_instance(12, [0], 2, 11, seed=3)
        report = kernelize(G, k=1, limits=LIMITS)
        assert any(len(e) == 1 for e in report.kernel.edges)


class TestMinHittingSetSize:
    def test_shared_node(self):
        assert min_hitting_set_size(canonicalize(5, [[0, 1, 2], [2, 3, 4]]), LIMITS) == 1

    def test_disjoint_edges_need_one_each(self):
        G = canonicalize(9, [[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        assert min_hitting_set_size(G, LIMITS) == 3

    def test_tree_family_value(self):
        T, k = tree_family(TreeFamilyParams(b=2, r=3))
        got = min_hitting_set_size(T, LIMITS)
        assert got <= k == 4
        exhaustive = min(
            size
            for size in range(T.n + 1)
            for members in itertools.combinations(range(T.n), size)
            if is_hitting_set(T, members)
        )
        assert got == exhaustive

    def test_empty_graph_needs_nothing(self):
        assert min_hitting_set_size(canonicalize(4, []), LIMITS) == 0

    @pytest.mark.parametrize("case", [*range(10), *EDGE_CASES])
    def test_matches_naive_search(self, case):
        if case in EDGE_CASES:
            G = EDGE_CASES[case]()
        else:
            rng = np.random.default_rng(case)
            n = int(rng.integers(5, 11))
            m = int(rng.integers(2, 9))
            G = random_hypergraph(n, 3, m, seed=case + 100)
        got = min_hitting_set_size(G, LIMITS)
        naive = min(
            size
            for size in range(G.n + 1)
            for members in itertools.combinations(range(G.n), size)
            if is_hitting_set(G, members)
        )
        assert got == naive

    def test_node_limit_enforced(self):
        G = random_hypergraph(10, 3, 5, seed=0)
        with pytest.raises(ValueError, match="above the oracle limit"):
            min_hitting_set_size(G, OracleLimits(max_nodes=4, max_k=12, time_budget=60.0))

    def test_time_budget_raises_with_bounds(self, monkeypatch):
        G = random_hypergraph(24, 4, 120, seed=1)
        tight = OracleLimits(max_nodes=26, max_k=12, time_budget=1e-9)
        with pytest.raises(OracleBudgetError) as excinfo:
            min_hitting_set_size(G, tight)
        assert excinfo.value.best_lower is not None

        k_star = min_hitting_set_size(G, LIMITS)
        used, packing = set(), 0
        for edge in G.edges:
            if not used & set(edge):
                used |= set(edge)
                packing += 1
        # packing bound 7, k* 14: the clock expires at a search node of
        # the first level, of a middle one, and of the level that finds k*
        lowers = []
        for ticks in (1, 3000, 7600):
            clock = itertools.chain(
                itertools.repeat(0.0, ticks), itertools.repeat(math.inf)
            )
            monkeypatch.setattr(
                umhs.oracle, "time", SimpleNamespace(monotonic=clock.__next__)
            )
            with pytest.raises(OracleBudgetError) as excinfo:
                min_hitting_set_size(G, LIMITS)
            err = excinfo.value
            assert packing <= err.best_lower <= k_star <= err.best_upper
            assert f"[{err.best_lower}, {err.best_upper}]" in str(err)
            lowers.append(err.best_lower)
        assert lowers == [packing, 12, k_star]


@st.composite
def search_inputs(draw):
    """A graph on up to 26 nodes with up to 30 distinct edges of sizes 1-5,
    so size ties and singleton edges are common, and a budget k in 0..6."""
    n = draw(st.integers(1, 26))
    edges = draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(5, n)),
        max_size=30,
        unique=True,
    ))
    k = draw(st.integers(0, 6))
    return Hypergraph(n, tuple(tuple(sorted(e)) for e in edges)), k


class TestEdgeBitsetSearch:
    @given(search_inputs())
    @example((Hypergraph(3, ()), 0))
    @example((Hypergraph(3, ()), 2))
    @example((Hypergraph(4, ((0, 1), (2,), (1, 3))), 0))
    @example((Hypergraph(4, ((0, 1), (2,), (1, 3))), 3))
    @example((Hypergraph(26, ((24, 25), (3,), (0, 1, 2), (25,), (0, 25), (4, 5))), 4))
    @settings(max_examples=300, deadline=None)
    def test_same_leaf_sequence_as_list_search(self, case):
        G, k = case
        view = umhs.oracle._edge_view(G)
        got = list(umhs.oracle._hitting_leaves(view, k, math.inf))
        masks = edge_masks(G.edges)
        assert got == list(hitting_leaves_reference(masks, k, math.inf))

    @given(search_inputs(), st.lists(st.frozensets(st.integers(0, 25)), max_size=20))
    @example((Hypergraph(3, ()), 0), [frozenset(), frozenset({1})])
    @settings(max_examples=200, deadline=None)
    def test_minimality_matches_hypergraph_predicate(self, case, drawn):
        # the search's leaves all hit, so they exercise the minimal side
        G, _ = case
        view = umhs.oracle._edge_view(G)
        leaves = set(umhs.oracle._hitting_leaves(view, 4, math.inf))
        for mask in leaves | {sum(1 << v for v in c if v < G.n) for c in drawn}:
            members = [v for v in range(G.n) if mask >> v & 1]
            assert umhs.oracle._is_minimal_mask(mask, view) == (
                is_minimal_hitting_set(G, members)
            )

    def test_view_built_once_across_levels(self, monkeypatch):
        # the bench's three sbm_c10 shapes at seed 1: packing bound 4, k* 10,
        # so levels 4..9 are each searched and all must share one view
        built, searched = [], []
        edge_view, hitting_leaves = umhs.oracle._edge_view, umhs.oracle._hitting_leaves

        def spy_view(G):
            built.append(edge_view(G))
            return built[-1]

        def spy_leaves(view, k, deadline):
            searched.append((view, k))
            return hitting_leaves(view, k, deadline)

        monkeypatch.setattr(umhs.oracle, "_edge_view", spy_view)
        monkeypatch.setattr(umhs.oracle, "_hitting_leaves", spy_leaves)
        for seed, q in ((8, 0.3), (9, 0.3), (10, 0.15)):
            G = sbm_hypergraph(SbmParams(10, 16, 3, 0.5, q, seed)).graph
            built.clear()
            searched.clear()
            assert min_hitting_set_size(G, LIMITS) == 10
            assert len(built) == 1
            assert [k for _, k in searched] == list(range(4, 10))
            assert all(view is built[0] for view, _ in searched)


class TestEnumerateMinimal:
    def test_single_edge_singletons(self):
        G = canonicalize(3, [[0, 1, 2]])
        got = enumerate_minimal_hitting_sets(G, 1, LIMITS)
        assert got == [frozenset({0}), frozenset({1}), frozenset({2})]

    def test_path_graph_k2(self):
        G = canonicalize(3, [[0, 1], [1, 2]])
        got = enumerate_minimal_hitting_sets(G, 2, LIMITS)
        assert got == [frozenset({1}), frozenset({0, 2})]

    def test_path_graph_k1(self):
        G = canonicalize(3, [[0, 1], [1, 2]])
        assert enumerate_minimal_hitting_sets(G, 1, LIMITS) == [frozenset({1})]

    def test_canonical_order(self):
        G = canonicalize(4, [[0, 1], [2, 3]])
        got = enumerate_minimal_hitting_sets(G, 2, LIMITS)
        keys = [(len(s), sorted(s)) for s in got]
        assert keys == sorted(keys)

    def test_every_output_verifies_minimal(self):
        G = random_hypergraph(10, 3, 8, seed=4)
        for s in enumerate_minimal_hitting_sets(G, 4, LIMITS):
            assert is_minimal_hitting_set(G, s)

    @pytest.mark.parametrize("case", [*range(12), *EDGE_CASES])
    def test_matches_naive_enumeration(self, case):
        if case in EDGE_CASES:
            G = EDGE_CASES[case]()
            budgets = range(6)
        else:
            rng = np.random.default_rng(case)
            n = int(rng.integers(4, 13))
            m = int(rng.integers(1, 10))
            G = random_hypergraph(n, 3, m, seed=case + 31)
            budgets = [int(rng.integers(1, 6))]
        for k in budgets:
            got = enumerate_minimal_hitting_sets(G, k, LIMITS)
            assert got == naive_minimal_hitting_sets(G, k)

    def test_k_zero_only_for_edgeless(self):
        assert enumerate_minimal_hitting_sets(canonicalize(3, []), 0, LIMITS) == [frozenset()]
        G = canonicalize(3, [[0, 1]])
        assert enumerate_minimal_hitting_sets(G, 0, LIMITS) == []


class TestUnionMinimal:
    def test_path_graph_values(self):
        G = canonicalize(3, [[0, 1], [1, 2]])
        assert union_minimal(G, 2, LIMITS) == {0, 1, 2}
        assert union_minimal(G, 1, LIMITS) == {1}

    def test_tree_family_union_is_everything(self):
        T, k = tree_family(TreeFamilyParams(b=2, r=3))
        u = union_minimal(T, k, LIMITS)
        assert u == frozenset(range(T.n))
        assert len(u) > 2**3

    @pytest.mark.parametrize("seed", range(8))
    def test_size_bound_when_feasible(self, seed):
        G = random_hypergraph(12, 3, 9, seed=seed)
        k = min_hitting_set_size(G, LIMITS)
        r = G.rank
        assert len(union_minimal(G, k, LIMITS)) <= r * math.factorial(r) * k**r


class TestIndependence:
    def test_single_triangle(self):
        assert independence_number(canonicalize(3, [[0, 1, 2]]), LIMITS) == 2

    def test_edgeless_graph(self):
        assert independence_number(canonicalize(7, []), LIMITS) == 7

    @pytest.mark.parametrize("seed", range(6))
    def test_complement_identity_and_exhaustive(self, seed):
        G = random_hypergraph(12, 3, 10, seed=seed + 50)
        alpha = independence_number(G, LIMITS)
        assert alpha == G.n - min_hitting_set_size(G, LIMITS)
        assert alpha == independence_number_exhaustive(G, LIMITS)
        assert alpha == naive_alpha(G)

    def test_has_independent_set_boundaries(self):
        G = canonicalize(3, [[0, 1, 2]])
        assert has_independent_set(G, 2, LIMITS)
        assert not has_independent_set(G, 3, LIMITS)
        # requests beyond the node count are never satisfiable
        assert not has_independent_set(G, 10, LIMITS)


class TestMembershipLemmas:
    def test_outside_premise_single_edge(self):
        LG = LabeledHypergraph(canonicalize(3, [[0, 1, 2]]), frozenset({0}))
        report = check_membership_lemmas(LG, LIMITS)
        assert 0 in report.outside_nodes
        assert 0 in report.union_at_core_size
        assert not report.violations
        assert report.all_in_union

    def test_interior_premise_requires_fully_inside_neighbours(self):
        G = canonicalize(4, [[0, 1, 2], [1, 2, 3], [0, 2, 3]])
        LG = LabeledHypergraph(G, frozenset({0, 1, 2}))
        report = check_membership_lemmas(LG, LIMITS)
        # node 3 keeps every co-member's edge list from being core-only
        assert report.interior_premise_nodes == frozenset()

    def test_everything_core_flags_interior_nodes(self):
        G = canonicalize(3, [[0, 1], [1, 2]])
        LG = LabeledHypergraph(G, frozenset({0, 1, 2}))
        report = check_membership_lemmas(LG, LIMITS)
        assert report.interior_premise_nodes
        assert report.union_at_core_size == union_minimal(G, 3, LIMITS)

    def test_known_gap_is_reported_not_hidden(self):
        # node 0 satisfies the interior premise via edge {0,1,2} (both 1 and 2
        # are interior), yet no minimal hitting set of size <= 3 contains 0:
        # U(3) = {1} union {2}... = {1, 2}.  The checker must surface this.
        G = canonicalize(3, [[0, 1, 2], [1, 2]])
        LG = LabeledHypergraph(G, frozenset({0, 1, 2}))
        report = check_membership_lemmas(LG, LIMITS)
        assert union_minimal(G, 3, LIMITS) == {1, 2}
        assert 0 in report.interior_premise_nodes
        assert report.violations == {0}
        assert not report.all_in_union

    def test_known_gap_on_a_sampled_instance(self):
        # Same failure mode found in the wild: node 3 only touches edge
        # {0, 3, 10}, whose other members are both interior to the core,
        # but the edge {0, 10} forces every hitting set to pick 0 or 10,
        # so 3 is redundant everywhere and never enters the union.
        G = canonicalize(11, [
            [0, 10], [2, 7, 10], [5, 8, 10], [5, 8], [1, 5], [1, 2],
            [5, 7], [4, 7], [0, 7], [6, 8], [7, 8], [0, 3, 10],
        ])
        core = frozenset({0, 2, 3, 5, 6, 7, 8, 10})
        report = check_membership_lemmas(LabeledHypergraph(G, core), LIMITS)
        assert 3 in report.interior_premise_nodes
        assert report.violations == {3}
        assert 3 not in union_minimal(G, len(core), LIMITS)

    @pytest.mark.parametrize("seed", range(10))
    def test_flagged_nodes_lie_in_union_on_random_cores(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 10))
        m = int(rng.integers(n // 2 + 1, n + 3))
        G = random_hypergraph(n, 3, m, seed=seed + 77)
        from umhs import prune_to_minimal

        core = set(prune_to_minimal(G, range(n), rng.permutation(n).tolist()))
        core |= {v for v in range(n) if rng.random() < 0.3}
        report = check_membership_lemmas(LabeledHypergraph(G, frozenset(core)), LIMITS)
        assert report.all_in_union, (
            f"seed {seed}: flagged nodes {sorted(report.violations)} outside the union"
        )


class TestOracleBudgetError:
    def test_carries_bounds(self):
        err = OracleBudgetError("budget exceeded", best_lower=2, best_upper=5)
        assert err.best_lower == 2
        assert err.best_upper == 5
        assert "budget" in str(err)

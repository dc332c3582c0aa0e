"""Tests for the SBM and tree-family instance generators."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import umhs.generators
from umhs import (
    Hypergraph,
    LabeledHypergraph,
    SbmParams,
    TreeFamilyParams,
    consistent_labeling_hitting_set,
    independence_threshold,
    is_minimal_hitting_set,
    random_hypergraph,
    sbm_hypergraph,
    tree_family,
)


def reference_sbm_hypergraph(params):
    """One uniform per lexicographic subset rank, every subset visited in turn."""
    c = params.core_size
    n = c + params.fringe_size
    total = math.comb(n, params.r)
    uniforms = np.random.Generator(np.random.Philox(key=params.seed)).random(total)
    edges = []
    for rank, subset in enumerate(itertools.combinations(range(n), params.r)):
        if subset[0] >= c:
            continue  # fringe-only: probability zero
        prob = params.p if subset[-1] < c else params.q
        if uniforms[rank] < prob:
            edges.append(subset)
    graph = Hypergraph(n=n, edges=tuple(edges))
    return LabeledHypergraph(graph=graph, core=frozenset(range(c)))


def assert_matches_reference(params):
    got = sbm_hypergraph(params)
    want = reference_sbm_hypergraph(params)
    assert got.graph.edges == want.graph.edges
    assert (got.graph.n, got.core) == (want.graph.n, want.core)


probabilities = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def sbm_params(draw):
    core = draw(st.integers(1, 8))
    fringe = draw(st.integers(max(0, 2 - core), 12))
    r = draw(st.integers(2, min(5, core + fringe)))
    return SbmParams(
        core_size=core, fringe_size=fringe, r=r,
        p=draw(probabilities), q=draw(probabilities),
        seed=draw(st.integers(0, 2**64 - 1)),
    )


CHUNK_CASES = [
    SbmParams(5, 12, 3, 0.6, 0.05, seed=1),
    SbmParams(6, 20, 2, 0.5, 0.1, seed=3),
    SbmParams(8, 12, 5, 0.5, 0.01, seed=2),
    SbmParams(4, 3, 3, 0.0, 1.0, seed=5),
    SbmParams(1, 10, 2, 0.3, 0.7, seed=9),
]


class TestSbmParams:
    def test_rejects_empty_core(self):
        with pytest.raises(ValueError):
            SbmParams(core_size=0, fringe_size=5, r=2, p=0.5, q=0.5)

    def test_rejects_r_above_population(self):
        with pytest.raises(ValueError):
            SbmParams(core_size=2, fringe_size=1, r=4, p=0.5, q=0.5)

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            SbmParams(core_size=3, fringe_size=3, r=2, p=1.5, q=0.5)


class TestSbmHypergraph:
    def test_degenerate_all_core(self):
        lab = sbm_hypergraph(SbmParams(core_size=4, fringe_size=3, r=3, p=1.0, q=0.0))
        expect = {tuple(c) for c in itertools.combinations(range(4), 3)}
        assert set(lab.graph.edges) == expect
        assert lab.core == frozenset(range(4))

    def test_degenerate_empty(self):
        lab = sbm_hypergraph(SbmParams(core_size=4, fringe_size=3, r=3, p=0.0, q=0.0))
        assert lab.graph.edges == ()

    def test_no_fringe_only_edges(self):
        lab = sbm_hypergraph(
            SbmParams(core_size=3, fringe_size=8, r=3, p=0.9, q=0.4, seed=11)
        )
        for e in lab.graph.edges:
            assert min(e) < 3, f"fringe-only edge {e}"

    def test_core_indices_precede_fringe(self):
        params = SbmParams(core_size=5, fringe_size=10, r=3, p=0.5, q=0.5, seed=2)
        lab = sbm_hypergraph(params)
        assert lab.core == frozenset(range(5))
        assert lab.graph.n == 15

    def test_edge_count_moment(self):
        # expected count 0.5 * (C(15,3) - C(10,3)) = 167.5; single-draw
        # variance 335 * 0.25, so the mean of 200 seeds has SE ~ 0.647
        params = [
            SbmParams(core_size=5, fringe_size=10, r=3, p=0.5, q=0.5, seed=s)
            for s in range(200)
        ]
        counts = [len(sbm_hypergraph(ps).graph.edges) for ps in params]
        se = math.sqrt(335 * 0.25 / 200)
        assert abs(np.mean(counts) - 167.5) < 3 * se

    def test_deterministic_per_seed(self):
        ps = SbmParams(core_size=4, fringe_size=6, r=3, p=0.4, q=0.2, seed=9)
        assert sbm_hypergraph(ps) == sbm_hypergraph(ps)

    def test_distinct_seeds_differ(self):
        a = sbm_hypergraph(SbmParams(core_size=5, fringe_size=10, r=3, p=0.5, q=0.5, seed=0))
        b = sbm_hypergraph(SbmParams(core_size=5, fringe_size=10, r=3, p=0.5, q=0.5, seed=1))
        assert a.graph.edges != b.graph.edges

    def test_subset_count_guard(self):
        with pytest.raises(ValueError, match="smaller"):
            sbm_hypergraph(SbmParams(core_size=100, fringe_size=200, r=5, p=0.1, q=0.1))

    def test_guard_counts_only_subsets_with_a_core_node(self):
        # C(500,3) = 20,708,500 subsets in all, but only 1,220,220 contain
        # one of the 10 core nodes, and only those are drawn
        params = SbmParams(core_size=10, fringe_size=490, r=3, p=0.05, q=0.0005, seed=0)
        assert math.comb(500, 3) > umhs.generators._MAX_SUBSETS
        lab = sbm_hypergraph(params)
        assert lab.graph.edges
        assert all(e[0] < 10 for e in lab.graph.edges)

    def test_memory_bounded_by_chunk_and_output(self):
        # the single draw over all C(490,3) ranks held 155 MB of uniforms
        params = SbmParams(40, 450, 3, 0.05, 0.0005, seed=2)
        tracemalloc.start()
        try:
            sbm_hypergraph(params)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 48_000_000, f"peak {peak / 1e6:.1f} MB"


class TestSbmMatchesReference:
    @settings(max_examples=150, deadline=None)
    @given(sbm_params())
    def test_property(self, params):
        assert_matches_reference(params)

    @pytest.mark.parametrize("chunk", [1, 3, 4, 7])
    @pytest.mark.parametrize("params", CHUNK_CASES, ids=str)
    def test_chunk_boundaries(self, params, chunk, monkeypatch):
        monkeypatch.setattr(umhs.generators, "_CHUNK", chunk)
        assert_matches_reference(params)

    def test_ladder_instance(self):
        # 1,559,480 drawn ranks: two chunks at the default size
        params = SbmParams(40, 260, 3, 0.05, 0.0005, seed=1)
        assert_matches_reference(params)


class TestTreeFamily:
    def test_two_ary_depth_three(self):
        T, k = tree_family(TreeFamilyParams(b=2, r=3))
        assert T.n == 14
        assert len(T.edges) == 8
        assert all(len(e) == 3 for e in T.edges)
        assert k == 4

    def test_two_ary_depth_two(self):
        T, k = tree_family(TreeFamilyParams(b=2, r=2))
        assert (T.n, len(T.edges), k) == (6, 4, 3)
        assert all(len(e) == 2 for e in T.edges)

    def test_three_ary_depth_two(self):
        T, k = tree_family(TreeFamilyParams(b=3, r=2))
        assert (T.n, len(T.edges), k) == (12, 9, 5)

    def test_node_count_formula(self):
        for b, r in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]:
            T, _ = tree_family(TreeFamilyParams(b=b, r=r))
            assert T.n == b * (b**r - 1) // (b - 1)
            assert len(T.edges) == b**r

    def test_paths_are_disjoint_across_trees(self):
        T, _ = tree_family(TreeFamilyParams(b=2, r=3))
        per_tree = T.n // 2
        for e in T.edges:
            trees = {v // per_tree for v in e}
            assert len(trees) == 1

    def test_params_validated(self):
        with pytest.raises(ValueError):
            TreeFamilyParams(b=1, r=3)
        with pytest.raises(ValueError):
            TreeFamilyParams(b=2, r=1)


class TestConsistentLabeling:
    @pytest.mark.parametrize("b,r", [(2, 2), (2, 3), (3, 2)])
    def test_size_and_minimality(self, b, r):
        T, k = tree_family(TreeFamilyParams(b=b, r=r))
        for seed in range(10):
            s = consistent_labeling_hitting_set(TreeFamilyParams(b=b, r=r), seed)
            assert len(s) == (r - 1) * (b - 1) + b == k
            assert is_minimal_hitting_set(T, s)

    def test_deterministic_per_seed(self):
        params = TreeFamilyParams(b=2, r=3)
        assert consistent_labeling_hitting_set(params, 5) == consistent_labeling_hitting_set(
            params, 5
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            consistent_labeling_hitting_set(TreeFamilyParams(b=2, r=3), -1)

    def test_union_over_labelings_covers_tree(self):
        # b=2, r=2 admits 8 distinct labelings; 120 seeds hit them all
        params = TreeFamilyParams(b=2, r=2)
        T, _ = tree_family(params)
        union = set()
        for seed in range(120):
            union |= consistent_labeling_hitting_set(params, seed)
        assert union == set(range(T.n))


class TestRandomHypergraph:
    def test_saturated_pair_graph(self):
        G = random_hypergraph(5, 2, 10, seed=0)
        assert set(G.edges) == set(itertools.combinations(range(5), 2))

    def test_zero_edges(self):
        G = random_hypergraph(6, 3, 0, seed=0)
        assert G.edges == ()

    def test_deterministic(self):
        assert random_hypergraph(9, 3, 7, seed=3) == random_hypergraph(9, 3, 7, seed=3)

    def test_exact_edge_count(self):
        G = random_hypergraph(10, 4, 25, seed=8)
        assert len(G.edges) == 25
        assert len(set(G.edges)) == 25

    def test_infeasible_count_rejected(self):
        with pytest.raises(ValueError):
            random_hypergraph(4, 2, 7, seed=0)  # only C(4,2)=6 pairs exist

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            random_hypergraph(9, 3, 7, seed=-1)


class TestIndependenceThreshold:
    def test_formula_values(self):
        k, bound = independence_threshold(15, 3, 0.7)
        assert k == math.ceil(3 * math.factorial(3) * math.log(15) / (2 * 0.7)) + 2 == 37
        assert 0 < bound <= 1

    def test_second_config(self):
        k, _ = independence_threshold(20, 3, 0.9)
        assert k == 32

    def test_bound_matches_formula(self):
        n, r, p = 8, 2, 0.9
        k, bound = independence_threshold(n, r, p)
        base = 3 * math.factorial(r) * math.log(n) / (2 * p)
        assert bound == pytest.approx(1 - n ** (-0.5 * (base + (r - 1))))

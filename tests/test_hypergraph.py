"""Tests for the hypergraph data structures and set-cover primitives."""

import itertools
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reference import clique_graph, incidence_reference
from umhs import (
    Hypergraph,
    LabeledHypergraph,
    canonicalize,
    is_hitting_set,
    is_minimal_hitting_set,
    prune_to_minimal,
    uniform_subhypergraph,
)
from umhs.hypergraph import unhit_edges


def path_graph():
    """Two overlapping pairs: {0,1}, {1,2}."""
    return canonicalize(3, [[0, 1], [1, 2]])


def two_triples():
    """{0,1,2} and {2,3,4} sharing node 2."""
    return canonicalize(5, [[0, 1, 2], [2, 3, 4]])


@st.composite
def random_instances(draw):
    """Small random hypergraphs with at least one edge."""
    n = draw(st.integers(min_value=2, max_value=10))
    edge_count = draw(st.integers(min_value=1, max_value=12))
    edges = []
    for _ in range(edge_count):
        size = draw(st.integers(min_value=2, max_value=min(4, n)))
        members = draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=size,
                max_size=size,
                unique=True,
            )
        )
        edges.append(members)
    return canonicalize(n, edges)


class TestCanonicalize:
    def test_in_edge_dedup_merges_duplicate_edges(self):
        G = canonicalize(3, [[2, 1, 1], [1, 2]])
        assert G.edges == ((1, 2),)
        assert G.rank == 2

    def test_empty_edge_list(self):
        G = canonicalize(5, [])
        assert G.n == 5
        assert G.edges == ()
        assert G.rank == 0

    def test_duplicate_edges_removed(self):
        G = canonicalize(5, [[0, 1, 2], [0, 1, 2], [3, 4]])
        assert G.edges == ((0, 1, 2), (3, 4))
        assert G.rank == 3

    def test_member_order_irrelevant(self):
        assert canonicalize(4, [[3, 0, 2]]) == canonicalize(4, [[2, 3, 0]])

    def test_singleton_after_dedup_rejected(self):
        with pytest.raises(ValueError, match="edge 0"):
            canonicalize(3, [[1, 1]])

    def test_singleton_position_reported(self):
        with pytest.raises(ValueError, match="edge 1"):
            canonicalize(4, [[0, 1], [2, 2], [1, 3]])

    def test_out_of_range_member_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            canonicalize(3, [[0, 3]])

    def test_negative_member_after_duplicate_edge(self):
        # the raw index counts the dropped duplicate
        message = "edge 2 has members outside 0..2: [-1, 2]"
        with pytest.raises(ValueError, match=re.escape(message)):
            canonicalize(3, [[0, 1], [1, 0], [-1, 2]])


class TestHypergraph:
    def test_direct_construction_requires_sorted_members(self):
        with pytest.raises(ValueError):
            Hypergraph(3, ((1, 0),))

    def test_direct_construction_rejects_duplicate_edges(self):
        with pytest.raises(ValueError):
            Hypergraph(3, ((0, 1), (0, 1)))

    def test_degree_shared_node(self):
        assert two_triples().degrees()[2] == 2

    def test_degree_leaf_node(self):
        assert two_triples().degrees()[0] == 1

    def test_degree_isolated_node(self):
        G = canonicalize(4, [[0, 1]])
        assert G.degrees()[3] == 0

    def test_degree_sum_equals_total_edge_size(self):
        G = two_triples()
        assert sum(G.degrees()) == sum(len(e) for e in G.edges)

    def test_incidence_lists_match_edges(self):
        G = two_triples()
        for v in range(G.n):
            for idx in G.incidence[v]:
                assert v in G.edges[idx]

    @given(random_instances())
    @settings(max_examples=50, deadline=None)
    def test_degree_handshake_property(self, G):
        assert sum(G.degrees()) == sum(len(e) for e in G.edges)
        assert G.degrees() == tuple(len(ids) for ids in G.incidence)


def mixed_sizes():
    """Edges of sizes 1 to 3 and an isolated node 5."""
    return Hypergraph(n=6, edges=((0, 1, 2), (1,), (2, 3), (3, 4)))


class TestArrayViews:
    @pytest.mark.parametrize(
        "G", [mixed_sizes(), two_triples(), Hypergraph(n=3, edges=()), Hypergraph(n=0, edges=())]
    )
    def test_views_match_edges_and_incidence(self, G):
        self.check_views(G)

    @given(random_instances())
    @settings(max_examples=50, deadline=None)
    def test_views_property(self, G):
        self.check_views(G)

    def check_views(self, G):
        edge_ptr, nodes = G.edge_csr
        assert edge_ptr.shape == (len(G.edges) + 1,) and nodes.dtype == np.int32
        for i, edge in enumerate(G.edges):
            assert tuple(nodes[edge_ptr[i]:edge_ptr[i + 1]].tolist()) == edge
        indptr, indices = G.incidence_csr
        assert indptr.shape == (G.n + 1,) and indices.dtype == np.int32
        expected = incidence_reference(G)
        assert G.incidence == expected
        for v, edge_ids in enumerate(expected):
            assert tuple(indices[indptr[v]:indptr[v + 1]].tolist()) == edge_ids

    def test_views_are_read_only_and_cached(self):
        G = mixed_sizes()
        for view in (*G.edge_csr, *G.incidence_csr):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
        assert G.edge_csr is G.edge_csr
        assert G.incidence_csr is G.incidence_csr


class TestHittingSets:
    def test_shared_node_hits_both(self):
        assert is_hitting_set(two_triples(), {2})

    def test_one_node_per_edge(self):
        G = two_triples()
        assert is_hitting_set(G, {0, 3})
        assert not is_hitting_set(G, {0, 1})

    def test_empty_set_hits_empty_graph(self):
        assert is_hitting_set(canonicalize(3, []), frozenset())

    def test_minimal_singleton(self):
        assert is_minimal_hitting_set(two_triples(), {2})

    def test_minimal_two_nodes(self):
        # removing either of 0, 3 leaves an edge unhit
        assert is_minimal_hitting_set(two_triples(), {0, 3})

    def test_redundant_member_not_minimal(self):
        assert not is_minimal_hitting_set(two_triples(), {2, 3})

    def test_non_hitting_set_not_minimal(self):
        assert not is_minimal_hitting_set(two_triples(), {0})

    @given(random_instances())
    @settings(max_examples=50, deadline=None)
    def test_minimal_implies_hitting(self, G):
        for members in itertools.combinations(range(G.n), min(G.n, 2)):
            if is_minimal_hitting_set(G, members):
                assert is_hitting_set(G, members)


class TestPruneToMinimal:
    def test_hand_trace_drops_endpoints(self):
        # drop 0 (1 still covers {0,1}), keep 1, drop 2
        assert prune_to_minimal(path_graph(), {0, 1, 2}, [0, 1, 2]) == {1}

    def test_hand_trace_drops_middle_first(self):
        # dropping 1 first forces both endpoints to stay
        assert prune_to_minimal(path_graph(), {0, 1, 2}, [1, 0, 2]) == {0, 2}

    def test_already_minimal_is_fixed_point(self):
        G = two_triples()
        for order in itertools.permutations([0, 3]):
            assert prune_to_minimal(G, {0, 3}, order) == {0, 3}

    def test_rejects_non_hitting_input(self):
        with pytest.raises(ValueError, match="not a hitting set"):
            prune_to_minimal(path_graph(), {0}, [0])

    def test_rejects_order_that_is_not_a_permutation(self):
        with pytest.raises(ValueError, match="permutation"):
            prune_to_minimal(path_graph(), {0, 1, 2}, [0, 1])

    @given(random_instances(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_output_minimal_subset_of_input(self, G, rnd):
        start = set(range(G.n))
        order = list(start)
        rnd.shuffle(order)
        pruned = prune_to_minimal(G, start, order)
        assert pruned <= start
        assert is_minimal_hitting_set(G, pruned)

    @given(random_instances(), st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_single_pass_leaves_private_coverage(self, G, rnd):
        # after pruning, every survivor is the sole cover of some edge
        order = list(range(G.n))
        rnd.shuffle(order)
        pruned = prune_to_minimal(G, set(range(G.n)), order)
        for v in pruned:
            assert any(
                v in e and not (set(e) & pruned) - {v} for e in G.edges
            ), f"node {v} has no private edge"


@st.composite
def graphs_and_node_lists(draw):
    """A graph on 0-8 nodes with 0-10 distinct edges of sizes 1-4, so
    isolated nodes and size-1 edges occur, and a node list, maybe empty."""
    n = draw(st.integers(0, 8))
    edges = [] if n == 0 else draw(st.lists(
        st.frozensets(st.integers(0, n - 1), min_size=1, max_size=min(4, n)),
        max_size=10,
        unique=True,
    ))
    G = Hypergraph(n, tuple(tuple(sorted(e)) for e in edges))
    return G, draw(st.lists(st.integers(0, max(n - 1, 0)), max_size=n))


class TestUnhitEdges:
    @given(graphs_and_node_lists(), st.booleans())
    @example((Hypergraph(0, ()), []), False)
    @example((Hypergraph(4, ()), [1]), True)
    @example((Hypergraph(5, ((0,), (1, 2), (3,))), []), False)
    @example((Hypergraph(5, ((0,), (1, 2), (3,))), [2, 2, 3]), False)
    @settings(max_examples=200, deadline=None)
    def test_matches_per_edge_loop(self, case, as_set):
        G, nodes = case
        s = frozenset(nodes)
        expected = [i for i, e in enumerate(G.edges) if not any(v in s for v in e)]
        assert unhit_edges(G, s if as_set else nodes) == expected
        assert is_hitting_set(G, nodes) == (not expected)


class TestLabeledHypergraph:
    def test_core_must_hit_every_edge(self):
        with pytest.raises(ValueError, match="edge 1"):
            LabeledHypergraph(two_triples(), frozenset({0}))

    def test_valid_core_accepted(self):
        LG = LabeledHypergraph(two_triples(), frozenset({2}))
        assert LG.core == {2}

    def test_core_members_must_be_in_range(self):
        with pytest.raises(ValueError):
            LabeledHypergraph(two_triples(), frozenset({2, 9}))


class TestCliqueGraph:
    def test_single_triangle(self):
        w = clique_graph(canonicalize(3, [[0, 1, 2]]))
        expect = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]], dtype=float)
        assert np.array_equal(w, expect)

    def test_pair_counts(self):
        w = clique_graph(canonicalize(4, [[0, 1, 2], [0, 1, 3]]))
        assert w[0, 1] == 2
        for i, j in [(0, 2), (1, 2), (0, 3), (1, 3)]:
            assert w[i, j] == 1
        assert w[2, 3] == 0

    def test_empty_graph_all_zero(self):
        assert not clique_graph(canonicalize(4, [])).any()

    @given(random_instances())
    @settings(max_examples=50, deadline=None)
    def test_handshake_over_edges(self, G):
        w = clique_graph(G)
        assert np.array_equal(w, w.T)
        assert not w.diagonal().any()
        total = sum(len(e) * (len(e) - 1) // 2 for e in G.edges)
        assert w[np.triu_indices(G.n, k=1)].sum() == total


class TestUniformSubhypergraph:
    def test_keeps_only_requested_size(self):
        G = canonicalize(3, [[0, 1], [0, 1, 2]])
        sub, remap = uniform_subhypergraph(G, 3)
        assert sub.n == 3
        assert len(sub.edges) == 1
        assert len(sub.edges[0]) == 3
        assert sorted(remap) == [0, 1, 2]

    def test_uniform_input_unchanged_up_to_reindex(self):
        G = canonicalize(5, [[0, 1, 2], [2, 3, 4]])
        sub, remap = uniform_subhypergraph(G, 3)
        mapped = {tuple(sorted(remap[v] for v in e)) for e in G.edges}
        assert mapped == set(sub.edges)

    def test_oversized_request_gives_empty(self):
        sub, remap = uniform_subhypergraph(canonicalize(2, [[0, 1]]), 4)
        assert sub.edges == ()
        assert remap == {}

    @given(random_instances(), st.integers(min_value=2, max_value=4))
    @settings(max_examples=50, deadline=None)
    def test_result_is_uniform_and_faithful(self, G, r):
        sub, remap = uniform_subhypergraph(G, r)
        inverse = {new: old for old, new in remap.items()}
        assert len(inverse) == len(remap) == sub.n
        for e in sub.edges:
            assert len(e) == r
            assert tuple(sorted(inverse[v] for v in e)) in G.edges
        assert len(sub.edges) == sum(1 for e in G.edges if len(e) == r)

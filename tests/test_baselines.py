"""Tests for the six comparison rankers."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import umhs.baselines
from reference import clique_graph
from umhs import (
    Hypergraph,
    IterationParams,
    Ranking,
    SbmParams,
    borgatti_everett_ranking,
    canonicalize,
    clique_eigen_ranking,
    degree_ranking,
    h_eigen_ranking,
    kcore_ranking,
    random_hypergraph,
    sbm_hypergraph,
    uniform_subhypergraph,
    z_eigen_ranking,
)
from umhs.baselines import _clique_apply, _fixed_point, _tensor_apply

ALL_RANKERS = [
    degree_ranking,
    clique_eigen_ranking,
    z_eigen_ranking,
    h_eigen_ranking,
    borgatti_everett_ranking,
    kcore_ranking,
]


def single_triple():
    return canonicalize(3, [[0, 1, 2]])


def connected_pair_graph(seed, n=8, m=10):
    """2-uniform connected instance (retries seeds until connected)."""
    while True:
        G = random_hypergraph(n, 2, m, seed=seed)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in G.edges:
            parent[find(a)] = find(b)
        if len({find(v) for v in range(n)}) == 1:
            return G
        seed += 1000


def reference_tensor_apply(G, x):
    """f(x)_i = sum over edges containing i of the product of the other
    members, one edge and one member at a time."""
    f = np.zeros(G.n)
    for edge in G.edges:
        vals = [x[v] for v in edge]
        for pos, v in enumerate(edge):
            prod = 1.0
            for j, val in enumerate(vals):
                if j != pos:
                    prod *= val
            f[v] += prod
    return f


def reference_clique_apply(G, x):
    """(Wx)_i = sum over edges containing i of (the edge's sum of x) - x_i,
    one edge and one member at a time."""
    f = np.zeros(G.n)
    for edge in G.edges:
        total = 0.0
        for v in edge:
            total += x[v]
        for v in edge:
            f[v] += total - x[v]
    return f


def reference_power(apply, n, it, norm_ord):
    """Shifted power iteration x <- (W x + x) / norm, one step at a time;
    apply(x) is W x."""
    x = np.full(n, 1.0 / n)
    residual = float("inf")
    for step in range(1, it.max_iters + 1):
        y = apply(x) + x
        total = np.linalg.norm(y, ord=norm_ord)
        if total == 0.0:
            return x, True, 0.0, step
        y /= total
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < it.tolerance:
            return x, True, residual, step
    return x, False, residual, it.max_iters


def pair_count(edges):
    return sum(len(e) * (len(e) - 1) // 2 for e in edges)


def reference_clique_eigen(G, it):
    """Per component, found by search over node adjacency: the power
    iteration on the component's own edges, renumbered to local nodes."""
    neighbours = [set() for _ in range(G.n)]
    for edge in G.edges:
        for v in edge:
            neighbours[v].update(edge)
    total_weight = pair_count(G.edges)
    scores = np.zeros(G.n)
    converged, residual, steps = True, 0.0, 0
    seen = set()
    for start in range(G.n):
        if start in seen:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            nxt = neighbours[frontier.pop()] - comp
            frontier += nxt
            comp |= nxt
        seen |= comp
        if len(comp) < 2:
            continue
        nodes = sorted(comp)
        local = {v: i for i, v in enumerate(nodes)}
        sub = Hypergraph(len(nodes), tuple(
            tuple(local[v] for v in e) for e in G.edges if e[0] in comp))
        x, ok, res, k = reference_power(
            lambda y: reference_clique_apply(sub, y), len(nodes), it, 1)
        share = pair_count(sub.edges) / total_weight
        scores[nodes] = x * (share / float(x.max()))
        converged, residual, steps = converged and ok, max(residual, res), max(steps, k)
    return scores, converged, residual, steps


def dense_clique_eigen(G, it):
    """clique-eigen as the package computed it over the dense clique matrix."""
    w = clique_graph(G)
    total_weight = float(w.sum()) / 2.0
    scores = np.zeros(G.n)
    converged, residual, steps = True, 0.0, 0
    seen = set()
    for start in range(G.n):
        if start in seen or total_weight == 0:
            continue
        comp, frontier = {start}, [start]
        while frontier:
            nxt = np.flatnonzero(w[frontier.pop()] > 0).tolist()
            frontier += [v for v in nxt if v not in comp]
            comp.update(nxt)
        seen |= comp
        idx = np.array(sorted(comp))
        sub = w[np.ix_(idx, idx)]
        if len(idx) < 2 or sub.sum() == 0.0:
            continue
        x, ok, res, k = reference_power(lambda y: sub @ y, len(idx), it, 1)
        scores[idx] = x * ((float(sub.sum()) / 2.0 / total_weight) / float(x.max()))
        converged, residual, steps = converged and ok, max(residual, res), max(steps, k)
    return scores, converged, residual, steps


def reference_tensor(G, it, kind):
    """The z- ("z") or h-eigenvector ("h") iteration over the reference apply."""
    exponent = 1.0 / (len(G.edges[0]) - 1)
    x = np.full(G.n, 1.0 / G.n)
    residual, converged, steps = float("inf"), False, 0
    for steps in range(1, it.max_iters + 1):
        f = reference_tensor_apply(G, x)
        if kind == "z":
            total = float(np.linalg.norm(f, ord=2))
        else:
            f = f ** exponent
            total = float(f.sum())
        if total == 0.0:
            x, converged, residual = f, True, 0.0
            break
        f /= total
        residual = float(np.abs(f - x).sum())
        x = f
        if residual < it.tolerance:
            converged = True
            break
    return x, converged, residual, steps


def reference_kcore_ranking(G):
    """The k-core peel with a linear scan for each minimum-degree node."""
    degrees = list(G.degrees())
    original = G.degrees()
    alive_edge = [True] * len(G.edges)
    remaining = set(range(G.n))
    core = [0] * G.n
    threshold = 0
    while remaining:
        v = min(remaining, key=lambda u: (degrees[u], u))
        threshold = max(threshold, degrees[v])
        core[v] = threshold
        remaining.remove(v)
        for idx in G.incidence[v]:
            if alive_edge[idx]:
                alive_edge[idx] = False
                for u in G.edges[idx]:
                    if u in remaining:
                        degrees[u] -= 1
    span = max(original, default=0) + 1
    scores = [core[v] * span + original[v] for v in range(G.n)]
    return Ranking.from_scores(scores, note="k-core (peeling threshold)")


def reference_rankings(G, it):
    """method -> (scores, converged, residual, iterations) by the reference loops."""
    out = {"clique-eigen": reference_clique_eigen(G, it)}
    if any(len(e) > 1 for e in G.edges):
        out["borgatti-everett"] = reference_power(
            lambda x: reference_clique_apply(G, x), G.n, it, 2)
    if len({len(e) for e in G.edges}) == 1:
        out["z-eigen"] = reference_tensor(G, it, "z")
        out["h-eigen"] = reference_tensor(G, it, "h")
    return out


EIGEN_RANKERS = {
    "clique-eigen": clique_eigen_ranking,
    "z-eigen": z_eigen_ranking,
    "h-eigen": h_eigen_ranking,
    "borgatti-everett": borgatti_everett_ranking,
}


@st.composite
def uniform_inputs(draw):
    """An r-uniform graph (r = 2..6, often with isolated nodes) and a vector
    x on its nodes that mixes exact zeros with arbitrary signed values."""
    r = draw(st.integers(min_value=2, max_value=6))
    n = draw(st.integers(min_value=r, max_value=r + 6))
    edges = draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=r, max_size=r, unique=True),
        min_size=1, max_size=12,
    ))
    value = st.just(0.0) | st.floats(-1e3, 1e3, allow_nan=False)
    x = draw(st.lists(value, min_size=n, max_size=n))
    return canonicalize(n, edges), np.array(x)


class TestTensorApply:
    @given(uniform_inputs())
    @example((canonicalize(3, [[0, 1, 2]]), np.array([0.0, 2.0, 3.0])))
    @example((canonicalize(7, [[1, 3, 4, 5, 6]]),
              np.array([0.1, 0.0, 3.0, 0.3, 0.7, 1e-300, 1e300])))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bit_for_bit(self, case):
        G, x = case
        assert np.array_equal(_tensor_apply(G, x), reference_tensor_apply(G, x))

    def test_isolated_nodes_get_zero(self):
        G = canonicalize(6, [[0, 2, 4]])
        f = _tensor_apply(G, np.arange(1.0, 7.0))
        assert f.tolist() == [15.0, 0.0, 5.0, 0.0, 3.0, 0.0]


@st.composite
def clique_inputs(draw):
    """A graph with edges of sizes 1..5 (size-1 edges too, so built
    directly), often isolated nodes or no edge at all, and a vector x on its
    nodes that mixes exact zeros with arbitrary signed values."""
    n = draw(st.integers(min_value=0, max_value=9))
    edges = []
    if n:
        edges = draw(st.lists(
            st.frozensets(st.integers(0, n - 1), min_size=1, max_size=5),
            max_size=12, unique=True,
        ))
    value = st.just(0.0) | st.floats(-1e3, 1e3, allow_nan=False)
    x = draw(st.lists(value, min_size=n, max_size=n))
    return Hypergraph(n, tuple(tuple(sorted(e)) for e in edges)), np.array(x)


class TestCliqueApply:
    @given(clique_inputs())
    @example((canonicalize(4, []), np.array([1.0, 2.0, 3.0, 4.0])))
    @example((Hypergraph(3, ((1,), (0, 2))), np.array([0.5, 7.0, 1e300])))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_bit_for_bit(self, case):
        G, x = case
        got = _clique_apply(*G.edge_csr, G.n, x)
        assert np.array_equal(got, reference_clique_apply(G, x))

    @given(clique_inputs())
    @settings(max_examples=200, deadline=None)
    def test_reference_matches_dense_matrix(self, case):
        # relative to the sum of the absolute terms each entry adds up: the
        # edge sums include x_i itself, so that is the scale rounding works on
        G, x = case
        w = clique_graph(G)
        scale = w @ np.abs(x) + np.array(G.degrees()) * np.abs(x)
        assert (np.abs(reference_clique_apply(G, x) - w @ x) <= 1e-12 * scale).all()

    def test_hand_example(self):
        # W[0,1] = 2 and every other pair within an edge 1; node 4 holds only
        # a one-member edge and node 5 none, so both get zero
        G = Hypergraph(6, ((0, 1, 2), (0, 1, 3), (4,)))
        f = _clique_apply(*G.edge_csr, G.n, np.arange(1.0, 7.0))
        assert f.tolist() == [11.0, 9.0, 3.0, 3.0, 0.0, 0.0]


class TestFixedPoint:
    def test_zero_norm_stops_at_once_as_converged(self):
        x, converged, residual, steps = _fixed_point(
            lambda x: x * 0.0, lambda y: float(y.sum()), np.ones(3), IterationParams()
        )
        assert x.tolist() == [0.0, 0.0, 0.0]
        assert (converged, residual, steps) == (True, 0.0, 1)

    def test_cap_reports_non_convergence(self):
        # the iterate doubles its first entry every step, so it never settles
        step = lambda x: x * np.array([2.0, 1.0])
        x, converged, residual, steps = _fixed_point(
            step, lambda y: float(y.sum()), np.array([0.5, 0.5]),
            IterationParams(max_iters=3),
        )
        assert not converged
        assert steps == 3
        assert residual > 0
        assert x.tolist() == pytest.approx([8 / 9, 1 / 9])


def eigen_parity_graphs():
    return [
        single_triple(),
        canonicalize(4, [[0, 1, 2], [0, 1, 3]]),
        canonicalize(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]),
        canonicalize(5, [[0, 1, 2]]),
        canonicalize(6, [[0, 1, 2], [3, 4, 5]]),
        canonicalize(5, [[0, 1], [0, 2], [0, 3], [0, 4]]),
        canonicalize(4, []),
        random_hypergraph(8, 3, 9, seed=1),
        *(uniform_subhypergraph(random_hypergraph(9, 3, 11, seed=s), 3)[0]
          for s in (3, 4)),
        *(connected_pair_graph(seed) for seed in range(3)),
        Hypergraph(5, ((0,), (1, 2), (2, 3, 4), (3,))),
    ]


PARITY_SETTINGS = pytest.mark.parametrize("it", [
    IterationParams(),
    IterationParams(max_iters=7),
    IterationParams(tolerance=1e-30, max_iters=1),
], ids=["default", "cap7", "cap1"])


class TestEigenParity:
    @PARITY_SETTINGS
    @pytest.mark.parametrize("index", range(len(eigen_parity_graphs())))
    def test_fixtures_match_reference_loops(self, index, it):
        self.check(eigen_parity_graphs()[index], it)

    def test_sbm_instance_matches_reference_loops(self):
        G = sbm_hypergraph(SbmParams(40, 450, 3, 0.05, 0.0005, seed=2)).graph
        assert G.n == 490
        self.check(G, IterationParams())

    @staticmethod
    def check(G, it):
        expected = reference_rankings(G, it)
        for method, ranker in EIGEN_RANKERS.items():
            if method not in expected and len({len(e) for e in G.edges}) > 1:
                with pytest.raises(ValueError, match="uniform"):
                    ranker(G, it)
                continue
            got = ranker(G, it)
            if method not in expected:
                assert got.iterations == 0 and got.converged
                continue
            scores, converged, residual, steps = expected[method]
            want = Ranking.from_scores(scores, converged=converged, residual=residual)
            assert got.scores == want.scores, method
            assert got.order == want.order, method
            assert (got.converged, got.residual, got.iterations) == (
                converged, residual, steps), method


class TestDenseParity:
    """The clique rankers against the loops over the dense clique matrix:
    the same stopping step, and scores equal up to summation order."""

    @PARITY_SETTINGS
    @pytest.mark.parametrize("index", range(len(eigen_parity_graphs())))
    def test_fixtures_match_dense_loops(self, index, it):
        self.check(eigen_parity_graphs()[index], it, same_order=False)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sbm_instances_match_dense_loops(self, seed):
        G = sbm_hypergraph(SbmParams(40, 450, 3, 0.05, 0.0005, seed=seed)).graph
        assert G.n == 490
        self.check(G, IterationParams(), same_order=True)

    @staticmethod
    def check(G, it, same_order):
        w = clique_graph(G)
        expected = {"clique-eigen": dense_clique_eigen(G, it)}
        if w.sum() > 0:
            expected["borgatti-everett"] = reference_power(lambda x: w @ x, G.n, it, 2)
        for method, (scores, converged, _, steps) in expected.items():
            got = EIGEN_RANKERS[method](G, it)
            assert (got.converged, got.iterations) == (converged, steps), method
            assert np.allclose(got.scores, scores, rtol=0, atol=1e-12), method
            if same_order:
                assert got.order == Ranking.from_scores(scores).order, method


class TestCliqueRankersScale:
    @pytest.mark.parametrize("ranker", [clique_eigen_ranking, borgatti_everett_ranking])
    def test_sparse_graph_needs_no_dense_matrix(self, ranker):
        # the dense clique matrix alone would take 20,000^2 * 8 B = 3.2 GB
        G = random_hypergraph(20_000, 3, 20_000, seed=0)
        tracemalloc.start()
        try:
            r = ranker(G)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.converged
        assert peak < 32 * 2**20

    def test_each_component_applies_only_its_own_edges(self, monkeypatch):
        # 3000 disjoint edges of sizes 2, 3, 4 in turn, then 10 isolated nodes
        sizes = [2, 3, 4] * 1000
        starts = np.cumsum([0] + sizes)
        G = Hypergraph(int(starts[-1]) + 10, tuple(
            tuple(range(a, a + k)) for a, k in zip(starts.tolist(), sizes)))
        calls = []

        def spy(indptr, members, n, x):
            calls.append((n, len(indptr) - 1))
            return _clique_apply(indptr, members, n, x)

        monkeypatch.setattr(umhs.baselines, "_clique_apply", spy)
        r = clique_eigen_ranking(G)
        assert r.converged
        assert calls and all(n <= 4 and m == 1 for n, m in calls)
        assert len(calls) <= len(sizes) * r.iterations
        # components of one shape tie exactly, so the order is by index
        # within each shape: size-4 edges first (largest weight share)
        for k in (2, 3, 4):
            assert len({r.scores[v] for a, s in zip(starts, sizes) if s == k
                        for v in range(a, a + k)}) == 1
        assert r.scores[-10:] == (0.0,) * 10
        assert list(r.order[:4000]) == [
            v for a, s in zip(starts.tolist(), sizes) if s == 4 for v in range(a, a + 4)]


class TestRankingType:
    def test_from_scores_breaks_ties_by_index(self):
        r = Ranking.from_scores([1.0, 3.0, 1.0, 3.0])
        assert list(r.order) == [1, 3, 0, 2]

    def test_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            Ranking(scores=(1.0, 2.0), order=(0, 0))

    def test_order_must_match_scores(self):
        with pytest.raises(ValueError):
            Ranking(scores=(1.0, 2.0), order=(0, 1))

    def test_carries_convergence_metadata(self):
        r = Ranking.from_scores([0.5], converged=False, residual=0.25, note="why")
        assert not r.converged
        assert r.residual == 0.25
        assert r.note == "why"


class TestDegreeRanking:
    def test_shared_node_first(self):
        G = canonicalize(5, [[0, 1, 2], [2, 3, 4]])
        assert degree_ranking(G).order[0] == 2

    def test_regular_instance_falls_back_to_index_order(self):
        G = canonicalize(4, [[0, 1], [1, 2], [2, 3], [0, 3]])
        assert list(degree_ranking(G).order) == [0, 1, 2, 3]

    def test_empty_graph(self):
        r = degree_ranking(canonicalize(3, []))
        assert list(r.order) == [0, 1, 2]
        assert r.scores == (0.0, 0.0, 0.0)


class TestCliqueEigenRanking:
    def test_single_edge_uniform(self):
        r = clique_eigen_ranking(single_triple())
        assert r.scores[0] == pytest.approx(r.scores[1]) == pytest.approx(r.scores[2])
        assert r.converged

    def test_two_overlapping_triples(self):
        G = canonicalize(4, [[0, 1, 2], [0, 1, 3]])
        r = clique_eigen_ranking(G)
        assert set(r.order[:2]) == {0, 1}
        assert r.scores[0] == pytest.approx(r.scores[1])
        assert r.scores[2] == pytest.approx(r.scores[3])
        assert r.scores[0] > r.scores[2]

    def test_duplicate_components_score_identically(self):
        G = canonicalize(6, [[0, 1, 2], [3, 4, 5]])
        r = clique_eigen_ranking(G)
        for v in range(3):
            assert r.scores[v] == pytest.approx(r.scores[v + 3])

    def test_empty_graph_uniform_scores(self):
        r = clique_eigen_ranking(canonicalize(4, []))
        assert len(set(r.scores)) == 1
        assert list(r.order) == [0, 1, 2, 3]

    def test_isolated_nodes_scored_below_component(self):
        G = canonicalize(5, [[0, 1, 2]])
        r = clique_eigen_ranking(G)
        assert set(r.order[:3]) == {0, 1, 2}
        assert r.scores[3] == r.scores[4] == 0.0

    def test_one_member_edges_only_score_zero(self):
        r = clique_eigen_ranking(Hypergraph(3, ((0,), (2,))))
        assert r.scores == (0.0, 0.0, 0.0)
        assert (r.converged, r.iterations) == (True, 0)


class TestTensorEigenRankings:
    def test_z_single_edge_uniform(self):
        r = z_eigen_ranking(single_triple())
        assert r.scores[0] == pytest.approx(r.scores[1]) == pytest.approx(r.scores[2])

    def test_h_single_edge_uniform(self):
        r = h_eigen_ranking(single_triple())
        assert r.scores[0] == pytest.approx(r.scores[1]) == pytest.approx(r.scores[2])

    def test_node_transitive_instance_uniform(self):
        G = canonicalize(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        for ranker in (z_eigen_ranking, h_eigen_ranking):
            r = ranker(G)
            assert max(r.scores) == pytest.approx(min(r.scores))

    @pytest.mark.parametrize("seed", range(6))
    def test_pairwise_reduction_matches_clique_eigen(self, seed):
        # on a 2-uniform instance the tensor apply is the 0/1 clique matrix,
        # so both tensor rankings must order nodes like plain eigencentrality
        G = connected_pair_graph(seed)
        reference = clique_eigen_ranking(G).order
        assert z_eigen_ranking(G).order == reference
        assert h_eigen_ranking(G).order == reference

    def test_non_uniform_input_rejected(self):
        G = canonicalize(4, [[0, 1], [1, 2, 3]])
        with pytest.raises(ValueError, match="uniform"):
            z_eigen_ranking(G)
        with pytest.raises(ValueError, match="uniform"):
            h_eigen_ranking(G)

    def test_isolated_node_scores_zero_and_ranks_last(self):
        G = canonicalize(4, [[0, 1, 2]])
        for ranker in (z_eigen_ranking, h_eigen_ranking):
            r = ranker(G)
            assert r.scores[3] == 0.0
            assert r.order[-1] == 3

    def test_non_convergence_is_reported(self):
        # asymmetric degrees keep the iterate moving, so one step cannot
        # reach an exact fixed point
        G = canonicalize(4, [[0, 1, 2], [0, 1, 3]])
        r = z_eigen_ranking(G, IterationParams(tolerance=1e-30, max_iters=1))
        assert not r.converged
        assert "convergence" in r.note
        assert r.residual > 0
        assert r.iterations == 1


class TestBorgattiEverettRanking:
    def test_hub_ranked_first(self):
        G = canonicalize(5, [[0, 1], [0, 2], [0, 3], [0, 4]])
        r = borgatti_everett_ranking(G)
        assert r.order[0] == 0

    def test_single_edge_uniform(self):
        r = borgatti_everett_ranking(single_triple())
        assert max(r.scores) == pytest.approx(min(r.scores))

    def test_scores_unit_l2_norm(self):
        G = random_hypergraph(8, 3, 9, seed=1)
        r = borgatti_everett_ranking(G)
        assert np.linalg.norm(r.scores) == pytest.approx(1.0)

    def test_empty_graph(self):
        r = borgatti_everett_ranking(canonicalize(3, []))
        assert list(r.order) == [0, 1, 2]
        assert all(s == r.scores[0] for s in r.scores)

    def test_one_member_edges_only_score_zero(self):
        r = borgatti_everett_ranking(Hypergraph(3, ((0,), (2,))))
        assert r.scores == (0.0, 0.0, 0.0)
        assert (r.converged, r.iterations) == (True, 0)

    def test_variant_recorded_in_note(self):
        r = borgatti_everett_ranking(single_triple())
        assert "borgatti-everett" in r.note


class TestKcoreRanking:
    def test_single_edge_all_core_one(self):
        r = kcore_ranking(single_triple())
        assert len(set(r.scores)) == 1
        assert list(r.order) == [0, 1, 2]

    def test_complete_triples_all_core_three(self):
        G = canonicalize(4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]])
        r = kcore_ranking(G)
        assert len(set(r.scores)) == 1

    def test_isolated_node_last_with_zero_score(self):
        G = canonicalize(4, [[0, 1, 2]])
        r = kcore_ranking(G)
        assert r.order[-1] == 3
        assert r.scores[3] == 0.0

    def test_hand_peel_dense_core_with_pendant(self):
        # {0,1,2,3} form all four triples (core number 3); the pendant edge
        # {3,4,5} dies at threshold 1, so 4 and 5 get core number 1; node 3
        # leads on raw degree within the top block
        G = canonicalize(6, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3], [3, 4, 5]])
        r = kcore_ranking(G)
        assert list(r.order) == [3, 0, 1, 2, 4, 5]
        assert r.scores[4] == r.scores[5]
        assert min(r.scores[v] for v in (0, 1, 2, 3)) > r.scores[4]


class TestKcoreParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 30), st.integers(2, 5), st.integers(0, 60), st.integers(0, 10**6)
    )
    def test_random_graphs_match_reference(self, n, r_max, m, seed):
        available = sum(math.comb(n, s) for s in range(2, min(r_max, n) + 1))
        G = random_hypergraph(n, r_max, min(m, available), seed=seed)
        assert kcore_ranking(G) == reference_kcore_ranking(G)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_sbm_instance_matches_reference(self, seed):
        G = sbm_hypergraph(SbmParams(40, 450, 3, 0.05, 0.0005, seed=seed)).graph
        assert kcore_ranking(G) == reference_kcore_ranking(G)


class TestCommonProperties:
    @pytest.mark.parametrize("ranker", ALL_RANKERS)
    def test_order_is_permutation(self, ranker):
        G, _ = uniform_subhypergraph(random_hypergraph(9, 3, 11, seed=3), 3)
        r = ranker(G)
        assert sorted(r.order) == list(range(G.n))

    @pytest.mark.parametrize("ranker", ALL_RANKERS)
    def test_rerun_bit_identical(self, ranker):
        G, _ = uniform_subhypergraph(random_hypergraph(9, 3, 11, seed=4), 3)
        assert ranker(G) == ranker(G)

    @pytest.mark.parametrize("ranker", ALL_RANKERS)
    def test_scores_non_increasing_along_order(self, ranker):
        G, _ = uniform_subhypergraph(random_hypergraph(10, 3, 12, seed=5), 3)
        r = ranker(G)
        for a, b in zip(r.order, r.order[1:]):
            assert r.scores[a] >= r.scores[b]

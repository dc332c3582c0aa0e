"""Acceptance suite: one test per shipped behavioral criterion.

Each test prints a single `criterion NN PASS` line with its measured
numbers; a failed assertion keeps the line from printing, so the recorded
output has exactly one pass/fail verdict per criterion.
"""

import io
import itertools
import math
import statistics
import time

import numpy as np
import pytest

from reference import has_independent_set, independence_number_exhaustive
from umhs import (
    LabeledHypergraph,
    OracleLimits,
    Ranking,
    SbmParams,
    TreeFamilyParams,
    UmhsConfig,
    auprc,
    canonicalize,
    check_membership_lemmas,
    consistent_labeling_hitting_set,
    degree_ranking,
    enumerate_minimal_hitting_sets,
    greedy_matching_certificate,
    independence_number,
    independence_threshold,
    is_hitting_set,
    is_minimal_hitting_set,
    kernelize,
    min_hitting_set_size,
    precision_at_core_size,
    prune_to_minimal,
    random_hypergraph,
    rank_nodes,
    sbm_hypergraph,
    sigma,
    tree_family,
    umhs,
    union_minimal,
)
from umhs.cli import ExperimentConfig, _execute, write_results_csv
from umhs.dataio import read_hypergraph, write_hypergraph

LIMITS = OracleLimits(max_nodes=26, max_k=12, time_budget=120.0)

SBM_RECOVERY = [
    SbmParams(core_size=15, fringe_size=60, r=3, p=0.15, q=0.01, seed=seed)
    for seed in range(20)
]


def bounded_random_instance(seed, n_max=30, r_cap=5, m_max=200):
    """Deterministic random instance with the requested size caps."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(4, n_max + 1))
    r_max = int(rng.integers(2, min(r_cap, n) + 1))
    available = sum(math.comb(n, s) for s in range(2, r_max + 1))
    m = int(rng.integers(1, min(m_max, available) + 1))
    return random_hypergraph(n, r_max, m, seed=seed)


def rank3_small_instance(seed):
    """n <= 16 instance of rank exactly 3 (resamples until the rank lands)."""
    while True:
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 17))
        m = int(rng.integers(6, 15))
        G = random_hypergraph(n, 3, m, seed=seed)
        if G.rank == 3:
            return G
        seed += 100_000


def hub_dense_instance(n, hub_count, r, edge_count, seed):
    """Dense instance whose edges all pass through the first hub_count nodes,
    keeping the matching number at or below hub_count."""
    rng = np.random.default_rng(seed)
    edges = set()
    guard = 0
    while len(edges) < edge_count and guard < 400 * edge_count:
        guard += 1
        h = int(rng.integers(0, hub_count))
        rest = rng.choice(
            [v for v in range(n) if v != h], size=r - 1, replace=False
        )
        edges.add(tuple(sorted([h, *rest.tolist()])))
    assert len(edges) == edge_count, "hub construction could not reach the edge count"
    return canonicalize(n, sorted(edges))


def ranking_from_order(order):
    n = len(order)
    scores = [0.0] * n
    for position, v in enumerate(order):
        scores[v] = float(n - position)
    return Ranking.from_scores(scores)


@pytest.fixture(scope="module")
def recovery_instances():
    return [sbm_hypergraph(params) for params in SBM_RECOVERY]


def test_c01_greedy_correctness():
    started = time.perf_counter()
    for seed in range(1000):
        G = bounded_random_instance(seed)
        rng = np.random.default_rng(seed + 1_000_000)
        s, selected = greedy_matching_certificate(G, rng.permutation(len(G.edges)))
        assert is_hitting_set(G, s)
        used = set()
        for idx in selected:
            members = set(G.edges[idx])
            assert not used & members, "selected edges must be pairwise disjoint"
            used |= members
        assert used == s
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 01 PASS: 1000/1000 greedy runs hit + maximal matching "
          f"({elapsed:.2f}s < 10s)")


def test_c02_pairwise_overlap_corollary():
    started = time.perf_counter()
    pairs = 0
    for seed in range(200):
        G = bounded_random_instance(seed + 5000, n_max=20, r_cap=4, m_max=40)
        r = G.rank
        rng = np.random.default_rng(seed)
        outputs = [
            greedy_matching_certificate(G, rng.permutation(len(G.edges)))[0]
            for _ in range(10)
        ]
        for s1, s2 in itertools.combinations(outputs, 2):
            # exact rational comparison: |S1 & S2| >= max(|S1|,|S2|) / r^2
            assert r * r * len(s1 & s2) >= max(len(s1), len(s2))
            pairs += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(f"criterion 02 PASS: {pairs} greedy pairs satisfy the r^2 overlap bound "
          f"({elapsed:.2f}s < 10s)")


@pytest.fixture(scope="module")
def rank3_oracle_instances():
    """100 rank-3 instances with oracle k* <= 5, shared by criteria 3 and 5."""
    kept = []
    seed = 0
    while len(kept) < 100:
        G = rank3_small_instance(seed)
        seed += 1
        k_star = min_hitting_set_size(G, LIMITS)
        if 1 <= k_star <= 5:
            kept.append((G, k_star))
    return kept


def test_c03_overlap_lemma_vs_oracle(rank3_oracle_instances):
    started = time.perf_counter()
    checked = 0
    for G, k_star in rank3_oracle_instances:
        s = greedy_matching_certificate(G, range(len(G.edges)))[0]
        r = G.rank
        for b in enumerate_minimal_hitting_sets(G, 2 * k_star, LIMITS):
            # exact rational form of |B & S| / |B| >= 1 / (2r)
            assert 2 * r * len(b & s) >= len(b), (
                f"B={sorted(b)} S={sorted(s)} violates the 1/(2r) bound"
            )
            checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(f"criterion 03 PASS: {checked} minimal sets vs greedy obey 1/(2r) "
          f"({elapsed:.2f}s < 60s)")


def test_c04_lower_bound_family():
    started = time.perf_counter()
    details = []
    for b, r in [(2, 2), (2, 3), (3, 2)]:
        params = TreeFamilyParams(b=b, r=r)
        T, k = tree_family(params)
        assert k == (r - 1) * (b - 1) + b
        union = union_minimal(T, k, LIMITS)
        assert union == frozenset(range(T.n))
        assert len(union) > b**r
        for seed in range(25):
            s = consistent_labeling_hitting_set(params, seed)
            assert len(s) == k
            assert is_minimal_hitting_set(T, s)
        details.append(f"T_{b}(r={r}): |U({k})|={len(union)}>{b**r}")
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 04 PASS: {'; '.join(details)}; 75 labelings minimal "
          f"({elapsed:.2f}s < 120s)")


def test_c05_union_size_upper_bound(rank3_oracle_instances):
    checked = 0
    for G, k_star in rank3_oracle_instances:
        r = G.rank
        for k in (k_star, min(k_star + 1, LIMITS.max_k)):
            union = union_minimal(G, k, LIMITS)
            assert len(union) <= r * math.factorial(r) * k**r
            checked += 1
    for b, rr in [(2, 2), (2, 3), (3, 2)]:
        T, k = tree_family(TreeFamilyParams(b=b, r=rr))
        assert len(union_minimal(T, k, LIMITS)) <= rr * math.factorial(rr) * k**rr
        checked += 1
    print(f"criterion 05 PASS: |U(k)| <= r*r!*k^r on {checked} feasible cases")


def test_c06_kernelization_equivalence():
    started = time.perf_counter()
    recipes = (
        [(2, 1, 1, 10 + (i % 6), 8 + (i % 4)) for i in range(40)]
        + [(2, 2, 1 + (i % 2), 12 + (i % 4), 12 + (i % 7)) for i in range(20)]
        + [(2, 3, 3, 13 + (i % 3), 20 + (i % 8)) for i in range(15)]
        + [(3, 2, 1 + (i % 2), 13 + (i % 3), 50 + (i % 11)) for i in range(15)]
        + [(3, 3, 3, 14 + (i % 2), 165 + 3 * (i % 9)) for i in range(10)]
    )
    assert len(recipes) == 100
    for index, (r, k, hub_count, n, edge_count) in enumerate(recipes):
        # only C(n,r) - C(n-hub_count,r) distinct edges touch a hub
        available = math.comb(n, r) - math.comb(n - hub_count, r)
        edge_count = min(edge_count, available)
        assert edge_count > sigma(r, k + 1)
        G = hub_dense_instance(n, hub_count, r, edge_count, seed=index)
        report = kernelize(G, k, limits=LIMITS)
        assert report.phases >= 1, f"instance {index} never entered a phase"
        assert not report.infeasible
        before = set(enumerate_minimal_hitting_sets(G, k, LIMITS))
        after = set(enumerate_minimal_hitting_sets(report.kernel, k, LIMITS))
        assert before == after, f"instance {index}: families diverge"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 06 PASS: 100/100 kernels preserve the minimal family "
          f"({elapsed:.2f}s < 120s)")


def test_c07_membership_lemma_flags():
    outside_flags = 0
    interior_flags = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 13))
        m = int(rng.integers(n, 2 * n + 1))
        available = math.comb(n, 2) + math.comb(n, 3)
        G = random_hypergraph(n, 3, min(m, available), seed=seed + 10_000)
        core = set(prune_to_minimal(G, range(n), rng.permutation(n).tolist()))
        core |= {v for v in range(n) if rng.random() < 0.3}
        report = check_membership_lemmas(LabeledHypergraph(G, frozenset(core)), LIMITS)
        assert report.all_in_union, (
            f"seed {seed}: flagged nodes {sorted(report.violations)} "
            f"missing from U({len(core)})"
        )
        outside_flags += len(report.outside_nodes)
        interior_flags += len(report.interior_premise_nodes)
    assert outside_flags > 0 and interior_flags > 0, "premises never exercised"
    print(f"criterion 07 PASS: 200 instances, {outside_flags} outside flags, "
          f"{interior_flags} interior flags, 0 violations")


def test_c08_alpha_duality():
    confirmed = 0
    for seed in range(500):
        G = bounded_random_instance(seed + 60_000, n_max=14, r_cap=4, m_max=25)
        alpha = independence_number(G, LIMITS)
        k_star = min_hitting_set_size(G, LIMITS)
        assert alpha + k_star == G.n
        if seed % 10 == 0:
            assert alpha == independence_number_exhaustive(G, LIMITS)
            confirmed += 1
    assert confirmed == 50
    print(f"criterion 08 PASS: alpha + k* == n on 500 instances, "
          f"{confirmed} exhaustively confirmed")


def test_c09_independence_monte_carlo():
    started = time.perf_counter()
    details = []
    for n, p in ((15, 0.7), (20, 0.9)):
        k, bound = independence_threshold(n, 3, p)
        vacuous = k >= n
        hits = 0
        for seed in range(300):
            lab = sbm_hypergraph(
                SbmParams(core_size=n, fringe_size=0, r=3, p=p, q=0.0, seed=seed)
            )
            if not has_independent_set(lab.graph, k, LIMITS):
                hits += 1
        phat = hits / 300
        se = math.sqrt(phat * (1 - phat) / 300)
        assert phat >= bound - 3 * se, (
            f"(n={n}, p={p}): {phat} < {bound} - 3*{se}"
        )
        details.append(
            f"(n={n},p={p}): k={k} {'VACUOUS (k >= n)' if vacuous else 'binding'} "
            f"phat={phat:.3f} bound={bound:.6f}"
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    print(f"criterion 09 PASS: {'; '.join(details)} ({elapsed:.2f}s < 300s)")


def test_c10_sbm_recovery_quality(recovery_instances):
    started = time.perf_counter()
    umhs_precisions = []
    degree_precisions = []
    for lab, params in zip(recovery_instances, SBM_RECOVERY):
        G, core = lab.graph, lab.core
        result = umhs(G, UmhsConfig(iterations=100, seed=params.seed))
        umhs_precisions.append(
            precision_at_core_size(rank_nodes(G, result.union_set), core)
        )
        degree_precisions.append(precision_at_core_size(degree_ranking(G), core))
    u_mean = statistics.mean(umhs_precisions)
    d_mean = statistics.mean(degree_precisions)
    chance = 15 / 75
    assert u_mean > chance, f"umhs mean {u_mean} not above chance {chance}"
    # the degree baseline saturates at 1.0 on these parameters (core degrees
    # are ~4x fringe degrees), so not-losing is the strongest paired outcome
    # available; see the decision ledger for the measured tie
    assert u_mean >= d_mean, f"umhs mean {u_mean} below degree mean {d_mean}"
    paired = [u - d for u, d in zip(umhs_precisions, degree_precisions)]
    assert min(paired) >= 0.0
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 10 PASS: umhs mean {u_mean:.3f} vs chance {chance:.3f} "
          f"(strict) and degree mean {d_mean:.3f} (no loss, paired) "
          f"({elapsed:.2f}s < 120s)")


def test_c11_iteration_leveling(recovery_instances):
    started = time.perf_counter()
    leveled = 0
    for lab, params in zip(recovery_instances, SBM_RECOVERY):
        cfg = UmhsConfig(iterations=200, seed=params.seed, record_trajectory=True)
        trajectory = umhs(lab.graph, cfg, core=lab.core).trajectory
        ordered = [size for size, _ in trajectory]
        sizes = dict(enumerate(ordered, start=1))
        assert ordered == sorted(ordered), "union size must be non-decreasing"
        if sizes[200] - sizes[150] <= 0.05 * sizes[150]:
            leveled += 1
    assert leveled >= 16, f"only {leveled}/20 runs leveled off"
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    print(f"criterion 11 PASS: monotone growth, {leveled}/20 runs grew <= 5% "
          f"over iterations 151..200 ({elapsed:.2f}s < 120s)")


def test_c12_average_precision_oracle():
    hand_ap, _ = auprc(ranking_from_order([0, 2, 1, 3]), {0, 1})
    assert abs(hand_ap - 5 / 6) < 1e-12
    checked = 0
    for n in range(1, 8):
        for order in itertools.permutations(range(n)):
            ranking = ranking_from_order(order)
            for size in range(1, n + 1):
                for core in itertools.combinations(range(n), size):
                    hits = 0
                    area = 0.0
                    for i, v in enumerate(order, start=1):
                        if v in core:
                            hits += 1
                            area += hits / i / size
                    ap, _ = auprc(ranking, set(core))
                    assert abs(ap - area) < 1e-12
                    checked += 1
    print(f"criterion 12 PASS: AP == stepwise PR integration on {checked} "
          f"(ranking, core) pairs; hand value 5/6 exact to 1e-12")


def test_c13_determinism_and_round_trip(tmp_path):
    cfg_factory = lambda: ExperimentConfig(
        dataset="det",
        sbm=SbmParams(core_size=8, fringe_size=20, r=3, p=0.4, q=0.05, seed=11),
        methods=("umhs", "degree", "k-core"),
        iterations=30,
    )
    bodies = []
    for _ in range(2):
        cfg = cfg_factory()
        buf = io.StringIO()
        write_results_csv(_execute(cfg)[0], buf, cfg)
        bodies.append(
            "\n".join(
                line for line in buf.getvalue().splitlines()
                if not line.startswith("#")
            ).encode()
        )
    assert bodies[0] == bodies[1], "CSV bodies differ between identical runs"

    instances = [bounded_random_instance(s + 90_000, n_max=16, r_cap=4, m_max=30)
                 for s in range(60)]
    instances += [
        sbm_hypergraph(
            SbmParams(core_size=4, fringe_size=8, r=3, p=0.8, q=0.15, seed=s)
        ).graph
        for s in range(30)
    ]
    instances += [
        tree_family(TreeFamilyParams(b=b, r=r))[0]
        for b, r in [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)]
    ] * 2
    assert len(instances) == 100
    for index, G in enumerate(instances):
        path = tmp_path / f"rt{index}.edges"
        write_hypergraph(G, path)
        back, labels = read_hypergraph(path)
        mapping = {old: labels[f"v{old}"] for old in range(G.n) if f"v{old}" in labels}
        assert {tuple(sorted(mapping[v] for v in e)) for e in G.edges} == set(back.edges)
        covered = {v for e in G.edges for v in e}
        assert back.n == len(covered)
    print("criterion 13 PASS: byte-identical CSV bodies; 100/100 instances "
          "round-trip losslessly")


def test_c14_complexity_smoke():
    base = sbm_hypergraph(
        SbmParams(core_size=15, fringe_size=60, r=3, p=0.15, q=0.01, seed=3)
    ).graph
    doubled = sbm_hypergraph(
        SbmParams(core_size=15, fringe_size=60, r=3, p=0.30, q=0.02, seed=3)
    ).graph
    ratio = len(doubled.edges) / len(base.edges)
    assert 1.7 <= ratio <= 2.3, f"edge ratio {ratio} too far from 2"
    cfg = UmhsConfig(iterations=100, seed=0)

    def median_time(G):
        samples = []
        for _ in range(5):
            t0 = time.perf_counter()
            umhs(G, cfg)
            samples.append(time.perf_counter() - t0)
        return statistics.median(samples)

    umhs(base, cfg)  # warm caches before timing
    factor = median_time(doubled) / median_time(base)
    assert factor < 2.5, f"doubling |E| scaled wall time by {factor:.2f}"
    print(f"criterion 14 PASS: |E| x{ratio:.2f} -> median wall time x{factor:.2f} "
          f"(< 2.5)")

"""Spans recorded around the calls into each layer, and the traced replay.

The traced run calls `umhs.cli.main` once per operation, then replays the
same pipeline through the layers' public functions, timing each call.  A
span is (name, start, end, parent, op); spans stay in memory and the run
writes them out when it ends.

Spans marked `probe` time work that `main` does not do in that form (the
per-round replay that exposes the round counters, a separate canonicalize
call).  They feed per-layer metrics but are left out of `cli.self_s`, the
part of `main` that no replayed layer call accounts for.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

from workloads import ITERATIONS, Op


class ReplayMismatch(RuntimeError):
    """The replay through public functions disagrees with `main`."""


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    probe: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str, probe: bool = False):
        parent = self._stack[-1] if self._stack else None
        probe = probe or (parent is not None and self.spans[parent].probe)
        idx = len(self.spans)
        self.spans.append(Span(name, 0.0, 0.0, parent, self.op, probe))
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx].start = start - self._origin
            self.spans[idx].end = end - self._origin

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span timed by the caller."""
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start - self._origin, end - self._origin,
                               parent, self.op, False))

    def call(self, name: str, fn, *args, probe: bool = False, **kwargs):
        with self.span(name, probe=probe):
            return fn(*args, **kwargs)

    def as_records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


# ------------------------------------------------------------ set-up

def traced_setup(tr: Tracer, insts, workdir: Path) -> None:
    """What `umhs generate` does, one public call at a time."""
    from umhs.dataio import write_core, write_hypergraph
    from umhs.generators import (
        SbmParams, TreeFamilyParams, consistent_labeling_hitting_set,
        random_hypergraph, sbm_hypergraph, tree_family)

    for inst in insts:
        p = inst.params
        prefix = workdir / inst.name
        if inst.kind == "sbm":
            labeled = tr.call("generators.sbm_hypergraph", sbm_hypergraph,
                              SbmParams(**p))
            graph, core = labeled.graph, labeled.core
        elif inst.kind == "tree":
            params = TreeFamilyParams(b=p["b"], r=p["r"])
            graph, _ = tr.call("generators.tree_family", tree_family, params)
            core = tr.call("generators.consistent_labeling_hitting_set",
                           consistent_labeling_hitting_set, params, p["seed"])
        else:
            graph = tr.call("generators.random_hypergraph", random_hypergraph,
                            p["n"], p["r_max"], p["edge_count"], p["seed"])
            core = None
        with tr.span("dataio.write"):
            write_hypergraph(graph, f"{prefix}.edges")
            if core is not None:
                write_core(core, f"{prefix}.core",
                           labels=[f"v{i}" for i in range(graph.n)])


# ------------------------------------------------------------ replays

def replay_rounds(tr: Tracer, graph, seed: int, counts: Counter) -> frozenset:
    """Rebuild every UMHS round from its own RNG stream, as `umhs()` does."""
    import numpy as np
    from umhs.hypergraph import is_minimal_hitting_set, prune_to_minimal
    from umhs.recovery import greedy_matching_certificate

    m = len(graph.edges)
    slots = sum(len(e) for e in graph.edges)
    union: set[int] = set()
    saturation = 0
    with tr.span("recovery.replay", probe=True):
        for i in range(1, ITERATIONS + 1):
            with tr.span("recovery.round"):
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
                edge_perm = rng.permutation(m)
                hit, selected = tr.call("recovery.greedy",
                                        greedy_matching_certificate, graph, edge_perm)
                removal = [v for v in rng.permutation(graph.n).tolist() if v in hit]
                minimal = tr.call("recovery.prune", prune_to_minimal,
                                  graph, hit, removal)
                minimal_ok = tr.call("hypergraph.is_minimal_hitting_set",
                                     is_minimal_hitting_set, graph, minimal)
            if not minimal_ok:
                raise ReplayMismatch(f"round {i}: pruned set is not minimal")
            if not minimal <= union:
                counts["growth_rounds"] += 1
                saturation = i
            union |= minimal
            counts["rounds"] += 1
            counts["slots"] += slots
            counts["matching_size"] += len(selected)
            counts["greedy_size"] += len(hit)
            counts["pruned_size"] += len(minimal)
    counts["saturation_round"] = max(counts["saturation_round"], saturation)
    counts["union_size"] += len(union)
    return frozenset(union)


def _read(tr: Tracer, op: Op, counts: Counter):
    """Read the operation's files as its subcommand does."""
    from umhs.dataio import read_core, read_hypergraph
    from umhs.hypergraph import canonicalize

    graph, labels = tr.call("dataio.read_hypergraph", read_hypergraph, op.edges)
    counts["edges_read"] += len(graph.edges)
    tr.call("hypergraph.canonicalize", canonicalize, graph.n, graph.edges,
            probe=True)
    core = None
    if op.command != "oracle":
        core = tr.call("dataio.read_core", read_core, op.core, labels)
    return graph, core


def _check_union(op: Op, replayed: frozenset, union: frozenset) -> None:
    if replayed != union:
        raise ReplayMismatch(
            f"{op.inst.name}: replayed union ({len(replayed)} nodes) differs "
            f"from umhs() ({len(union)} nodes)")


def _expect_body(op: Op, expected: str, actual: str) -> None:
    if expected != actual:
        raise ReplayMismatch(f"{op.inst.name}: replayed output differs from main")


def replay(tr: Tracer, op: Op, seed: int, body: str, counts: Counter) -> frozenset | None:
    """Replay one operation; returns the UMHS union it computed, if any."""
    if op.command == "recover":
        return _replay_recover(tr, op, seed, body, counts)
    if op.command == "sweep":
        return _replay_sweep(tr, op, seed, body, counts)
    _replay_oracle(tr, op, body, counts)
    return None


def _replay_recover(tr, op, seed, body, counts) -> frozenset:
    from umhs.baselines import (
        IterationParams, borgatti_everett_ranking, clique_eigen_ranking,
        degree_ranking, h_eigen_ranking, kcore_ranking, z_eigen_ranking)
    from umhs.evaluation import auprc, precision_at_core_size
    from umhs.recovery import UmhsConfig, rank_nodes, umhs

    graph, core = _read(tr, op, counts)
    tr.call("hypergraph.incidence", lambda: graph.incidence)
    result = tr.call("recovery.umhs", umhs, graph,
                     UmhsConfig(iterations=ITERATIONS, seed=seed))
    it = IterationParams()
    rankings = {
        "umhs": tr.call("recovery.rank_nodes", rank_nodes, graph, result.union_set),
        "degree": tr.call("baselines.degree", degree_ranking, graph),
        "k-core": tr.call("baselines.kcore", kcore_ranking, graph),
        "clique-eigen": tr.call("baselines.clique_eigen", clique_eigen_ranking, graph, it),
        "z-eigen": tr.call("baselines.z_eigen", z_eigen_ranking, graph, it),
        "h-eigen": tr.call("baselines.h_eigen", h_eigen_ranking, graph, it),
        "borgatti-everett": tr.call("baselines.borgatti_everett",
                                    borgatti_everett_ranking, graph, it),
    }
    counts["unconverged"] += sum(not r.converged for r in rankings.values())
    lines = ["dataset,r,method,precision_at_core,auprc,output_size"]
    for method in sorted(rankings):
        ranking = rankings[method]
        precision = tr.call("evaluation.precision_at_core",
                            precision_at_core_size, ranking, core)
        ap, _ = tr.call("evaluation.auprc", auprc, ranking, core)
        size = len(result.union_set) if method == "umhs" else graph.n
        lines.append(f"{op.inst.name},{graph.rank},{method},"
                     f"{precision:.12g},{ap:.12g},{size}")
    _expect_body(op, "\n".join(lines) + "\n", body)
    _check_union(op, replay_rounds(tr, graph, seed, counts), result.union_set)
    return result.union_set


def _replay_sweep(tr, op, seed, body, counts) -> frozenset:
    from umhs.recovery import UmhsConfig, umhs

    graph, core = _read(tr, op, counts)
    tr.call("hypergraph.incidence", lambda: graph.incidence)
    cfg = UmhsConfig(iterations=ITERATIONS, seed=seed, record_trajectory=True)
    result = tr.call("recovery.umhs", umhs, graph, cfg, core=core)
    lines = ["iteration,union_size,recovered_fraction"]
    for i, (size, overlap) in enumerate(result.trajectory, start=1):
        lines.append(f"{i},{size},{overlap / len(core):.12g}")
    _expect_body(op, "\n".join(lines) + "\n", body)
    _check_union(op, replay_rounds(tr, graph, seed, counts), result.union_set)
    return result.union_set


def _replay_oracle(tr, op, body, counts) -> None:
    from umhs.oracle import (
        OracleBudgetError, OracleLimits, enumerate_minimal_hitting_sets,
        kernelize, min_hitting_set_size, union_minimal)

    graph, _ = _read(tr, op, counts)
    limits = OracleLimits(max_nodes=op.max_nodes)
    try:
        k_star = tr.call("oracle.min_hitting_set_size", min_hitting_set_size,
                         graph, limits)
        union = tr.call("oracle.enumerate", union_minimal, graph, op.k, limits)
        report = tr.call("oracle.kernelize", kernelize, graph, op.k, limits)
        family = tr.call("oracle.enumerate_family", enumerate_minimal_hitting_sets,
                         graph, op.k, limits, probe=True)
    except OracleBudgetError:
        counts["budget_errors"] += 1
        return
    counts["family_size"] += len(family)
    counts["kernel_phases"] += report.phases
    fields = dict(line.split(" ", 1) for line in body.splitlines())
    if (int(fields["k_star"]) != k_star
            or fields["union"] != " ".join(str(v) for v in sorted(union))
            or int(fields["kernel_phases"]) != report.phases
            or frozenset().union(*family) != union):
        raise ReplayMismatch(f"{op.inst.name}: replayed oracle report differs from main")

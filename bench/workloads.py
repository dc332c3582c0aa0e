"""The benchmark's workloads: instances made from the workload seed, the
`umhs` CLI operations one pass runs, and the checks on every output.

Each workload is a fixed list of instances.  Set-up writes them to files
with `umhs generate` (or `dataio` where the CLI has no generator); every
operation of a pass then reads its own file, exactly as a user's run does.

Output checks come in two strengths.  At DEFAULT_SEED every deterministic
output is compared byte for byte with the digests in digests.json.  At any
seed, every output must also satisfy invariants that do not depend on the
seed (the UMHS union hits every edge, k* <= |core|, monotone sweeps, ...).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
ITERATIONS = 100
DIGESTS = Path(__file__).with_name("digests.json")

# Tree instances exceed the oracle's default 26-node cap.
TREE_ORACLE_MAX_NODES = 64
ORACLE_MAX_K = 12

WORKLOADS = ("recover", "sweep-ladder", "oracle")


@dataclass(frozen=True)
class Instance:
    """One instance file pair.  kind is "sbm", "tree" or "random"."""

    name: str
    kind: str
    params: dict
    ladder: bool = False

    def has_core(self) -> bool:
        return self.kind != "random"


def _sbm(name: str, core: int, fringe: int, r: int, p: float, q: float,
         seed: int, ladder: bool = False) -> Instance:
    return Instance(name, "sbm", dict(core_size=core, fringe_size=fringe, r=r,
                                      p=p, q=q, seed=seed), ladder)


def _tree(name: str, b: int, r: int, seed: int) -> Instance:
    return Instance(name, "tree", dict(b=b, r=r, seed=seed))


def instances(workload: str, seed: int) -> list[Instance]:
    """The workload's instances; the same seed always gives the same files."""
    if workload == "recover":
        # Two draws at the generator's size cap (n=490, m~2.7k).
        return [_sbm(f"recover_{j}", 40, 450, 3, 0.05, 0.0005, 2 * seed + j)
                for j in range(2)]
    if workload == "sweep-ladder":
        # |E| doubles along the ladder (m~1.3k, 2.5k, 5k at n=300); the rank-6
        # tree family sends long edges and a sparse high-n graph through the
        # same loops.
        ladder = [_sbm(f"ladder_x{f}", 40, 260, 3, 0.05 * f, 0.0005 * f, seed,
                       ladder=True) for f in (1, 2, 4)]
        return ladder + [_tree("tree_b3_r6", 3, 6, seed)]
    if workload == "oracle":
        base = 8 * seed
        return [
            _sbm("oracle_sbm_c10_dense_0", 10, 16, 3, 0.5, 0.3, base),
            _sbm("oracle_sbm_c10_dense_1", 10, 16, 3, 0.5, 0.3, base + 1),
            _sbm("oracle_sbm_c10", 10, 16, 3, 0.5, 0.15, base + 2),
            _sbm("oracle_sbm_c8", 8, 18, 3, 0.6, 0.3, base + 3),
            _sbm("oracle_sbm_c6", 6, 20, 3, 0.5, 0.1, base + 4),
            Instance("oracle_random", "random",
                     dict(n=20, r_max=4, edge_count=45, seed=base + 5)),
            # A small-core graph: kernelize finds sunflowers and runs phases.
            _sbm("oracle_sbm_r2", 3, 23, 2, 1.0, 0.6, base + 6),
            _tree("oracle_tree_b2_r4", 2, 4, seed),
            _tree("oracle_tree_b3_r3", 3, 3, seed),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- set-up

def generate_argv(inst: Instance, prefix: Path) -> list[str] | None:
    """`umhs generate` arguments for an instance, or None if the CLI has none."""
    p = inst.params
    if inst.kind == "sbm":
        return ["generate", "sbm", "--core-size", str(p["core_size"]),
                "--fringe-size", str(p["fringe_size"]), "--r", str(p["r"]),
                "--p", repr(p["p"]), "--q", repr(p["q"]), "--seed", str(p["seed"]),
                "--output", str(prefix)]
    if inst.kind == "tree":
        return ["generate", "tree", "--b", str(p["b"]), "--r", str(p["r"]),
                "--seed", str(p["seed"]), "--output", str(prefix)]
    return None


def write_instances(insts: list[Instance], workdir: Path) -> None:
    """Set-up as a user does it: `umhs generate`, or dataio for random graphs."""
    from umhs.cli import main
    from umhs.dataio import write_hypergraph
    from umhs.generators import random_hypergraph

    for inst in insts:
        prefix = workdir / inst.name
        argv = generate_argv(inst, prefix)
        if argv is not None:
            if main(argv) != 0:
                raise RuntimeError(f"umhs {' '.join(argv)} failed")
        else:
            p = inst.params
            graph = random_hypergraph(p["n"], p["r_max"], p["edge_count"], p["seed"])
            write_hypergraph(graph, f"{prefix}.edges")


def edges_file(inst: Instance, workdir: Path) -> Path:
    return workdir / f"{inst.name}.edges"


def core_file(inst: Instance, workdir: Path) -> Path | None:
    return workdir / f"{inst.name}.core" if inst.has_core() else None


def instance_files(insts: list[Instance], workdir: Path) -> list[Path]:
    files = [edges_file(inst, workdir) for inst in insts]
    return files + [f for f in (core_file(inst, workdir) for inst in insts) if f]


def read_instance(edges: Path, core: Path | None):
    """The hypergraph and, if there is a core file, the core node set."""
    from umhs.dataio import read_core, read_hypergraph

    graph, labels = read_hypergraph(edges)
    return graph, read_core(core, labels) if core is not None else None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_digests(insts: list[Instance], workdir: Path) -> dict[str, str]:
    return {f.name: sha256(f.read_bytes()) for f in instance_files(insts, workdir)}


# ------------------------------------------------------------ operations

@dataclass(frozen=True)
class Op:
    """One CLI call of a pass: its instance, argv and output file."""

    inst: Instance
    argv: tuple[str, ...]
    edges: Path
    core: Path | None  # the instance's core file, read by recover and sweep
    output: Path
    k: int | None = None  # oracle budget
    max_nodes: int | None = None  # oracle node cap

    @property
    def command(self) -> str:
        return self.argv[0]


def oracle_budget(edges_path: Path, max_nodes: int) -> int:
    """k*+1 where that is <= ORACLE_MAX_K, else k*.  Untimed preparation."""
    from umhs.dataio import read_hypergraph
    from umhs.oracle import OracleLimits, min_hitting_set_size

    graph, _ = read_hypergraph(edges_path)
    k_star = min_hitting_set_size(graph, OracleLimits(max_nodes=max_nodes))
    return k_star + 1 if k_star + 1 <= ORACLE_MAX_K else k_star


def operations(workload: str, seed: int, insts: list[Instance],
               workdir: Path) -> list[Op]:
    """One pass's operations.  Oracle budgets need k*, computed here untimed."""
    from umhs.oracle import OracleLimits

    ops = []
    for inst in insts:
        edges, core = edges_file(inst, workdir), core_file(inst, workdir)
        if workload == "oracle":
            out = workdir / f"{inst.name}.oracle.txt"
            argv = ["oracle", "--input", str(edges)]
            max_nodes = OracleLimits().max_nodes
            if inst.kind == "tree":
                max_nodes = TREE_ORACLE_MAX_NODES
                argv += ["--limits-max-nodes", str(max_nodes)]
            k = oracle_budget(edges, max_nodes)
            argv += ["--k", str(k), "--output", str(out)]
            ops.append(Op(inst, tuple(argv), edges, core, out, k, max_nodes))
        else:
            command = "recover" if workload == "recover" else "sweep"
            out = workdir / f"{inst.name}.{command}.csv"
            argv = [command, "--input", str(edges), "--core", str(core),
                    "--iterations", str(ITERATIONS), "--seed", str(seed),
                    "--output", str(out)]
            ops.append(Op(inst, tuple(argv), edges, core, out))
    return ops


def body(op: Op, text: str) -> str:
    """The deterministic part of an output: CSV without its '#' block."""
    if op.command == "oracle":
        return text
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("#"))


# ---------------------------------------------------------------- checks

@dataclass
class Facts:
    """What the checks know about one instance, computed through the library."""

    graph: object
    core: frozenset | None
    union: frozenset | None = None


def load_facts(op: Op, seed: int) -> Facts:
    """Read the instance and, for UMHS operations, recompute the union."""
    from umhs.recovery import UmhsConfig, umhs

    facts = Facts(*read_instance(op.edges, op.core))
    if op.command in ("recover", "sweep"):
        cfg = UmhsConfig(iterations=ITERATIONS, seed=seed)
        facts.union = umhs(facts.graph, cfg).union_set
    return facts


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _hits_every_edge(graph, members) -> bool:
    return all(any(v in members for v in e) for e in graph.edges)


def check_files(workload: str, seed: int, insts: list[Instance], workdir: Path,
                digests: dict[str, str]) -> list[str]:
    """Checks on the generated files: stored digests at DEFAULT_SEED, and
    seed-independent properties of every instance."""
    problems = []
    if seed == DEFAULT_SEED:
        stored = load_digests(workload)
        problems += [f"{name}: generated file differs from the stored digest"
                     for name, digest in digests.items() if stored.get(name) != digest]
    for inst in insts:
        graph, core = read_instance(edges_file(inst, workdir), core_file(inst, workdir))
        problems += [f"{inst.name}: {p}" for p in _check_instance(inst, graph, core)]
    return problems


def _check_instance(inst: Instance, g, core) -> list[str]:
    from umhs.hypergraph import LabeledHypergraph

    problems = []
    p = inst.params
    if inst.kind == "tree":
        if len(g.edges) != p["b"] ** p["r"] or any(len(e) != p["r"] for e in g.edges):
            problems.append("tree family has the wrong edges")
        if len(core) != (p["r"] - 1) * (p["b"] - 1) + p["b"]:
            problems.append("consistent-labeling core has the wrong size")
    if inst.kind == "sbm" and any(len(e) != p["r"] for e in g.edges):
        problems.append("sbm edge of the wrong size")
    if core is not None:
        try:
            LabeledHypergraph(graph=g, core=core)
        except ValueError as exc:
            problems.append(str(exc))
    if not g.edges:
        problems.append("no edges")
    return problems


def check_output(op: Op, text: str, facts: Facts) -> list[str]:
    """Seed-independent invariants of one operation's output."""
    try:
        if op.command == "recover":
            return _check_recover(op, body(op, text), facts)
        if op.command == "sweep":
            return _check_sweep(body(op, text), facts)
        return _check_oracle(op, text, facts)
    except (ValueError, IndexError, KeyError) as exc:
        return [f"{op.inst.name}: unparseable output ({exc})"]


def _check_recover(op: Op, csv_body: str, facts: Facts) -> list[str]:
    from umhs.cli import ALL_METHODS
    from umhs.evaluation import auprc, precision_at_core_size
    from umhs.recovery import rank_nodes

    g, core, union = facts.graph, facts.core, facts.union
    lines = csv_body.splitlines()
    problems = []
    if lines[0] != "dataset,r,method,precision_at_core,auprc,output_size":
        problems.append(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if [row[2] for row in rows] != sorted(ALL_METHODS):
        problems.append(f"methods {[row[2] for row in rows]}")
    ranking = rank_nodes(g, union)
    for dataset, r, method, prec, ap, size in rows:
        if dataset != op.inst.name or int(r) != g.rank:
            problems.append(f"{method}: dataset/r {dataset},{r}")
        if not (0.0 <= float(prec) <= 1.0 and 0.0 <= float(ap) <= 1.0):
            problems.append(f"{method}: scores out of [0, 1]")
        if method == "umhs":
            if int(size) != len(union):
                problems.append(f"umhs output_size {size} != |union| {len(union)}")
            if prec != _fmt(precision_at_core_size(ranking, core)):
                problems.append(f"umhs precision {prec}")
            if ap != _fmt(auprc(ranking, core)[0]):
                problems.append(f"umhs auprc {ap}")
        elif int(size) != g.n:
            problems.append(f"{method}: output_size {size} != n {g.n}")
    if not _hits_every_edge(g, union):
        problems.append("umhs union misses an edge")
    return [f"{op.inst.name}: {p}" for p in problems]


def _check_sweep(csv_body: str, facts: Facts) -> list[str]:
    g, core, union = facts.graph, facts.core, facts.union
    lines = csv_body.splitlines()
    problems = []
    if lines[0] != "iteration,union_size,recovered_fraction":
        problems.append(f"unexpected header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if [int(row[0]) for row in rows] != list(range(1, ITERATIONS + 1)):
        problems.append("iterations are not 1..N")
    sizes = [int(row[1]) for row in rows]
    fractions = [float(row[2]) for row in rows]
    if sizes != sorted(sizes) or fractions != sorted(fractions):
        problems.append("union growth is not monotone")
    if not 0.0 < fractions[-1] <= 1.0:
        problems.append(f"recovered fraction {fractions[-1]}")
    if sizes[-1] != len(union):
        problems.append(f"final union size {sizes[-1]} != |union| {len(union)}")
    if rows[-1][2] != _fmt(len(union & core) / len(core)):
        problems.append(f"final recovered fraction {rows[-1][2]}")
    if not _hits_every_edge(g, union):
        problems.append("umhs union misses an edge")
    return problems


def _check_oracle(op: Op, text: str, facts: Facts) -> list[str]:
    g = facts.graph
    fields = dict(line.split(" ", 1) for line in text.splitlines())
    problems = []
    expected = ["nodes", "edges", "k_star", "alpha", "k", "union_size", "union",
                "kernel_edges", "kernel_phases"]
    if list(fields) != expected:
        problems.append(f"report fields {list(fields)}")
    k_star = int(fields["k_star"])
    union = [int(v) for v in fields["union"].split()]
    if int(fields["nodes"]) != g.n or int(fields["edges"]) != len(g.edges):
        problems.append("node/edge counts differ from the input")
    if facts.core is not None and k_star > len(facts.core):
        problems.append(f"k_star {k_star} > |core| {len(facts.core)}")
    if int(fields["alpha"]) != g.n - k_star or int(fields["k"]) != op.k:
        problems.append("alpha or k inconsistent")
    if not k_star <= op.k or int(fields["union_size"]) != len(union):
        problems.append("union size or budget inconsistent")
    if union != sorted(set(union)) or not all(0 <= v < g.n for v in union):
        problems.append("union members out of range")
    if not _hits_every_edge(g, set(union)):
        problems.append("U(k) misses an edge")
    if int(fields["kernel_phases"]) < 0 or int(fields["kernel_edges"]) < 1:
        problems.append("kernel counts out of range")
    return [f"{op.inst.name}: {p}" for p in problems]


# --------------------------------------------------------------- digests

def load_digests(workload: str) -> dict[str, str]:
    """Stored digests of the default seed's files and output bodies."""
    return json.loads(DIGESTS.read_text())[workload]


def subsets_scanned(inst: Instance) -> int:
    """Size-r subsets the sbm generator walks (one uniform draw each)."""
    p = inst.params
    return math.comb(p["core_size"] + p["fringe_size"], p["r"])

"""Batch command-line interface and CSV experiment harness.

Subcommands: recover (run recovery methods against a labeled dataset),
generate (sample sbm or tree instances to files), oracle (exact k*, alpha,
U(k), kernelization on small inputs), and sweep (UMHS iteration curves).

CSV output uses LF line endings with '#'-prefixed metadata lines before the
header.  Wall-clock timings live in the metadata block, never in the data
rows, so reruns of one config produce byte-identical bodies.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import metadata as importlib_metadata
from pathlib import Path
from typing import Callable, Iterator, Sequence, TextIO

from .baselines import (
    IterationParams,
    Ranking,
    borgatti_everett_ranking,
    clique_eigen_ranking,
    degree_ranking,
    h_eigen_ranking,
    kcore_ranking,
    z_eigen_ranking,
)
from .dataio import (
    default_labels,
    read_core,
    read_hypergraph,
    write_core,
    write_hypergraph,
)
from .evaluation import auprc, precision_at_core_size, sweep
from .generators import (
    SbmParams,
    TreeFamilyParams,
    consistent_labeling_hitting_set,
    sbm_hypergraph,
    tree_family,
)
from .hypergraph import Hypergraph, LabeledHypergraph, uniform_subhypergraph
from .oracle import (
    OracleBudgetError,
    OracleLimits,
    kernelize,
    min_hitting_set_size,
    union_minimal,
)
from .recovery import UmhsConfig, rank_nodes, umhs

ALL_METHODS = (
    "umhs",
    "degree",
    "clique-eigen",
    "z-eigen",
    "h-eigen",
    "borgatti-everett",
    "k-core",
)

_BASELINE_FNS: dict[str, Callable[..., Ranking]] = {
    "degree": lambda g, it: degree_ranking(g),
    "clique-eigen": clique_eigen_ranking,
    "z-eigen": z_eigen_ranking,
    "h-eigen": h_eigen_ranking,
    "borgatti-everett": borgatti_everett_ranking,
    "k-core": lambda g, it: kcore_ranking(g),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One recovery experiment: a dataset, a method subset, and seeds."""

    dataset: str
    input_path: str | None = None
    core_path: str | None = None
    sbm: SbmParams | None = None
    r: int | None = None
    methods: tuple[str, ...] = ALL_METHODS
    iterations: int = 100
    seed: int = 0
    allow_unhit: bool = False

    def __post_init__(self) -> None:
        if not self.methods:
            raise ValueError("at least one method must be selected")
        unknown = [m for m in self.methods if m not in ALL_METHODS]
        if unknown:
            raise ValueError(
                f"unknown methods {unknown}; choose from {list(ALL_METHODS)}"
            )
        repeated = sorted({m for m in self.methods if self.methods.count(m) > 1})
        if repeated:
            raise ValueError(f"methods repeated: {repeated}")
        if (self.input_path is None) == (self.sbm is None):
            raise ValueError("exactly one of input_path or sbm must be given")
        if self.input_path is not None and self.core_path is None:
            raise ValueError("a core file is required with --input")


@dataclass(frozen=True)
class ResultRow:
    """One evaluated (dataset, r, method) cell.

    wall_time is measured and therefore excluded from the deterministic CSV
    body; the writer reports it in the metadata comment block.
    """

    dataset: str
    r: int
    method: str
    precision_at_core: float
    auprc: float
    output_size: int
    wall_time: float


def _version() -> str:
    try:
        return importlib_metadata.version("umhs")
    except importlib_metadata.PackageNotFoundError:
        return "unknown"


class _UnhitEdgeError(ValueError):
    """The core misses an edge; `recover --allow-unhit` drops such edges."""


def _load(cfg: ExperimentConfig) -> tuple[Hypergraph, frozenset[int], list[str]]:
    """The instance's graph and core, validated, plus notes for the '#' block."""
    notes: list[str] = []
    if cfg.sbm is not None:
        labeled = sbm_hypergraph(cfg.sbm)
        graph, core = labeled.graph, labeled.core
        names = default_labels(graph.n)
        notes.append(
            "sbm core={0.core_size} fringe={0.fringe_size} r={0.r} "
            "p={0.p} q={0.q} seed={0.seed}".format(cfg.sbm)
        )
    else:
        graph, labels = read_hypergraph(cfg.input_path)
        core = read_core(cfg.core_path, labels)
        names = list(labels)
        notes.append(f"input {cfg.input_path} core {cfg.core_path}")
    if cfg.r is not None:
        graph, remap = uniform_subhypergraph(graph, cfg.r)
        core = frozenset(remap[v] for v in core if v in remap)
        names = [names[old] for old in sorted(remap, key=remap.get)]
        notes.append(f"restricted to {cfg.r}-uniform part: n={graph.n}, "
                     f"edges={len(graph.edges)}")
        if not core:
            raise ValueError(f"no core node remains in the {cfg.r}-uniform part")
    unhit = [e for e in graph.edges if core.isdisjoint(e)]
    if unhit:
        if not cfg.allow_unhit:
            raise _UnhitEdgeError(
                "core is not a hitting set: edge "
                f"\"{' '.join(names[v] for v in unhit[0])}\" is unhit"
            )
        dropped = set(unhit)
        keep = tuple(e for e in graph.edges if e not in dropped)
        graph = Hypergraph(n=graph.n, edges=keep)
        notes.append(f"dropped {len(unhit)} unhit edges (--allow-unhit)")
    LabeledHypergraph(graph=graph, core=core)
    return graph, core, notes


def _execute(cfg: ExperimentConfig) -> tuple[list[ResultRow], list[str]]:
    graph, core, notes = _load(cfg)
    r_value = cfg.r if cfg.r is not None else graph.rank
    it = IterationParams()
    rows: list[ResultRow] = []
    for method in sorted(cfg.methods):
        started = time.perf_counter()
        if method == "umhs":
            result = umhs(graph, UmhsConfig(iterations=cfg.iterations, seed=cfg.seed))
            ranking = rank_nodes(graph, result.union_set)
            output_size = len(result.union_set)
        else:
            ranking = _BASELINE_FNS[method](graph, it)
            output_size = graph.n
        wall = time.perf_counter() - started
        precision = precision_at_core_size(ranking, core)
        ap, _ = auprc(ranking, core)
        rows.append(
            ResultRow(
                dataset=cfg.dataset,
                r=r_value,
                method=method,
                precision_at_core=precision,
                auprc=ap,
                output_size=output_size,
                wall_time=wall,
            )
        )
    return rows, notes


def run_experiment(cfg: ExperimentConfig) -> list[ResultRow]:
    """Run every selected method on the configured dataset and evaluate it.

    Rows come back sorted by (dataset, r, method).
    """
    return _execute(cfg)[0]


def write_results_csv(
    rows: Sequence[ResultRow],
    fh: TextIO,
    cfg: ExperimentConfig,
    notes: Sequence[str] = (),
) -> None:
    fh.write(f"# umhs {_version()} results\n")
    fh.write(f"# seed {cfg.seed} iterations {cfg.iterations}\n")
    fh.write(f"# methods {','.join(sorted(cfg.methods))}\n")
    fh.write("# auprc is average precision (stepwise PR integration)\n")
    for note in notes:
        fh.write(f"# {note}\n")
    for row in rows:
        fh.write(f"# wall_time {row.dataset} {row.method} {row.wall_time:.6f}s\n")
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(
        ["dataset", "r", "method", "precision_at_core", "auprc", "output_size"]
    )
    for row in rows:
        writer.writerow(
            [
                row.dataset,
                row.r,
                row.method,
                f"{row.precision_at_core:.12g}",
                f"{row.auprc:.12g}",
                row.output_size,
            ]
        )


def _parse_sbm_spec(spec: str, seed: int) -> SbmParams:
    """Parse 'core=15,fringe=60,r=3,p=0.15,q=0.01' into SbmParams."""
    fields: dict[str, str] = {}
    for part in spec.split(","):
        if "=" not in part:
            raise ValueError(f"bad sbm spec fragment {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.strip()
    try:
        return SbmParams(
            core_size=int(fields.pop("core")),
            fringe_size=int(fields.pop("fringe")),
            r=int(fields.pop("r")),
            p=float(fields.pop("p")),
            q=float(fields.pop("q")),
            seed=int(fields.pop("seed", seed)),
        )
    except KeyError as exc:
        raise ValueError(f"sbm spec missing field {exc}") from exc


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", type=str, default=None)


def _add_instance(parser: argparse.ArgumentParser) -> None:
    """The options `_config` reads: one labeled instance and a round count."""
    parser.add_argument("--input", type=str, default=None, help="hyperedge list file")
    parser.add_argument("--core", type=str, default=None, help="core token file")
    parser.add_argument("--sbm", type=str, default=None,
                        help="generator spec core=..,fringe=..,r=..,p=..,q=..")
    parser.add_argument("--r", type=int, default=None,
                        help="restrict to the r-uniform sub-hypergraph")
    parser.add_argument("--iterations", type=int, default=100)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="umhs",
        description="Planted hitting set recovery toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recover", help="run recovery methods on a dataset")
    _add_instance(rec)
    rec.add_argument("--methods", type=str, default=",".join(ALL_METHODS))
    rec.add_argument("--allow-unhit", action="store_true",
                     help="drop edges the core misses instead of failing")
    _add_common(rec)

    gen = sub.add_parser("generate", help="write a synthetic instance to files")
    gen.add_argument("model", choices=["sbm", "tree"])
    gen.add_argument("--core-size", type=int, default=15)
    gen.add_argument("--fringe-size", type=int, default=60)
    gen.add_argument("--r", type=int, default=3)
    gen.add_argument("--p", type=float, default=0.15)
    gen.add_argument("--q", type=float, default=0.01)
    gen.add_argument("--b", type=int, default=2)
    _add_common(gen)

    orc = sub.add_parser("oracle", help="exact quantities on a small input")
    orc.add_argument("--input", type=str, required=True)
    orc.add_argument("--k", type=int, default=None,
                     help="budget for U(k) and kernelization (default k*)")
    orc.add_argument("--limits-max-nodes", type=int, default=OracleLimits().max_nodes)
    orc.add_argument("--limits-max-k", type=int, default=OracleLimits().max_k)
    orc.add_argument("--output", type=str, default=None)

    swp = sub.add_parser("sweep", help="UMHS iteration curves as CSV")
    _add_instance(swp)
    _add_common(swp)
    return parser


def _config(args: argparse.Namespace, **fields) -> ExperimentConfig:
    """The ExperimentConfig of a recover or sweep command line."""
    return ExperimentConfig(
        dataset=Path(args.input).stem if args.input else "sbm",
        input_path=args.input,
        core_path=args.core,
        sbm=_parse_sbm_spec(args.sbm, args.seed) if args.sbm else None,
        r=args.r,
        iterations=args.iterations,
        seed=args.seed,
        **fields,
    )


@contextmanager
def _output(path: str | None) -> Iterator[TextIO]:
    """Standard output, or the file at path, closed on exit."""
    if path is None:
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _cmd_recover(args: argparse.Namespace) -> int:
    methods = tuple(m.strip() for m in args.methods.split(",") if m.strip())
    cfg = _config(args, methods=methods, allow_unhit=args.allow_unhit)
    try:
        rows, notes = _execute(cfg)
    except _UnhitEdgeError as exc:
        raise ValueError(f"{exc} (use --allow-unhit to drop)") from None
    with _output(args.output) as out:
        write_results_csv(rows, out, cfg, notes)
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    prefix = args.output or "instance"
    if args.model == "sbm":
        params = SbmParams(
            core_size=args.core_size,
            fringe_size=args.fringe_size,
            r=args.r,
            p=args.p,
            q=args.q,
            seed=args.seed,
        )
        labeled = sbm_hypergraph(params)
        graph, core = labeled.graph, labeled.core
    else:
        tree_params = TreeFamilyParams(b=args.b, r=args.r)
        graph, _ = tree_family(tree_params)
        core = consistent_labeling_hitting_set(tree_params, args.seed)
    write_hypergraph(graph, f"{prefix}.edges")
    write_core(core, f"{prefix}.core")
    print(f"wrote {prefix}.edges ({graph.n} nodes, {len(graph.edges)} edges) "
          f"and {prefix}.core ({len(core)} nodes)")
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    limits = OracleLimits(
        max_nodes=args.limits_max_nodes, max_k=args.limits_max_k
    )
    graph, _ = read_hypergraph(args.input)
    k_star = min_hitting_set_size(graph, limits)
    k = args.k if args.k is not None else k_star
    union = union_minimal(graph, k, limits)
    report = kernelize(graph, k, limits) if k >= 1 else None
    with _output(args.output) as out:
        out.write(f"nodes {graph.n}\n")
        out.write(f"edges {len(graph.edges)}\n")
        out.write(f"k_star {k_star}\n")
        out.write(f"alpha {graph.n - k_star}\n")
        out.write(f"k {k}\n")
        out.write(f"union_size {len(union)}\n")
        out.write(f"union {' '.join(str(v) for v in sorted(union))}\n")
        if report is not None:
            out.write(f"kernel_edges {len(report.kernel.edges)}\n")
            out.write(f"kernel_phases {report.phases}\n")
            if report.infeasible:
                out.write(f"no_hitting_set_within {k}\n")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _config(args)
    graph, core, notes = _load(cfg)
    records = sweep(graph, core, cfg.iterations, cfg.seed)
    with _output(args.output) as out:
        out.write(f"# umhs {_version()} sweep seed {cfg.seed}\n")
        for note in notes:
            out.write(f"# {note}\n")
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["iteration", "union_size", "recovered_fraction"])
        for rec in records:
            writer.writerow(
                [rec.iteration, rec.union_size, f"{rec.recovered_fraction:.12g}"]
            )
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "recover": _cmd_recover,
        "generate": _cmd_generate,
        "oracle": _cmd_oracle,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError, OracleBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

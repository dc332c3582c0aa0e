"""Benchmark of the `umhs` command-line tool.

    python3 bench/run.py --workload recover --seed 1 --seconds 10 --trace 0

Run from a checkout's root.  The program under test is the `umhs` package
in the checkout's `src/`; the benchmark fails without a result when it is
missing.

Timed run (--trace 0).  Set-up writes the workload's instance files with
`umhs generate`, several times, each in a fresh child process so that its
import time and peak memory are its own.  The parent works as a closed loop
with one client: it runs the workload's operations back to back, each an
in-process call to `umhs.cli.main(argv)`, until the passes add up to
--seconds, and reports the end-to-end metrics.

Times are scaled to a fixed host speed.  On a shared host the speed of
pure-Python code drifts by 20-40% over tens of seconds, which swamps a
median of raw wall times across runs.  So a fixed reference loop (`probe`)
runs right before and right after every pass and every set-up, and each
wall time is reported as wall * PROBE_NOMINAL_S / mean(probe times): the
seconds it would take on a host where the probe takes PROBE_NOMINAL_S.
The raw wall times and probe times are kept in the result file.

Traced run (--trace 1).  Set-up and every operation are replayed through
the layers' public functions with a span around each call (see tracing.py);
the per-layer metrics come from those spans, and `python -O` times the UMHS
replay in one child process.

Every output is checked (see workloads.py).  The last line of standard
output is one JSON object: correct, attempted, failed and metrics.  A fuller
record, with quartiles, per-operation times, the run record and, for traced
runs, every span, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import tracing
import workloads as wl

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS = BENCH_DIR / "results"
LAYER_MAP = BENCH_DIR / "layer_map.json"
WORK = BENCH_DIR / "work"
SETUP_REPEATS = 3
PROBE_NOMINAL_S = 0.05
CHILD_TIMEOUT_S = 150
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads() -> None:
    """Cap BLAS threads at nproc; must run before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(nproc())


def import_umhs():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (SRC / "umhs" / "__init__.py").is_file():
        raise BenchError(f"no umhs package under {SRC}; run from a checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import umhs

    if Path(umhs.__file__).resolve().parent != SRC / "umhs":
        raise BenchError(f"imported umhs from {umhs.__file__}, not {SRC}")
    return umhs


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def probe() -> float:
    """Seconds for a fixed pure-Python loop, a reading of the host's speed.

    Tuple scans, bytearray marks and set lookups, the operations the
    package's hot loops are made of.  Its data stays small so that it does
    not raise the peak RSS the timed run reports.
    """
    started = time.perf_counter()
    edges = [(i, i + 1, i + 2) for i in range(0, 4_000, 2)]
    thirds = set(range(0, 4_000, 3))
    picked = 0
    for _ in range(40):
        mark = bytearray(4_003)
        for e in edges:
            if not any(mark[v] for v in e):
                picked += 1
                for v in e:
                    mark[v] = 1
        picked += sum(1 for e in edges if e[0] in thirds)
    return time.perf_counter() - started


def scaled(wall: float, probes: list[float]) -> float:
    """Wall time scaled to a host on which the probe takes PROBE_NOMINAL_S."""
    return wall * PROBE_NOMINAL_S / statistics.fmean(probes)


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


# ------------------------------------------------------------ run record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "sys_flags_optimize": sys.flags.optimize,
        "blas_threads": int(os.environ[BLAS_THREAD_VARS[0]]),
        "git_commit": _git_commit(),
    }


# ------------------------------------------------------------ children

def run_child(role: str, spec: dict, optimize: bool = False) -> dict:
    """Run this file as a child process and return its JSON report."""
    cmd = [sys.executable] + (["-O"] if optimize else []) + [
        str(Path(__file__).resolve()), "--child", role, "--spec", json.dumps(spec)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{role} child failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def child_setup(spec: dict) -> dict:
    """One set-up: import umhs, write the instance files.  Timed in here."""
    before = probe()
    started = time.perf_counter()
    import_umhs()
    insts = wl.instances(spec["workload"], spec["seed"])
    workdir = Path(spec["workdir"])
    with contextlib.redirect_stdout(io.StringIO()):
        wl.write_instances(insts, workdir)
    elapsed = time.perf_counter() - started
    return {"wall_s": elapsed, "probes": [before, probe()], "rss_mb": peak_rss_mb(),
            "digests": wl.file_digests(insts, workdir)}


def child_optimized(spec: dict) -> dict:
    """Time umhs() per UMHS operation under `python -O`."""
    import_umhs()
    from umhs.dataio import read_core, read_hypergraph
    from umhs.recovery import UmhsConfig, umhs

    times, unions = [], []
    for job in spec["jobs"]:
        graph, labels = read_hypergraph(job["edges"])
        core = read_core(job["core"], labels)
        cfg = UmhsConfig(iterations=wl.ITERATIONS, seed=spec["seed"],
                         record_trajectory=job["trajectory"])
        started = time.perf_counter()
        result = umhs(graph, cfg, core=core if job["trajectory"] else None)
        times.append(time.perf_counter() - started)
        unions.append(sorted(result.union_set))
    return {"times": times, "unions": unions, "sys_flags_optimize": sys.flags.optimize}


# ------------------------------------------------------------ operations

class Runner:
    """Runs operations through `main`, keeping outputs for the checks."""

    def __init__(self, ops: list[wl.Op]) -> None:
        from umhs.cli import main

        self.main = main
        self.ops = ops
        self.reference: list[str | None] = [None] * len(ops)
        self.attempts: list[tuple[int, bool]] = []  # (op index, ran cleanly)
        self.errors: list[str] = []

    def run(self, i: int, tracer: tracing.Tracer | None = None
            ) -> tuple[float, str | None]:
        """Call main once; returns (seconds, deterministic output body)."""
        op = self.ops[i]
        sink = io.StringIO()
        rc, text = None, None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.main(list(op.argv))
        except Exception:  # an op that raises is a failed op, not a crash
            self.errors.append(f"{op.inst.name}: {traceback.format_exc()}")
        ended = time.perf_counter()
        if tracer is not None:
            tracer.record("cli.main", started, ended)
        elapsed = ended - started
        if rc == 0:
            text = wl.body(op, op.output.read_text(encoding="utf-8"))
            op.output.unlink()
        elif rc is not None:
            self.errors.append(f"{op.inst.name}: exit {rc}: {sink.getvalue()}")
        if text is not None and self.reference[i] is None:
            self.reference[i] = text
        ok = text is not None and text == self.reference[i]
        if text is not None and not ok:
            self.errors.append(f"{op.inst.name}: output differs between passes")
        self.attempts.append((i, ok))
        return elapsed, text

    def check(self, workload: str, seed: int) -> set[int]:
        """Check every reference output; returns the indices of bad ops."""
        digests = wl.load_digests(workload) if seed == wl.DEFAULT_SEED else None
        bad = set()
        for i, op in enumerate(self.ops):
            ref = self.reference[i]
            if ref is None:
                bad.add(i)
                continue
            problems = wl.check_output(op, ref, wl.load_facts(op, seed))
            if digests is not None and wl.sha256(ref.encode()) != digests.get(op.output.name):
                problems.append(f"{op.inst.name}: output differs from the stored digest")
            if problems:
                bad.add(i)
                self.errors.extend(problems)
        return bad

    def tally(self, bad: set[int]) -> tuple[int, int]:
        failed = sum(1 for i, ok in self.attempts if not ok or i in bad)
        return len(self.attempts), failed


# ------------------------------------------------------------ timed run

def timed_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    def setup() -> dict:
        return run_child("setup", {"workload": workload, "seed": seed,
                                   "workdir": str(workdir)})

    setups = [setup()]
    import_umhs()
    insts = wl.instances(workload, seed)
    errors = wl.check_files(workload, seed, insts, workdir, setups[0]["digests"])

    # No warm-up pass: every `umhs` invocation a user makes starts cold.
    # The later set-ups run between passes, so that the passes sample a
    # longer stretch of a shared host's drifting speed.
    runner = Runner(wl.operations(workload, seed, insts, workdir))
    n_ops = len(runner.ops)
    passes, probes, op_times = [], [], [[] for _ in range(n_ops)]
    while sum(passes) < seconds or len(setups) < SETUP_REPEATS:
        before = probe()
        total = 0.0
        for i in range(n_ops):
            elapsed, _ = runner.run(i)
            op_times[i].append(elapsed)
            total += elapsed
        passes.append(total)
        probes.append([before, probe()])
        if len(setups) < SETUP_REPEATS and sum(passes) >= seconds * len(setups) / SETUP_REPEATS:
            setups.append(setup())
    rss = peak_rss_mb()

    if any(s["digests"] != setups[0]["digests"] for s in setups):
        errors.append("set-up wrote different files on repeated runs")
    bad = runner.check(workload, seed)
    attempted, failed = runner.tally(bad)
    errors += runner.errors
    samples = {
        "setup_s": [scaled(s["wall_s"], s["probes"]) for s in setups],
        "setup_rss_mb": [s["rss_mb"] for s in setups],
        "pass_s": [scaled(wall, p) for wall, p in zip(passes, probes)],
        "peak_rss_mb": [rss],
        "success_rate": [(attempted - failed) / attempted],
        "setup_wall_s": [s["wall_s"] for s in setups],
        "pass_wall_s": passes,
        "probe_s": [t for p in probes for t in p],
    }
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "errors": errors,
        "ops": [{"argv": list(op.argv), "seconds": t}
                for op, t in zip(runner.ops, op_times)],
    }


# ------------------------------------------------------------ traced run

def _sum_spans(spans, name: str) -> float:
    return sum((s.duration for s in spans if s.name == name), 0.0)


def _fit_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(seconds per round) against log(slots)."""
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


TIMED_SPANS = (
    "recovery.umhs", "recovery.greedy", "recovery.prune", "recovery.round",
    "recovery.rank_nodes", "hypergraph.canonicalize", "hypergraph.incidence",
    "hypergraph.is_minimal_hitting_set", "baselines.degree", "baselines.kcore",
    "baselines.clique_eigen", "baselines.z_eigen", "baselines.h_eigen",
    "baselines.borgatti_everett", "dataio.read_hypergraph", "dataio.read_core",
    "oracle.min_hitting_set_size", "oracle.enumerate", "oracle.kernelize",
    "evaluation.precision_at_core", "evaluation.auprc", "cli.main",
)


def pass_metrics(spans, counts: Counter, ladder) -> dict[str, float]:
    """Per-layer values of one traced pass, from its spans and counters."""
    values = {f"{name}_s": _sum_spans(spans, name) for name in TIMED_SPANS}
    values["cli.self_s"] = sum(
        s.duration if s.name == "cli.main" else -s.duration
        for s in spans if s.parent is None and not s.probe and s.op is not None)
    values["recovery.round_ns_per_slot"] = (
        values["recovery.round_s"] * 1e9 / counts["slots"] if counts["slots"] else 0.0)
    values["recovery.scaling_exponent"] = _fit_exponent(ladder) if len(ladder) > 1 else 0.0
    for key in ("rounds", "matching_size", "greedy_size", "pruned_size",
                "growth_rounds", "saturation_round", "union_size"):
        values[f"recovery.{key}"] = float(counts[key])
    values["recovery.prune_keep_ratio"] = (
        counts["pruned_size"] / counts["greedy_size"] if counts["greedy_size"] else 0.0)
    values["baselines.unconverged"] = float(counts["unconverged"])
    values["dataio.edges_read"] = float(counts["edges_read"])
    for key in ("family_size", "kernel_phases", "budget_errors"):
        values[f"oracle.{key}"] = float(counts[key])
    return values


def _optimized_umhs(runner: Runner, seed: int, unions: dict[int, frozenset]) -> float:
    """Seconds of umhs() per pass under `python -O`, checked against the replay."""
    jobs = [(i, runner.ops[i]) for i in sorted(unions)]  # ops whose main succeeded
    if not jobs:
        return 0.0
    report = run_child("optimized", {"seed": seed, "jobs": [
        {"edges": str(op.edges), "core": str(op.core),
         "trajectory": op.command == "sweep"} for _, op in jobs]}, optimize=True)
    if report["sys_flags_optimize"] != 1:
        raise RuntimeError("the -O child did not run optimized")
    for (i, op), members in zip(jobs, report["unions"]):
        if frozenset(members) != unions[i]:
            raise tracing.ReplayMismatch(f"{op.inst.name}: union under -O differs")
    return sum(report["times"])


def traced_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    import_umhs()
    insts = wl.instances(workload, seed)
    tr = tracing.Tracer()
    tracing.traced_setup(tr, insts, workdir)
    setup_spans = list(tr.spans)
    errors = wl.check_files(workload, seed, insts, workdir,
                            wl.file_digests(insts, workdir))

    runner = Runner(wl.operations(workload, seed, insts, workdir))
    n_ops = len(runner.ops)
    passes: list[dict[str, float]] = []
    unions: dict[int, frozenset] = {}
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        first_span = len(tr.spans)
        counts: Counter = Counter()
        ladder = []
        for i, op in enumerate(runner.ops):
            tr.op = len(passes) * n_ops + i
            _, text = runner.run(i, tr)
            if text is None:
                continue
            slots, rounds = counts["slots"], counts["rounds"]
            union = tracing.replay(tr, op, seed, text, counts)
            if union is not None:
                unions[i] = union
            if op.inst.ladder:
                round_s = sum(s.duration for s in tr.spans[first_span:]
                              if s.op == tr.op and s.name == "recovery.round")
                done = counts["rounds"] - rounds
                ladder.append(((counts["slots"] - slots) / done, round_s / done))
        tr.op = None
        values = pass_metrics(tr.spans[first_span:], counts, ladder)
        values["trace.pass_s"] = time.perf_counter() - pass_start
        values["trace.overhead_ratio"] = values["trace.pass_s"] / values["cli.main_s"]
        passes.append(values)
        if time.perf_counter() - started >= seconds:
            break

    optimized_s = _optimized_umhs(runner, seed, unions)
    bad = runner.check(workload, seed)
    attempted, failed = runner.tally(bad)
    errors += runner.errors

    samples = {key: [p[key] for p in passes] for key in passes[0]}
    samples["recovery.umhs_O_s"] = [optimized_s]
    samples["generators.sbm_hypergraph_s"] = [
        _sum_spans(setup_spans, "generators.sbm_hypergraph")]
    samples["generators.tree_family_s"] = [
        _sum_spans(setup_spans, "generators.tree_family")]
    samples["generators.subsets_scanned"] = [float(sum(
        wl.subsets_scanned(inst) for inst in insts if inst.kind == "sbm"))]
    samples["dataio.write_s"] = [_sum_spans(setup_spans, "dataio.write")]
    return {
        "correct": not errors and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "samples": samples,
        "errors": errors,
        "spans": tr.as_records(),
    }


def write_digests() -> None:
    """Record the default seed's file and output digests in digests.json."""
    import_umhs()
    table = {}
    for workload in wl.WORKLOADS:
        workdir = WORK / f"digests-{workload}-pid{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            insts = wl.instances(workload, wl.DEFAULT_SEED)
            with contextlib.redirect_stdout(io.StringIO()):
                wl.write_instances(insts, workdir)
            digests = wl.file_digests(insts, workdir)
            runner = Runner(wl.operations(workload, wl.DEFAULT_SEED, insts, workdir))
            for i, op in enumerate(runner.ops):
                _, text = runner.run(i)
                if text is None:
                    raise RuntimeError("\n".join(runner.errors))
                digests[op.output.name] = wl.sha256(text.encode())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        table[workload] = digests
    wl.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ------------------------------------------------------------ entry point

def load_spec() -> tuple[dict, dict]:
    """BENCHMARK.json and the layer map, which must name the same metrics."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    spec = json.loads(path.read_text())
    layer_map = json.loads(LAYER_MAP.read_text())
    mapped = [m for layer in layer_map["layers"] for m in layer["metrics"]]
    if sorted(mapped) != sorted(m["name"] for m in spec["per_layer"]):
        raise RuntimeError("layer_map.json and BENCHMARK.json list different metrics")
    return spec, layer_map


def result_line(spec: dict, result: dict, trace: bool) -> dict:
    """The final JSON object: every metric BENCHMARK.json lists, by median."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    samples = result["samples"]
    missing = sorted({m["name"] for m in listed} - set(samples))
    if missing:
        raise RuntimeError(f"metrics listed in BENCHMARK.json but not measured: {missing}")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": quartiles(samples[m["name"]])["median"],
                                "unit": m["unit"]} for m in listed},
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "optimized"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--spec", help=argparse.SUPPRESS)
    parser.add_argument("--write-digests", action="store_true",
                        help="record the default seed's output digests and exit")
    args = parser.parse_args(argv)
    if args.child is None and args.workload is None and not args.write_digests:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        if args.child is not None:
            role = child_setup if args.child == "setup" else child_optimized
            print(json.dumps(role(json.loads(args.spec))))
            return 0
        if args.write_digests:
            write_digests()
            return 0
        spec, layer_map = load_spec()
        import_umhs()  # fail before any work when the package is absent
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = traced_run if args.trace else timed_run
        result = run(args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    line = result_line(spec, result, bool(args.trace))
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "run_record": run_record(),
        "result": line,
        "error_rate": result["failed"] / result["attempted"],
        "spread": {name: quartiles(values)
                   for name, values in result["samples"].items()},
        "layer_map": layer_map,
        **{k: v for k, v in result.items() if k in ("errors", "ops", "spans")},
    }
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1))
    for error in result["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    cap_blas_threads()
    sys.exit(main())

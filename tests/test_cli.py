"""Tests for the command-line surface and CSV emission."""

import csv
import hashlib
import io
import itertools
import math
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from umhs import (
    IterationParams,
    SbmParams,
    UmhsConfig,
    borgatti_everett_ranking,
    clique_eigen_ranking,
    h_eigen_ranking,
    kernelize,
    random_hypergraph,
    sbm_hypergraph,
    umhs,
    uniform_subhypergraph,
    z_eigen_ranking,
)
from umhs.dataio import read_hypergraph, write_core, write_hypergraph
from umhs.cli import (
    ExperimentConfig,
    _build_parser,
    _execute,
    main,
    write_results_csv,
)

SBM_SPEC = "core=5,fringe=12,r=3,p=0.6,q=0.05"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_body(text):
    """Everything except the '#' metadata lines."""
    return "\n".join(line for line in text.splitlines() if not line.startswith("#"))


def parse_rows(text):
    return list(csv.DictReader(io.StringIO(csv_body(text))))


class TestExperimentConfig:
    def test_requires_some_method(self):
        with pytest.raises(ValueError, match="method"):
            ExperimentConfig(dataset="d", sbm=SbmParams(3, 3, 2, 0.5, 0.5), methods=())

    def test_requires_exactly_one_source(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="d")
        with pytest.raises(ValueError):
            ExperimentConfig(
                dataset="d", input_path="x", sbm=SbmParams(3, 3, 2, 0.5, 0.5)
            )

    def test_file_input_needs_core(self):
        with pytest.raises(ValueError, match="core"):
            ExperimentConfig(dataset="d", input_path="x")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(
                dataset="d", sbm=SbmParams(3, 3, 2, 0.5, 0.5), methods=("pagerank",)
            )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be non-negative, got -1"):
            ExperimentConfig(dataset="d", input_path="x", core_path="y", seed=-1)

    def test_repeated_method_rejected(self):
        with pytest.raises(ValueError, match="repeated.*umhs"):
            ExperimentConfig(
                dataset="d",
                sbm=SbmParams(3, 3, 2, 0.5, 0.5),
                methods=("umhs", "degree", "umhs"),
            )


class TestRunExperiment:
    def test_all_methods_give_seven_rows(self):
        cfg = ExperimentConfig(
            dataset="sbm", sbm=SbmParams(5, 12, 3, 0.6, 0.05, seed=1), iterations=10
        )
        rows = _execute(cfg)[0]
        assert len(rows) == 7
        assert [row.method for row in rows] == sorted(row.method for row in rows)
        assert {row.dataset for row in rows} == {"sbm"}
        assert {row.r for row in rows} == {3}

    def test_umhs_output_size_is_union_size(self):
        cfg = ExperimentConfig(
            dataset="sbm",
            sbm=SbmParams(5, 12, 3, 0.6, 0.05, seed=1),
            methods=("umhs", "degree"),
            iterations=10,
        )
        rows = {row.method: row for row in _execute(cfg)[0]}
        n = sbm_hypergraph(SbmParams(5, 12, 3, 0.6, 0.05, seed=1)).graph.n
        assert rows["degree"].output_size == n
        assert rows["umhs"].output_size <= n

    def test_union_monotone_in_iterations(self):
        small = ExperimentConfig(
            dataset="s",
            sbm=SbmParams(5, 12, 3, 0.6, 0.05, seed=2),
            methods=("umhs",),
            iterations=1,
        )
        large = ExperimentConfig(
            dataset="s",
            sbm=SbmParams(5, 12, 3, 0.6, 0.05, seed=2),
            methods=("umhs",),
            iterations=100,
        )
        (row1,), (row100,) = _execute(small)[0], _execute(large)[0]
        assert row1.output_size <= row100.output_size
        assert 0.0 <= row100.auprc <= 1.0

    def test_rows_have_metrics_in_range(self):
        cfg = ExperimentConfig(
            dataset="sbm", sbm=SbmParams(4, 9, 3, 0.7, 0.1, seed=5), iterations=5
        )
        for row in _execute(cfg)[0]:
            assert 0.0 <= row.precision_at_core <= 1.0
            assert 0.0 <= row.auprc <= 1.0
            assert row.wall_time >= 0.0


class TestCsvEmission:
    def make_text(self, seed=3):
        cfg = ExperimentConfig(
            dataset="sbm",
            sbm=SbmParams(5, 12, 3, 0.6, 0.05, seed=seed),
            methods=("umhs", "degree", "k-core"),
            iterations=8,
        )
        rows = _execute(cfg)[0]
        buf = io.StringIO()
        write_results_csv(rows, buf, cfg)
        return buf.getvalue()

    def test_header_and_row_count(self):
        rows = parse_rows(self.make_text())
        assert len(rows) == 3
        assert set(rows[0]) == {
            "dataset",
            "r",
            "method",
            "precision_at_core",
            "auprc",
            "output_size",
        }

    def test_metadata_is_comment_prefixed(self):
        text = self.make_text()
        meta = [line for line in text.splitlines() if line.startswith("#")]
        assert any("seed" in line for line in meta)
        assert any("wall_time" in line for line in meta)

    def test_wall_time_kept_out_of_body(self):
        assert "wall_time" not in csv_body(self.make_text())

    def test_body_byte_identical_across_reruns(self):
        assert csv_body(self.make_text()) == csv_body(self.make_text())

    def test_lf_line_endings(self):
        assert "\r" not in self.make_text()


class TestCliRecover:
    def test_sbm_all_methods(self, capsys):
        code, out, err = run_cli(
            ["recover", "--sbm", SBM_SPEC, "--iterations", "5", "--seed", "1"], capsys
        )
        assert code == 0
        assert len(parse_rows(out)) == 7

    def test_method_subset(self, capsys):
        code, out, _ = run_cli(
            ["recover", "--sbm", SBM_SPEC, "--methods", "umhs,degree", "--iterations", "5"],
            capsys,
        )
        assert code == 0
        rows = parse_rows(out)
        assert [row["method"] for row in rows] == ["degree", "umhs"]

    def test_deterministic_body(self, capsys):
        argv = ["recover", "--sbm", SBM_SPEC, "--methods", "umhs", "--iterations", "6"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert csv_body(first) == csv_body(second)

    def test_output_file(self, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code, _, _ = run_cli(
            [
                "recover",
                "--sbm",
                SBM_SPEC,
                "--methods",
                "degree",
                "--output",
                str(out_path),
            ],
            capsys,
        )
        assert code == 0
        assert parse_rows(out_path.read_text())

    def test_file_input_with_core(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b c\nc d e\n")
        corefile = tmp_path / "g.core"
        corefile.write_text("c\n")
        code, out, _ = run_cli(
            [
                "recover",
                "--input",
                str(edges),
                "--core",
                str(corefile),
                "--methods",
                "degree,umhs",
                "--iterations",
                "4",
            ],
            capsys,
        )
        assert code == 0
        assert len(parse_rows(out)) == 2

    def test_allow_unhit_drops_and_continues(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b c\nc d e\n")
        corefile = tmp_path / "g.core"
        corefile.write_text("a\n")
        code, out, _ = run_cli(
            [
                "recover",
                "--input",
                str(edges),
                "--core",
                str(corefile),
                "--methods",
                "degree",
                "--allow-unhit",
            ],
            capsys,
        )
        assert code == 0
        assert "dropped" in out

    def test_r_filter_restricts_uniformity(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b\na b c\nb c d\n")
        corefile = tmp_path / "g.core"
        corefile.write_text("b\n")
        code, out, _ = run_cli(
            [
                "recover",
                "--input",
                str(edges),
                "--core",
                str(corefile),
                "--r",
                "3",
                "--methods",
                "degree",
            ],
            capsys,
        )
        assert code == 0
        assert parse_rows(out)[0]["r"] == "3"

    def test_bad_sbm_spec_is_reported(self, capsys):
        code, _, err = run_cli(["recover", "--sbm", "core=5"], capsys)
        assert code == 1
        assert err.strip()

    def test_solver_diagnostics_in_metadata_block(self, capsys):
        code, out, _ = run_cli(
            ["recover", "--sbm", SBM_SPEC, "--iterations", "5", "--seed", "1"], capsys
        )
        assert code == 0
        graph = sbm_hypergraph(SbmParams(5, 12, 3, 0.6, 0.05, seed=1)).graph
        expected = []
        for method, ranker in [
            ("borgatti-everett", borgatti_everett_ranking),
            ("clique-eigen", clique_eigen_ranking),
            ("h-eigen", h_eigen_ranking),
            ("z-eigen", z_eigen_ranking),
        ]:
            r = ranker(graph, IterationParams())
            assert r.iterations >= 1
            expected.append(
                f"# solver {method} converged {str(r.converged).lower()} "
                f"residual {r.residual:g} iterations {r.iterations}"
            )
        solver = [line for line in out.splitlines() if line.startswith("# solver")]
        assert solver == expected


MIXED_EDGES = "a b\na b c\nb c d\n"


class TestCliMixedRank:
    """Z- and H-eigen need a uniform input; recover skips them on others."""

    @pytest.fixture
    def instance(self, tmp_path):
        edges = tmp_path / "mixed.edges"
        edges.write_text(MIXED_EDGES)
        corefile = tmp_path / "mixed.core"
        corefile.write_text("b\n")
        return ["recover", "--input", str(edges), "--core", str(corefile),
                "--iterations", "4"]

    def test_all_methods_skip_the_tensor_centralities(self, instance, capsys):
        code, out, err = run_cli(instance, capsys)
        assert code == 0
        assert err == ""
        methods = [row["method"] for row in parse_rows(out)]
        assert methods == [
            "borgatti-everett", "clique-eigen", "degree", "k-core", "umhs"]
        skips = [line for line in out.splitlines() if line.startswith("# skipped")]
        assert skips == [
            f"# skipped {method}: hypergraph is not uniform; "
            "extract an r-uniform part first"
            for method in ("h-eigen", "z-eigen")
        ]
        assert "solver h-eigen" not in out and "solver z-eigen" not in out

    def test_rows_match_a_run_without_the_skipped_methods(self, instance, capsys):
        _, skipped, _ = run_cli(instance, capsys)
        others = "borgatti-everett,clique-eigen,degree,k-core,umhs"
        _, direct, _ = run_cli(instance + ["--methods", others], capsys)
        assert csv_body(skipped) == csv_body(direct)

    def test_one_runnable_method_is_enough(self, instance, capsys):
        code, out, _ = run_cli(instance + ["--methods", "z-eigen,degree"], capsys)
        assert code == 0
        assert [row["method"] for row in parse_rows(out)] == ["degree"]
        assert "# skipped z-eigen: hypergraph is not uniform" in out

    def test_error_when_every_method_is_skipped(self, instance, capsys):
        code, out, err = run_cli(instance + ["--methods", "h-eigen,z-eigen"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: every selected method was skipped: h-eigen: ")
        assert "z-eigen: hypergraph is not uniform" in err

    def test_r_slice_runs_the_tensor_centralities(self, instance, capsys):
        code, out, _ = run_cli(instance + ["--r", "3"], capsys)
        assert code == 0
        assert len(parse_rows(out)) == 7
        assert "# skipped" not in out


@pytest.mark.parametrize("command", ["recover", "sweep"])
class TestCliLoader:
    """recover and sweep load and validate an instance the same way."""

    def write_instance(self, tmp_path, core):
        edges = tmp_path / "g.edges"
        edges.write_text("a b c\nc d e\n")
        corefile = tmp_path / "g.core"
        corefile.write_text(core)
        return str(edges), str(corefile)

    def test_unhit_core_fails_loudly(self, command, tmp_path, capsys):
        edges, corefile = self.write_instance(tmp_path, "a\n")
        code, out, err = run_cli(
            [command, "--input", edges, "--core", corefile], capsys
        )
        assert code == 1
        assert not out
        assert 'edge "c d e" is unhit' in err
        assert ("--allow-unhit" in err) == (command == "recover")

    def test_missing_input_file(self, command, tmp_path, capsys):
        code, _, err = run_cli(
            [
                command,
                "--input",
                str(tmp_path / "absent.edges"),
                "--core",
                str(tmp_path / "absent.core"),
            ],
            capsys,
        )
        assert code == 1
        assert err.strip()

    def test_input_and_sbm_rejected(self, command, tmp_path, capsys):
        edges, corefile = self.write_instance(tmp_path, "c\n")
        code, out, err = run_cli(
            [command, "--input", edges, "--core", corefile, "--sbm", SBM_SPEC],
            capsys,
        )
        assert code == 1
        assert not out
        assert "exactly one" in err

    def test_input_needs_core(self, command, tmp_path, capsys):
        edges, _ = self.write_instance(tmp_path, "c\n")
        code, out, err = run_cli([command, "--input", edges], capsys)
        assert code == 1
        assert not out
        assert "core" in err

    def test_core_with_sbm_rejected(self, command, tmp_path, capsys):
        code, out, err = run_cli(
            [command, "--sbm", SBM_SPEC, "--core", str(tmp_path / "absent.core")],
            capsys,
        )
        assert code == 1
        assert not out
        assert "--core cannot be combined with --sbm" in err

    def test_missing_source_names_the_flags(self, command, capsys):
        code, out, err = run_cli([command], capsys)
        assert code == 1
        assert not out
        assert "exactly one of --input or --sbm" in err

    @pytest.mark.parametrize("spec, message", [
        (SBM_SPEC + ",sed=4", "unknown sbm spec field 'sed'"),
        ("core=5,core=6,fringe=12,r=3,p=0.6,q=0.05", "repeated sbm spec field 'core'"),
        ("core=5,fringe=x,r=3,p=0.6,q=0.05", "sbm spec field fringe: 'x' is not a valid int"),
        ("core=5,fringe=12,r=3,p=0.6,q=", "sbm spec field q: '' is not a valid float"),
        ("core=5,fringe=12,r=3,p=0.6", "sbm spec missing field 'q'"),
        ("core=5,fringe=12,r=3,p=0.6,q", "bad sbm spec fragment 'q'"),
    ], ids=["unknown", "repeated", "unparsable-int", "unparsable-float", "missing",
            "no-value"])
    def test_bad_sbm_spec_names_the_field(self, command, spec, message, capsys):
        code, out, err = run_cli([command, "--sbm", spec], capsys)
        assert code == 1
        assert not out
        assert message in err

    def test_seed_in_sbm_spec_overrides_the_flag(self, command, capsys):
        argv = [command, "--sbm", SBM_SPEC + ",seed=4", "--iterations", "3"]
        _, in_spec, _ = run_cli(argv + ["--seed", "9"], capsys)
        _, by_flag, _ = run_cli([command, "--sbm", SBM_SPEC, "--iterations", "3",
                                 "--seed", "9"], capsys)
        assert "seed=4" in in_spec and "seed=9" in by_flag

    def test_zero_iterations_rejected(self, command, capsys):
        # recover rejects it even when no selected method runs rounds
        argv = [command, "--sbm", SBM_SPEC, "--iterations", "0"]
        if command == "recover":
            argv += ["--methods", "degree"]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert not out
        assert "iterations must be >= 1, got 0" in err

    def test_saturation_round_in_metadata_block(self, command, capsys):
        argv = [command, "--sbm", SBM_SPEC, "--iterations", "12", "--seed", "4"]
        if command == "recover":
            argv += ["--methods", "umhs"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        graph = sbm_hypergraph(SbmParams(5, 12, 3, 0.6, 0.05, seed=4)).graph
        result = umhs(graph, UmhsConfig(iterations=12, seed=4))
        assert f"# saturation_round {result.saturation_round}" in out.splitlines()

    def test_round_sizes_in_metadata_block(self, command, capsys):
        argv = [command, "--sbm", SBM_SPEC, "--iterations", "12", "--seed", "4"]
        if command == "recover":
            argv += ["--methods", "umhs"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        graph = sbm_hypergraph(SbmParams(5, 12, 3, 0.6, 0.05, seed=4)).graph
        rounds = umhs(graph, UmhsConfig(iterations=12, seed=4)).rounds
        line = "# rounds min/median/max" + "".join(
            f" {name} {min(sizes)}/{float(statistics.median(sizes)):g}/{max(sizes)}"
            for name, sizes in (("matching", rounds.matching),
                                ("greedy", rounds.greedy),
                                ("pruned", rounds.pruned),
                                ("new", rounds.new))
        )
        assert [ln for ln in out.splitlines() if ln.startswith("# rounds")] == [line]

    def test_union_quality_in_metadata_block(self, command, capsys):
        argv = [command, "--sbm", SBM_SPEC, "--iterations", "12", "--seed", "4"]
        if command == "recover":
            argv += ["--methods", "umhs"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        labeled = sbm_hypergraph(SbmParams(5, 12, 3, 0.6, 0.05, seed=4))
        union = umhs(labeled.graph, UmhsConfig(iterations=12, seed=4)).union_set
        core = labeled.core
        recall = len(union & core) / len(core)
        line = (f"# union size {len(union)} core_recall {recall:g} "
                f"ratio {len(union) / len(core):g}")
        assert [ln for ln in out.splitlines() if ln.startswith("# union")] == [line]
        # the seed-4 instance: a 9-node union holds the 5-node core
        assert line == "# union size 9 core_recall 1 ratio 1.8"

    def test_notes_in_metadata_block(self, command, tmp_path, capsys):
        edges, corefile = self.write_instance(tmp_path, "c\n")
        code, out, _ = run_cli(
            [command, "--input", edges, "--core", corefile, "--iterations", "3"],
            capsys,
        )
        assert code == 0
        assert f"# input {edges} core {corefile}" in out.splitlines()


def stage_wall_times(out):
    """The (dataset, stage) pairs of the '# wall_time <dataset> <stage>
    <seconds>s' lines of out."""
    pattern = re.compile(r"# wall_time (\S+) (\S+) \d+\.\d{6}s")
    return {
        (match[1], match[2])
        for match in map(pattern.fullmatch, out.splitlines())
        if match
    }


def test_recover_writes_load_and_evaluation_wall_times(tmp_path, capsys):
    edges = tmp_path / "g.edges"
    edges.write_text("a b c\nc d e\n")
    core = tmp_path / "g.core"
    core.write_text("c\n")
    argv = ["recover", "--input", str(edges), "--core", str(core),
            "--iterations", "3", "--methods", "umhs,degree"]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    assert stage_wall_times(out) == {
        ("g", "load"), ("g", "evaluation"), ("g", "degree"), ("g", "umhs")
    }
    assert "wall_time" not in csv_body(out)


def test_sweep_writes_load_and_sweep_wall_times(capsys):
    code, out, _ = run_cli(["sweep", "--sbm", SBM_SPEC, "--iterations", "5"], capsys)
    assert code == 0
    assert stage_wall_times(out) == {("sbm", "load"), ("sbm", "sweep")}
    assert "wall_time" not in csv_body(out)


def test_recover_without_umhs_writes_no_round_sizes(capsys):
    code, out, _ = run_cli(
        ["recover", "--sbm", SBM_SPEC, "--iterations", "3", "--methods", "degree"],
        capsys,
    )
    assert code == 0
    assert "# saturation_round" not in out and "# rounds" not in out


def test_union_quality_absent_without_a_union_and_core(tmp_path, capsys):
    # recover and sweep reject every input without a non-empty core, so the
    # union line is missing only where no union is compared with a core:
    # recover without umhs, and oracle, whose input has no core
    code, out, _ = run_cli(
        ["recover", "--sbm", SBM_SPEC, "--iterations", "3", "--methods", "degree"],
        capsys,
    )
    assert code == 0
    assert not [ln for ln in out.splitlines() if ln.startswith("# union")]
    edges = tmp_path / "g.edges"
    edges.write_text("a b\nb c\n")
    code, out, _ = run_cli(["oracle", "--input", str(edges)], capsys)
    assert code == 0
    assert "union_size 1" in out.splitlines()
    assert not [ln for ln in out.splitlines() if ln.startswith("# union")]


# sha256 of the files `umhs generate sbm` wrote before the generator was
# streamed in chunks; the .edges/.core bytes must never change for a seed.
GENERATE_DIGESTS = {
    "core5-seed0": (
        ["5", "12", "3", "0.6", "0.05", "0"],
        "b509d19670edfb6b9c26817c2c4ce10784fab71f28359ce42e05356cb6be1c06",
        "3800b8669623025659795887303a6c4f656372b2403a96db7b44d576defc7d8d",
    ),
    "core5-seed1": (
        ["5", "12", "3", "0.6", "0.05", "1"],
        "45af3c1938b3c5037b1e99de1bcd67ca38681a7f03625802aa5a23ec0f5b78a8",
        "3800b8669623025659795887303a6c4f656372b2403a96db7b44d576defc7d8d",
    ),
    "core5-seed2": (
        ["5", "12", "3", "0.6", "0.05", "2"],
        "dca456f8f79166aeeae141f72510e0a2203a65f24f9d0d9d167c8618b2b53d81",
        "3800b8669623025659795887303a6c4f656372b2403a96db7b44d576defc7d8d",
    ),
    "r2": (
        ["6", "20", "2", "0.5", "0.1", "3"],
        "77edc11e49ba45d0d17ce6ec30a3cfb957621e96fed764da06c8555c6920eecb",
        "ffe30a4d552a2b1a76f29cef24e1133a13013025f3667b5c3a856196a9118700",
    ),
    "ladder-n300": (
        ["40", "260", "3", "0.05", "0.0005", "1"],
        "85c0ff717da8bb87b6205dd68bf4079eaf3bacd327653976747c3535ca47cb53",
        "4f4402bf0352bfce5788891c8f9e8fd85d9ec8d886bc3bad775b420cc3e4cc0a",
    ),
}


class TestCliGenerate:
    @pytest.mark.parametrize("name", sorted(GENERATE_DIGESTS))
    def test_sbm_files_byte_identical(self, name, tmp_path, capsys):
        values, edges_digest, core_digest = GENERATE_DIGESTS[name]
        flags = ["--core-size", "--fringe-size", "--r", "--p", "--q", "--seed"]
        argv = ["generate", "sbm", "--output", str(tmp_path / name)]
        for flag, value in zip(flags, values):
            argv += [flag, value]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err
        for suffix, digest in (("edges", edges_digest), ("core", core_digest)):
            data = (tmp_path / f"{name}.{suffix}").read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, suffix

    def test_sbm_writes_edge_and_core_files(self, tmp_path, capsys):
        prefix = tmp_path / "inst"
        code, out, _ = run_cli(
            [
                "generate",
                "sbm",
                "--core-size",
                "4",
                "--fringe-size",
                "8",
                "--r",
                "3",
                "--p",
                "0.8",
                "--q",
                "0.1",
                "--seed",
                "2",
                "--output",
                str(prefix),
            ],
            capsys,
        )
        assert code == 0
        assert (tmp_path / "inst.edges").exists()
        assert (tmp_path / "inst.core").exists()
        # generated pair must load back as a valid labeled instance
        code2, _, err2 = run_cli(
            [
                "recover",
                "--input",
                str(tmp_path / "inst.edges"),
                "--core",
                str(tmp_path / "inst.core"),
                "--methods",
                "degree",
            ],
            capsys,
        )
        assert code2 == 0, err2

    def test_tree_writes_minimal_core(self, tmp_path, capsys):
        prefix = tmp_path / "tree"
        code, _, _ = run_cli(
            [
                "generate",
                "tree",
                "--b",
                "2",
                "--r",
                "3",
                "--seed",
                "0",
                "--output",
                str(prefix),
            ],
            capsys,
        )
        assert code == 0
        core_tokens = [
            line
            for line in (tmp_path / "tree.core").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(core_tokens) == 4  # (r-1)(b-1)+b for b=2, r=3


class TestCliOracle:
    def test_reports_exact_quantities(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b\nb c\n")
        code, out, _ = run_cli(["oracle", "--input", str(edges)], capsys)
        assert code == 0
        report = dict(
            line.split(maxsplit=1) for line in out.splitlines() if line.strip()
        )
        assert report["nodes"] == "3"
        assert report["edges"] == "2"
        assert report["k_star"] == "1"
        assert report["alpha"] == "2"
        assert report["union_size"] == "1"

    def test_k_override_expands_union(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b\nb c\n")
        code, out, _ = run_cli(["oracle", "--input", str(edges), "--k", "2"], capsys)
        assert code == 0
        report = dict(
            line.split(maxsplit=1) for line in out.splitlines() if line.strip()
        )
        assert report["union_size"] == "3"

    def test_parser_built_once_per_process(self):
        assert _build_parser() is _build_parser()

    def test_option_of_one_call_not_carried_to_the_next(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b\nb c\n")
        _, first, _ = run_cli(["oracle", "--input", str(edges), "--k", "3"], capsys)
        code, second, _ = run_cli(["oracle", "--input", str(edges)], capsys)
        assert code == 0
        assert "k 3\n" in first
        report = dict(line.split(maxsplit=1) for line in second.splitlines())
        assert report["k"] == report["k_star"] == "1"

    def test_limits_enforced(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b\nb c\nc d\nd e\n")
        code, _, err = run_cli(
            ["oracle", "--input", str(edges), "--limits-max-nodes", "2"], capsys
        )
        assert code == 1
        assert "limit" in err

    def test_incomplete_kernelization_is_reported(self, tmp_path, capsys, monkeypatch):
        # a three-edge star is above sigma(2, 2) = 2, so kernelization runs
        edges = tmp_path / "g.edges"
        edges.write_text("a b\na c\na d\n")
        argv = ["oracle", "--input", str(edges)]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.splitlines()[-1] == "kernel_phases 1"

        def kernelize_out_of_time(graph, k, limits):
            # the clock reads 0 when the deadline is set and infinity after
            clock = itertools.chain([0.0], itertools.repeat(math.inf))
            monkeypatch.setattr(
                "umhs.oracle.time", SimpleNamespace(monotonic=clock.__next__)
            )
            return kernelize(graph, k, limits)

        monkeypatch.setattr("umhs.cli.kernelize", kernelize_out_of_time)
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out.splitlines()[-3:] == [
            "kernel_edges 3", "kernel_phases 0", "kernel_complete false"
        ]


def sweep_instance(tmp_path, graph, core_seed):
    """graph written as an --input file, and as its --core file the set that
    one umhs round at core_seed finds on the graph the file reads back as.
    Returns the core and the sweep options naming both files."""
    edges, core_file = tmp_path / "g.edges", tmp_path / "g.core"
    write_hypergraph(graph, edges)
    read, labels = read_hypergraph(edges)
    core = umhs(read, UmhsConfig(iterations=1, seed=core_seed)).union_set
    write_core(core, core_file, list(labels))
    return core, ["--input", str(edges), "--core", str(core_file)]


class TestCliSweep:
    @pytest.mark.parametrize("iterations, lines", [(20, 0), (20000, 1)])
    def test_closed_pipe_stops_quietly(self, iterations, lines):
        # the reader leaves at once, so even a short output still sitting in
        # the stdout buffer meets the closed pipe; or it takes one line of
        # an output far larger than a pipe buffer and leaves mid-write
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        env.pop("PYTHONUNBUFFERED", None)  # keep stdout block-buffered
        proc = subprocess.Popen(
            [sys.executable, "-c",
             "import sys; from umhs.cli import main; sys.exit(main())",
             "sweep", "--sbm", SBM_SPEC, "--iterations", str(iterations)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        read = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 1
        assert all(line.startswith(b"# umhs") for line in read)
        assert err == b""

    def test_emits_one_row_per_iteration(self, capsys):
        code, out, _ = run_cli(
            ["sweep", "--sbm", SBM_SPEC, "--iterations", "12", "--seed", "4"], capsys
        )
        assert code == 0
        rows = parse_rows(out)
        assert len(rows) == 12
        assert set(rows[0]) == {"iteration", "union_size", "recovered_fraction"}
        sizes = [int(row["union_size"]) for row in rows]
        assert sizes == sorted(sizes)

    def test_single_iteration_row(self, tmp_path, capsys):
        graph = random_hypergraph(10, 3, 9, seed=2)
        core, files = sweep_instance(tmp_path, graph, core_seed=0)
        code, out, _ = run_cli(["sweep", *files, "--iterations", "1"], capsys)
        assert code == 0
        assert csv_body(out).splitlines()[1:] == [f"1,{len(core)},1"]

    def test_rows_count_the_iterations_and_never_shrink(self, tmp_path, capsys):
        graph = random_hypergraph(12, 3, 14, seed=5)
        _, files = sweep_instance(tmp_path, graph, core_seed=99)
        argv = ["sweep", *files, "--iterations", "40", "--seed", "1"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        rows = parse_rows(out)
        assert [int(row["iteration"]) for row in rows] == list(range(1, 41))
        sizes = [int(row["union_size"]) for row in rows]
        assert sizes == sorted(sizes)
        fractions = [float(row["recovered_fraction"]) for row in rows]
        assert fractions == sorted(fractions)
        assert all(0.0 <= fraction <= 1.0 for fraction in fractions)

    def test_deterministic(self, tmp_path, capsys):
        graph = random_hypergraph(10, 3, 10, seed=7)
        _, files = sweep_instance(tmp_path, graph, core_seed=8)
        argv = ["sweep", *files, "--iterations", "10", "--seed", "4"]
        first = run_cli(argv, capsys)
        second = run_cli(argv, capsys)
        assert first[0] == second[0] == 0
        assert without_wall_times(first[1]) == without_wall_times(second[1])

    @pytest.mark.parametrize("source", ["sbm", "input-r"])
    def test_rows_are_the_umhs_trajectory(self, source, tmp_path, capsys):
        if source == "sbm":
            labeled = sbm_hypergraph(SbmParams(5, 12, 3, 0.6, 0.05, seed=4))
            graph, core = labeled.graph, labeled.core
            argv = ["--sbm", SBM_SPEC]
        else:
            # edges of sizes 2 to 4; the core hits the 3-uniform part only
            edges = tmp_path / "mixed.edges"
            write_hypergraph(random_hypergraph(14, 4, 40, seed=1), edges)
            mixed, labels = read_hypergraph(edges)
            graph, remap = uniform_subhypergraph(mixed, 3)
            core = umhs(graph, UmhsConfig(iterations=1, seed=7)).union_set
            kept = {v for v, new in remap.items() if new in core}
            write_core(kept, tmp_path / "mixed.core", list(labels))
            argv = ["--input", str(edges), "--core", str(tmp_path / "mixed.core"),
                    "--r", "3"]
        code, out, err = run_cli(
            ["sweep", *argv, "--iterations", "30", "--seed", "4"], capsys
        )
        assert code == 0, err
        cfg = UmhsConfig(iterations=30, seed=4, record_trajectory=True)
        trajectory = umhs(graph, cfg, core=core).trajectory
        assert len(set(trajectory)) > 1  # the union grows after round 1
        assert csv_body(out).splitlines()[1:] == [
            f"{i},{size},{overlap / len(core):.12g}"
            for i, (size, overlap) in enumerate(trajectory, start=1)
        ]


NEGATIVE_SEED = "error: seed must be non-negative, got -1\n"


def test_recover_rejects_a_negative_seed_whatever_the_methods(tmp_path, capsys):
    (tmp_path / "g.edges").write_text("a b c\nc d e\n")
    (tmp_path / "g.core").write_text("c\n")
    code, out, err = run_cli(
        ["recover", "--input", str(tmp_path / "g.edges"),
         "--core", str(tmp_path / "g.core"), "--methods", "degree", "--seed", "-1"],
        capsys,
    )
    assert (code, out, err) == (1, "", NEGATIVE_SEED)


def test_generate_rejects_a_negative_seed(tmp_path, capsys):
    prefix = tmp_path / "tree"
    code, out, err = run_cli(
        ["generate", "tree", "--seed", "-1", "--output", str(prefix)], capsys
    )
    assert (code, out, err) == (1, "", NEGATIVE_SEED)
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_a_negative_seed_before_reading_its_input(tmp_path, capsys):
    # the files do not exist: the seed is refused before either is opened
    code, out, err = run_cli(
        ["sweep", "--input", str(tmp_path / "absent.edges"),
         "--core", str(tmp_path / "absent.core"), "--seed", "-1"],
        capsys,
    )
    assert (code, out, err) == (1, "", NEGATIVE_SEED)


def without_wall_times(text):
    return "".join(
        line
        for line in text.splitlines(keepends=True)
        if not line.startswith("# wall_time")
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["recover", "--sbm", SBM_SPEC, "--methods", "umhs,degree", "--iterations", "5"],
        ["sweep", "--sbm", SBM_SPEC, "--iterations", "5"],
        ["oracle"],
    ],
    ids=["recover", "sweep", "oracle"],
)
def test_output_file_matches_stdout(argv, tmp_path, capsys):
    if argv == ["oracle"]:
        edges = tmp_path / "g.edges"
        edges.write_text("a b\nb c\nc d\n")
        argv = ["oracle", "--input", str(edges)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    out_path = tmp_path / "out.txt"
    code, printed, _ = run_cli(argv + ["--output", str(out_path)], capsys)
    assert code == 0
    assert printed == ""
    written = out_path.read_bytes().decode("utf-8")
    assert without_wall_times(written) == without_wall_times(out)

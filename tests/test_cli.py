"""Tests for the command-line surface and CSV emission."""

import csv
import io

import pytest

from umhs import SbmParams, sbm_hypergraph
from umhs.cli import ExperimentConfig, main, run_experiment, write_results_csv

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
        rows = run_experiment(cfg)
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
        rows = {row.method: row for row in run_experiment(cfg)}
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
        (row1,), (row100,) = run_experiment(small), run_experiment(large)
        assert row1.output_size <= row100.output_size
        assert 0.0 <= row100.auprc <= 1.0

    def test_rows_have_metrics_in_range(self):
        cfg = ExperimentConfig(
            dataset="sbm", sbm=SbmParams(4, 9, 3, 0.7, 0.1, seed=5), iterations=5
        )
        for row in run_experiment(cfg):
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
        rows = run_experiment(cfg)
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

    def test_notes_in_metadata_block(self, command, tmp_path, capsys):
        edges, corefile = self.write_instance(tmp_path, "c\n")
        code, out, _ = run_cli(
            [command, "--input", edges, "--core", corefile, "--iterations", "3"],
            capsys,
        )
        assert code == 0
        assert f"# input {edges} core {corefile}" in out.splitlines()


class TestCliGenerate:
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

    def test_limits_enforced(self, tmp_path, capsys):
        edges = tmp_path / "g.edges"
        edges.write_text("a b\nb c\nc d\nd e\n")
        code, _, err = run_cli(
            ["oracle", "--input", str(edges), "--limits-max-nodes", "2"], capsys
        )
        assert code == 1
        assert "limit" in err


class TestCliSweep:
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

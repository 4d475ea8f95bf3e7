"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.rdf import write_ntriples_file

from .conftest import make_chain


def run_cli(capsys, *argv) -> str:
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_reason_defaults(self):
        args = build_parser().parse_args(["reason", "file.nt"])
        assert args.fragment == "rhodf"
        assert args.buffer_size == 50
        assert args.workers == 4
        assert args.persist is None
        assert not args.no_fsync

    def test_snapshot_requires_persist(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot"])

    def test_snapshot_format_is_not_an_option(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["snapshot", "--persist", "d", "--format", "v1"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["reason", "file.nt"],
            ["explain", "file.nt", "--query", "?x a ?c"],
            ["serve"],
            ["demo"],
            ["snapshot", "--persist", "d"],
            ["recover", "--persist", "d"],
            ["bench"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_store_is_not_an_option(self, argv, capsys):
        build_parser().parse_args(argv)
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--store", "hashdict"])
        assert "unrecognized arguments: --store" in capsys.readouterr().err

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.coalesce_ms == 2.0
        assert args.retain_views == 8
        assert args.persist is None

    def test_help_epilog_documents_durability(self):
        assert "--persist" in build_parser().format_help()


class TestReason:
    def test_reason_over_file(self, capsys, tmp_path):
        path = tmp_path / "chain.nt"
        write_ntriples_file(make_chain(10), path)
        out = run_cli(capsys, "reason", str(path), "--workers", "0", "--timeout", "0")
        assert "9 explicit + 36 inferred" in out

    def test_reason_over_dataset_with_stats(self, capsys):
        out = run_cli(
            capsys,
            "reason",
            "--dataset", "subClassOf20",
            "--workers", "0",
            "--timeout", "0",
            "--stats",
        )
        assert "171 inferred" in out
        assert "scm-sco" in out

    def test_reason_writes_output(self, capsys, tmp_path):
        source = tmp_path / "in.nt"
        target = tmp_path / "out.nt"
        write_ntriples_file(make_chain(5), source)
        out = run_cli(
            capsys, "reason", str(source), "--workers", "0", "--timeout", "0",
            "--output", str(target),
        )
        assert "wrote" in out
        assert target.exists()
        assert len(target.read_text().strip().splitlines()) == 5 * 4 // 2

    def test_reason_prints_inference_report(self, capsys, tmp_path):
        import json

        path = tmp_path / "chain.nt"
        write_ntriples_file(make_chain(10), path)
        out = run_cli(
            capsys, "reason", str(path), "--workers", "0", "--timeout", "0",
            "--report",
        )
        payload = json.loads(out[out.index("{"):])
        assert payload["revision"] == 1
        assert payload["explicit_added"] == 9
        assert payload["inferred_added"] == 36
        assert payload["removed"] == 0
        assert "timings" in payload

    def test_reason_writes_inference_report_file(self, capsys, tmp_path):
        import json

        source = tmp_path / "in.nt"
        target = tmp_path / "report.json"
        write_ntriples_file(make_chain(5), source)
        out = run_cli(
            capsys, "reason", str(source), "--workers", "0", "--timeout", "0",
            "--report", str(target),
        )
        assert "wrote inference report" in out
        payload = json.loads(target.read_text())
        assert payload["net_change"] == payload["explicit_added"] + payload["inferred_added"]

    def test_reason_rejects_both_inputs_and_dataset(self, capsys):
        code = main(["reason", "x.nt", "--dataset", "wordnet"])
        assert code == 2

    def test_reason_rejects_neither(self, capsys):
        assert main(["reason"]) == 2


class TestIntrospectionCommands:
    def test_fragments(self, capsys):
        out = run_cli(capsys, "fragments")
        assert "rhodf" in out and "8 rules" in out

    def test_datasets(self, capsys):
        out = run_cli(capsys, "datasets")
        assert "BSBM_100k" in out
        assert "100,000" in out

    def test_depgraph_text(self, capsys):
        out = run_cli(capsys, "depgraph", "--fragment", "rhodf")
        assert "universal input" in out
        assert "scm-sco" in out

    def test_depgraph_dot(self, capsys):
        out = run_cli(capsys, "depgraph", "--fragment", "rhodf", "--dot")
        assert out.startswith("digraph")


class TestDemoCommand:
    def test_demo_prints_summary_and_writes_report(self, capsys, tmp_path):
        report = tmp_path / "r.html"
        out = run_cli(
            capsys,
            "demo",
            "--dataset", "subClassOf20",
            "--workers", "0",
            "--timeout", "0",
            "--report", str(report),
        )
        assert "Slider inference summary" in out
        assert report.exists()


class TestDurabilityCommands:
    def test_persist_snapshot_recover_cycle(self, capsys, tmp_path):
        source = tmp_path / "chain.nt"
        state = tmp_path / "state"
        write_ntriples_file(make_chain(10), source)

        out = run_cli(
            capsys, "reason", str(source), "--workers", "0", "--timeout", "0",
            "--persist", str(state),
        )
        assert "9 explicit + 36 inferred" in out
        assert (state / "changelog.wal").exists()

        out = run_cli(capsys, "snapshot", "--persist", str(state))
        assert "changelog truncated" in out
        assert (state / "snapshot.slider").read_bytes()[:8] == b"SLSNAP02"

        target = tmp_path / "recovered.nt"
        out = run_cli(
            capsys, "recover", "--persist", str(state),
            "--stats", "--output", str(target),
        )
        assert "recovered revision" in out
        assert "9 explicit + 36 inferred" in out
        assert len(target.read_text().strip().splitlines()) == 45

    def test_reason_recovers_previous_state(self, capsys, tmp_path):
        source = tmp_path / "chain.nt"
        state = tmp_path / "state"
        write_ntriples_file(make_chain(6), source)
        run_cli(capsys, "reason", str(source), "--workers", "0", "--timeout", "0",
                "--persist", str(state))
        out = run_cli(capsys, "reason", str(source), "--workers", "0", "--timeout", "0",
                      "--persist", str(state), "--no-fsync")
        assert "recovered revision" in out

    def test_recover_cold_directory(self, capsys, tmp_path):
        out = run_cli(capsys, "recover", "--persist", str(tmp_path / "empty"))
        assert "nothing to recover" in out


class TestBenchCommand:
    def test_bench_small_subset(self, capsys):
        out = run_cli(
            capsys,
            "bench",
            "--fragment", "rhodf",
            "--datasets", "subClassOf10", "subClassOf20",
            "--workers", "0",
        )
        assert "subClassOf10" in out
        assert "Average" in out

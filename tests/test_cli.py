"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_models_defaults(self):
        args = build_parser().parse_args(["models"])
        assert args.N == 300_000
        assert args.u == 970.0

    def test_trace_kind_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace", "--kind", "bittorrent"])

    def test_run_observability_flags_default_off(self):
        args = build_parser().parse_args(["run"])
        assert args.trace_out is None
        assert args.metrics_out is None

    def test_audit_is_not_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["audit"])

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.scenario == "all"
        assert args.seed == 0
        assert args.population is None
        assert args.out is None


class TestCommands:
    def test_models_runs(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "seaweed" in out
        assert "crossover" in out

    def test_models_with_overrides(self, capsys):
        assert main(["models", "--N", "1000", "--u", "10"]) == 0
        assert "maintenance bandwidth" in capsys.readouterr().out

    def test_trace_runs(self, capsys):
        assert main(["trace", "--population", "120", "--days", "3"]) == 0
        out = capsys.readouterr().out
        assert "mean availability" in out

    def test_predict_runs(self, capsys):
        assert (
            main(
                [
                    "predict",
                    "--population", "300",
                    "--profiles", "10",
                    "--inject-day", "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "predicted" in out
        assert "total-count error" in out

    def test_run_with_trace_and_metrics_out(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        metrics_path = tmp_path / "metrics.json"
        assert (
            main(
                [
                    "run",
                    "--population", "40",
                    "--hours", "0.75",
                    "--trace-out", str(trace_path),
                    "--metrics-out", str(metrics_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Overhead breakdown" in out
        assert "Hottest simulator handlers" in out

        from repro.obs import read_jsonl

        records = read_jsonl(str(trace_path))
        assert records
        kinds = {record["event"] for record in records}
        assert "query_issued" in kinds
        assert "dissemination_hop" in kinds

        snapshot = json.loads(metrics_path.read_text())
        assert snapshot["sim"]["events_processed"] > 0
        assert snapshot["profile"]["handlers"]
        assert any(
            value > 0
            for name, value in snapshot["metrics"]["counters"].items()
            if name.startswith("transport.")
        )

    def test_run_shorter_than_the_injection_time_is_rejected(self, capsys):
        # The query goes in at 1800 s; a 900 s run cannot reach it.
        assert main(["run", "--population", "30", "--hours", "0.25"]) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: ")
        assert "at or past the end" in err
        assert "\n" not in err

    def test_chaos_single_scenario_with_report(self, tmp_path, capsys):
        report_path = tmp_path / "chaos.json"
        assert (
            main(
                [
                    "chaos",
                    "--scenario", "slow-node",
                    "--population", "12",
                    "--seed", "3",
                    "--out", str(report_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Chaos campaign" in out
        assert "root/truth rows" in out
        assert "all conformance checks held" in out

        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        assert report["total_violations"] == 0
        section = report["scenarios"]["slow-node"]
        assert section["violation_count"] == 0
        assert section["faults_injected"] >= 1
        assert "drops_by_reason" in section["transport"]
        queries = section["audit"]["queries"].values()
        assert queries
        for query in queries:
            assert query["publishers"] >= 1
            assert query["row_regressions"] >= 0

    def test_chaos_unknown_scenario_rejected(self, capsys):
        assert main(["chaos", "--scenario", "meteor"]) == 2
        assert "unknown scenario" in capsys.readouterr().out

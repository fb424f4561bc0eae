"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import main
from repro.workloads.deployment import DeploymentConfig


class TestDemo:
    def test_demo_prints_result_page(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "Price check" in out
        assert "You" in out

    def test_demo_currency_flag(self, capsys):
        assert main(["demo", "--currency", "USD"]) == 0
        assert "USD" in capsys.readouterr().out


class TestReproduce:
    def test_single_experiment(self, capsys):
        assert main(["reproduce", "table1", "--scale", "test"]) == 0
        out = capsys.readouterr().out
        assert "System Performance Analysis" in out

    def test_fig5(self, capsys):
        assert main(["reproduce", "fig5", "--scale", "test"]) == 0
        assert "adoption" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "fig99"])


class TestOtherCommands:
    def test_perf(self, capsys):
        assert main(["perf"]) == 0
        assert "Max Daily Requests" in capsys.readouterr().out

    def test_geoblock(self, capsys):
        assert main(["geoblock"]) == 0
        out = capsys.readouterr().out
        assert "BLOCKED" in out
        assert "verdict: geoblocked" in out

    def test_panels(self, capsys):
        assert main(["panels"]) == 0
        out = capsys.readouterr().out
        assert "Available Sheriff servers" in out
        assert "Online peer proxies" in out

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag", ["--servers", "--stores", "--users"])
    def test_mesh_zero_count_is_a_usage_error(self, flag, capsys):
        """argparse refuses the count, so neither MeshLauncher nor
        WorkerSpec.validate() gets to raise through the CLI."""
        with pytest.raises(SystemExit) as exit_info:
            main(["mesh", flag, "0"])
        assert exit_info.value.code == 2
        assert f"argument {flag}: must be >= 1" in capsys.readouterr().err


class TestSupervise:
    def test_supervised_chaos_run_heals_and_exits_zero(self, capsys, tmp_path):
        audit = tmp_path / "audit.jsonl"
        assert main([
            "supervise", "--chaos", "chaos_monkey", "--seed", "3",
            "--requests", "12", "--users", "8",
            "--audit-out", str(audit),
        ]) == 0
        out = capsys.readouterr().out
        assert "Supervised components and healing state." in out
        assert "OK: deployment healed, no jobs lost" in out

    def test_clean_profile_runs_silent(self, capsys):
        assert main([
            "supervise", "--chaos", "none",
            "--requests", "8", "--users", "6",
        ]) == 0
        assert "OK: deployment healed" in capsys.readouterr().out

    def test_chaos_supervised_flag_prints_ops_panel(self, capsys):
        assert main([
            "chaos", "--profile", "lossy", "--requests", "10",
            "--users", "8", "--supervised",
        ]) == 0
        out = capsys.readouterr().out
        assert "Supervised components and healing state." in out

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["supervise", "--chaos", "mayhem"])


class TestSuperviseConfigFile:
    """``--config FILE``: typed flag > file > verb default."""

    @pytest.fixture
    def config_file(self, tmp_path):
        config = DeploymentConfig.test_scale()
        config.n_users = 12
        config.n_requests = 5
        config.chaos_profile = "lossy"
        config.chaos_seed = 9
        config.audit_path = str(tmp_path / "audit.jsonl")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        return path, config

    def test_file_alone_is_what_runs(self, config_file, capsys):
        path, config = config_file
        assert main(["supervise", "--config", str(path)]) == 0
        out = capsys.readouterr().out
        assert "chaos='lossy' seed=9 requests=5 users=12" in out
        # 5 requests + the 3 spotlight checks, not the verb's 60
        assert "attempted          8" in out
        assert f"audit trail persisted to {config.audit_path}" in out
        assert pathlib.Path(config.audit_path).read_text()

    def test_typed_flag_overrides_the_file(self, config_file, capsys):
        path, _ = config_file
        assert main(["supervise", "--config", str(path), "--seed", "4"]) == 0
        assert ("chaos='lossy' seed=4 requests=5 users=12"
                in capsys.readouterr().out)

    def test_invalid_file_names_the_key(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_users": 12, "quorum": 0}))
        assert main(["supervise", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: invalid config" in out and "quorum" in out
        path.write_text(json.dumps({"n_usres": 12}))
        assert main(["supervise", "--config", str(path)]) == 1
        assert "unknown deployment config key(s): n_usres" in capsys.readouterr().out
        # nested sections are range-checked by the same declaration
        path.write_text(json.dumps({"population": {"persona_boost": "big"}}))
        assert main(["supervise", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert "FAIL: invalid config" in out and "population: persona_boost" in out


class TestJourney:
    def test_list_marks_stolen_jobs(self, capsys):
        assert main(["journey", "--list"]) == 0
        out = capsys.readouterr().out
        assert "[stolen]" in out

    def test_default_renders_a_stolen_job_journey(self, capsys, tmp_path):
        out_file = tmp_path / "journey.json"
        assert main(["journey", "--out", str(out_file)]) == 0
        out = capsys.readouterr().out
        # the causal chain, the critical path, the flight log, the ticket
        for needle in ("assign", "admission", "queue_wait", "steal",
                       "dispatch", "price_check", "critical path",
                       "enqueue", "completed"):
            assert needle in out
        import json

        journey = json.loads(out_file.read_text())
        assert journey["stolen"] is True
        names = [s["name"] for s in journey["spans"]]
        assert "steal" in names and "persist" in names

    def test_unknown_job_rejected(self, capsys):
        assert main(["journey", "job-999"]) == 1
        assert "unknown job" in capsys.readouterr().out


class TestSLO:
    def test_clean_run_meets_objectives(self, capsys, tmp_path):
        out_file = tmp_path / "slo.json"
        assert main([
            "slo", "--require-met", "--out", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "check-latency" in out
        assert "VIOLATED" not in out
        import json

        report = json.loads(out_file.read_text())
        assert report["all_met"] is True
        assert report["alerts"] == []

    def test_latency_fault_trips_require_met(self, capsys):
        assert main(["slo", "--latency-fault", "--require-met"]) == 1
        out = capsys.readouterr().out
        assert "VIOLATED" in out
        assert "slo/check-latency" in out


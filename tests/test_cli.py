"""Tests for the command-line interface."""

import argparse
import json
import pathlib

import pytest

from repro.cli import VERBS, _build_parser, _deployment_config, main
from repro.experiments import EXPERIMENTS
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
        """Table 1 is a ``reproduce`` entry; the ``perf`` verb that
        printed it too is gone (pinned in test_deprecations)."""
        assert main(["reproduce", "table1", "--scale", "test"]) == 0
        assert "Max Daily Requests" in capsys.readouterr().out

    def test_geoblock(self, capsys):
        assert main(["geoblock"]) == 0
        out = capsys.readouterr().out
        assert "BLOCKED" in out
        assert "verdict: geoblocked" in out

    def test_panels(self, capsys):
        """The Fig. 7 / Fig. 16 panels are part of ``panel``."""
        assert main(["panel", "--requests", "4", "--users", "4"]) == 0
        out = capsys.readouterr().out
        assert "Available Sheriff servers" in out
        assert "Online peer proxies" in out
        assert "Fault injection and recovery counters." in out

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    @pytest.mark.parametrize("flag, value, bound", [
        pytest.param("--servers", "0", ">= 1", id="--servers"),
        pytest.param("--stores", "0", ">= 1", id="--stores"),
        pytest.param("--users", "0", ">= 1", id="--users"),
        pytest.param("--checks", "-3", ">= 0", id="--checks=-3"),
        pytest.param("--concurrency", "-1", ">= 1", id="--concurrency=-1"),
        pytest.param("--ipcs", "-5", ">= 0", id="--ipcs=-5"),
        pytest.param("--ipcs", "99", "<= 30", id="--ipcs=99"),
    ])
    def test_mesh_zero_count_is_a_usage_error(self, flag, value, bound,
                                              monkeypatch, capsys):
        """argparse refuses the count before a worker process spawns, so
        neither MeshLauncher, WorkerSpec.validate() nor the thread pool
        gets to raise through the CLI, and no count is bent to fit."""
        from repro.mesh import MeshLauncher

        monkeypatch.setattr(MeshLauncher, "start", None)  # must not run
        with pytest.raises(SystemExit) as exit_info:
            main(["mesh", flag, value])
        assert exit_info.value.code == 2
        assert (f"argument {flag}: must be {bound}, got {value}"
                in capsys.readouterr().err)


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

    def test_prints_the_pii_audit_of_the_stored_data(self, capsys):
        """Sect. 2.3's periodic PII audit runs over what the deployment
        stored; its verdict is one line after the audit trail."""
        assert main([
            "supervise", "--chaos", "lossy", "--seed", "3",
            "--requests", "12", "--users", "8",
        ]) == 0
        lines = capsys.readouterr().out.splitlines()
        audit = [line for line in lines if line.startswith("PII audit:")]
        assert audit == ["PII audit: clean — no personally identifiable data stored"]
        assert lines.index(audit[0]) > lines.index("audit trail:")

    def test_clean_profile_runs_silent(self, capsys):
        assert main([
            "supervise", "--chaos", "none",
            "--requests", "8", "--users", "6",
        ]) == 0
        assert "OK: deployment healed" in capsys.readouterr().out

    def test_chaos_supervised_flag_prints_ops_panel(self, capsys):
        """What ``chaos --supervised`` printed, ``supervise`` prints."""
        assert main([
            "supervise", "--chaos", "lossy", "--requests", "10",
            "--users", "8",
        ]) == 0
        out = capsys.readouterr().out
        assert "chaos='lossy'" in out
        assert "Supervised components and healing state." in out

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            main(["supervise", "--chaos", "mayhem"])


#: every verb that runs a LiveDeployment, with its chaos-profile flag
DEPLOYMENT_VERBS = [("chaos", "--profile"), ("supervise", "--chaos"),
                    ("metrics", "--chaos"), ("trace", "--chaos"),
                    ("panel", "--chaos")]


class TestDeploymentFlags:
    """A flag that sets a DeploymentConfig field is checked against the
    field's declaration while the command line is parsed: the same usage
    error (exit 2, naming the flag) on every verb, before anything runs."""

    @pytest.mark.parametrize("verb, chaos_flag", DEPLOYMENT_VERBS)
    def test_bad_choice_is_a_usage_error(self, verb, chaos_flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, chaos_flag, "mayhem"])
        assert exit_info.value.code == 2
        assert (f"argument {chaos_flag}: must be one of"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("verb", [verb for verb, _ in DEPLOYMENT_VERBS])
    def test_out_of_range_count_is_a_usage_error(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--requests", "-4"])
        assert exit_info.value.code == 2
        assert ("argument --requests: must be >= 0, got -4"
                in capsys.readouterr().err)

    def test_none_is_the_clean_network(self):
        args = _build_parser().parse_args(["chaos", "--profile", "none"])
        config = _deployment_config(args, chaos_profile="lossy")
        assert config.chaos_profile is None

    def test_untyped_flags_leave_the_verb_default(self):
        args = _build_parser().parse_args(["chaos", "--seed", "5"])
        config = _deployment_config(args, n_users=30, chaos_profile="lossy")
        assert (config.chaos_seed, config.n_users, config.chaos_profile) == (
            5, 30, "lossy")


class TestVerbTable:
    """``VERBS`` is the one list of verbs: the parser reads it."""

    def test_parser_lists_the_table(self):
        (sub,) = [action for action in _build_parser()._actions
                  if isinstance(action, argparse._SubParsersAction)]
        assert list(sub.choices) == [verb.name for verb in VERBS]
        assert len(VERBS) == 12

    @pytest.mark.parametrize("verb", [verb.name for verb in VERBS])
    def test_help(self, verb, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([verb, "--help"])
        assert exit_info.value.code == 0
        assert f"usage: repro {verb}" in capsys.readouterr().out

    def test_reproduce_takes_the_experiment_table(self):
        parser = _build_parser()
        for name in (*EXPERIMENTS, "all"):
            assert parser.parse_args(["reproduce", name]).experiment == name


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
        # the causal chain, the critical path, the ticket
        for needle in ("assign", "admission", "queue_wait", "steal",
                       "dispatch", "price_check", "critical path",
                       "completed"):
            assert needle in out
        # the trace is the one record: no second log of the same stages
        assert "flight recorder" not in out
        import json

        journey = json.loads(out_file.read_text())
        assert set(journey) == {
            "job_id", "stolen", "spans", "ticket",
        }
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


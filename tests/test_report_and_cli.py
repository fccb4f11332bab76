"""Tests for the report generator and the experiments CLI."""

import pytest

pytest.importorskip("numpy", reason="the experiment runner needs numpy-seeded datasets")

from repro.experiments.__main__ import main as cli_main
from repro.experiments.options import OPTION_SPECS, option_names, run_kwargs
from repro.experiments.report import DEFAULT_ORDER, build_report, write_report
from repro.experiments.runner import EXPERIMENTS


class TestReport:
    def test_default_order_covers_all_experiments(self):
        assert set(DEFAULT_ORDER) == set(EXPERIMENTS)

    def test_build_report_sections(self):
        text = build_report(["table1", "figure1"])
        assert "# Reproduction report" in text
        assert "## Table 1" in text
        assert "## Figure 1" in text
        assert "```text" in text
        assert "python -m repro.experiments table1" in text

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError, match="unknown experiments"):
            build_report(["table1", "nope"])

    def test_write_report(self, tmp_path):
        path = write_report(
            tmp_path / "report.md",
            ["table3"],
            scale=0.1,
            datasets=["sms-copenhagen"],
        )
        content = path.read_text()
        assert "Table 3" in content
        assert "sms-copenhagen" in content


class TestCLI:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        for eid in EXPERIMENTS:
            assert eid in out

    def test_run_conceptual_experiment(self, capsys):
        assert cli_main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "[done in" in out

    def test_run_with_scale_and_datasets(self, capsys):
        code = cli_main(
            ["table2", "--scale", "0.05", "--datasets", "sms-copenhagen"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "sms-copenhagen" in out

    def test_stream_experiment_with_window_flag(self, capsys):
        code = cli_main(
            ["stream", "--scale", "0.1", "--window", "9000",
             "--datasets", "sms-copenhagen"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "W=9000s" in out
        assert "events/s" in out
        assert "parity vs batch recount: ok" in out

    @pytest.mark.parametrize("views", ({"window": 6000.0}, {"windows": "3000,12000"}))
    def test_stream_replays_a_partitioned_directory(self, tmp_path, views):
        import warnings

        from repro.datasets.registry import get_dataset
        from repro.experiments import run_experiment

        get_dataset("sms-copenhagen", scale=0.1).save(tmp_path, partition_events=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = run_experiment("stream", datasets=[str(tmp_path)], **views)
        assert "parity vs batch recount: ok" in result.text
        assert "MISMATCH" not in result.text
        in_memory = run_experiment("stream", datasets=["sms-copenhagen"], scale=0.1, **views)
        for data in (result.data, in_memory.data):
            for timing in ("seconds", "events_per_sec"):
                del data["sms-copenhagen"][timing]
        assert result.data == in_memory.data

    def test_window_flag_is_inert_elsewhere(self, capsys):
        """--window forwards into every experiment's **_ignored sink."""
        code = cli_main(
            ["table2", "--scale", "0.05", "--window", "9000",
             "--datasets", "sms-copenhagen"]
        )
        assert code == 0
        assert "Table 2" in capsys.readouterr().out

    def test_unknown_experiment_exits_2(self, capsys):
        assert cli_main(["table99"]) == 2
        err = capsys.readouterr().err
        assert "known experiments" in err

    def test_jobs_flag_runs_experiment_sharded(self, capsys):
        code = cli_main(
            ["table3", "--jobs", "2", "--scale", "0.05",
             "--datasets", "sms-copenhagen"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 3" in out

    def test_jobs_flag_matches_serial_output(self, capsys):
        args = ["table2", "--scale", "0.05", "--datasets", "sms-copenhagen"]
        assert cli_main(args) == 0
        serial_out = capsys.readouterr().out
        assert cli_main(args + ["--jobs", "2"]) == 0
        parallel_out = capsys.readouterr().out
        # identical up to the trailing wall-clock line
        def strip(text):
            return [
                line for line in text.splitlines()
                if not line.startswith("[done in")
            ]

        assert strip(parallel_out) == strip(serial_out)

    def test_help_documents_jobs(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        out = capsys.readouterr().out
        assert "--jobs" in out
        assert "REPRO_JOBS" in out

    def test_help_documents_every_shared_option(self, capsys):
        """--help lists exactly the shared option spec (one registration path)."""
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        out = capsys.readouterr().out
        for flag, _spec in OPTION_SPECS:
            assert flag in out
        assert "--stats" in out and "--stats-json" in out

    def test_stream_stats_flag_prints_per_layer_table(self, capsys):
        code = cli_main(
            ["stream", "--scale", "0.1", "--window", "6000",
             "--datasets", "sms-copenhagen", "--stats"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "observability stats" in out
        assert "[online]" in out
        assert "online.push.seconds" in out
        assert "online.prefix_store.entries" in out
        assert "online.expiry_heap.depth" in out
        assert "[stats 100%] push p50=" in out  # the rolling sections

    def test_stats_json_writes_snapshot(self, tmp_path, capsys):
        import json

        path = tmp_path / "stats.json"
        code = cli_main(
            ["stream", "--scale", "0.1", "--window", "6000",
             "--datasets", "sms-copenhagen", "--stats-json", str(path)]
        )
        assert code == 0
        snap = json.loads(path.read_text())
        assert snap["histograms"]["online.push.seconds"]["count"] > 0

    def test_stats_flag_restores_null_recorder(self):
        import repro.obs as obs

        cli_main(
            ["stream", "--scale", "0.1", "--window", "6000",
             "--datasets", "sms-copenhagen", "--stats"]
        )
        assert obs.ACTIVE is None


class TestSharedOptions:
    def test_option_names_cover_run_and_harness_kwargs(self):
        names = option_names()
        assert set(names) >= {"scale", "datasets", "window", "jobs",
                              "stats", "stats_json"}

    def test_run_kwargs_drops_unset_options(self):
        assert run_kwargs({"window": 9000.0, "jobs": None}) == {"window": 9000.0}

    def test_report_rejects_unknown_option(self):
        with pytest.raises(TypeError, match="unknown report options"):
            build_report(["table1"], nope=True)

    def test_report_accepts_stats_and_appends_section(self, tmp_path):
        text = build_report(
            ["stream"],
            scale=0.1,
            datasets=["sms-copenhagen"],
            window=6000.0,
            stats=True,
            stats_json=str(tmp_path / "report_stats.json"),
        )
        assert "## Observability" in text
        assert "online.push.seconds" in text
        assert (tmp_path / "report_stats.json").exists()

    def test_report_forwards_jobs(self):
        text = build_report(
            ["table2"], scale=0.05, datasets=["sms-copenhagen"], jobs=2
        )
        assert "Table 2" in text

"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def run(capsys):
    def _run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    return _run


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "7"])

    def test_fig_number_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig", "1"])


class TestTables:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_tables_render(self, run, n):
        code, out = run("table", str(n))
        assert code == 0
        assert "Table" in out

    def test_table3_contains_tuning_row(self, run):
        _, out = run("table", "3")
        assert "GST MRR Tuning" in out
        assert "83.3" in out


class TestFigs:
    def test_fig3_curve(self, run):
        code, out = run("fig", "3")
        assert code == 0
        assert "430" in out or "activation" in out.lower()

    def test_fig5_area(self, run):
        code, out = run("fig", "5")
        assert code == 0
        assert "TIA" in out

    def test_fig4_energy_series(self, run):
        code, out = run("fig", "4")
        assert code == 0
        for name in ("trident", "deap-cnn", "crosslight", "pixel"):
            assert name in out


class TestOtherCommands:
    def test_models(self, run):
        code, out = run("models")
        assert code == 0
        for name in ("alexnet", "vgg16", "googlenet", "resnet50", "mobilenet_v2"):
            assert name in out

    def test_compare(self, run):
        code, out = run("compare", "mobilenet_v2", "--budget", "30", "--batch", "32")
        assert code == 0
        assert "trident" in out
        assert "agx-xavier" in out

    def test_train_plan(self, run):
        code, out = run("train-plan", "googlenet", "--samples", "1000")
        assert code == 0
        assert "outer product" in out
        assert "trident" in out

    def test_train_plan_prices_each_pass_once(self, run, monkeypatch):
        """Four training passes, four pricings: the time table reuses the
        per-pass costs the command prints."""
        from repro.dataflow.cost_model import PhotonicCostModel

        calls = []
        layer_costs = PhotonicCostModel.layer_costs

        def counting(self, *args, **kwargs):
            calls.append(args)
            return layer_costs(self, *args, **kwargs)

        monkeypatch.setattr(PhotonicCostModel, "layer_costs", counting)
        code, out = run("train-plan", "resnet50")
        assert code == 0
        assert "time for 50000 samples" in out
        assert len(calls) == 4

    @pytest.mark.parametrize(
        "argv, samples, batch",
        [
            (("resnet50",), 50_000, 32),
            (("googlenet", "--samples", "1"), 1, 32),
            (("vgg16", "--samples", "1000", "--batch", "8"), 1000, 8),
        ],
    )
    def test_train_plan_prints_training_time_s(self, run, monkeypatch, argv, samples, batch):
        """The command derives Trident's time from the costs it prints; the
        value must stay exactly ``TrainingCostModel.training_time_s``."""
        import repro.cli
        from repro.nn import build_model
        from repro.training.latency import TrainingCostModel

        printed = {}
        format_table = repro.cli.format_table

        def recording(headers, rows, title=""):
            printed.update((row[0], row[1]) for row in rows)
            return format_table(headers, rows, title=title)

        monkeypatch.setattr(repro.cli, "format_table", recording)
        code, _ = run("train-plan", *argv)
        assert code == 0
        model = TrainingCostModel(batch=batch)
        assert printed["trident"] == model.training_time_s(build_model(argv[0]), samples)

    def test_link_budget(self, run):
        code, out = run("link-budget", "--rows", "8", "--cols", "8")
        assert code == 0
        assert "SNR" in out

    def test_endurance(self, run):
        code, out = run("endurance", "googlenet")
        assert code == 0
        assert "activation" in out

    def test_profile_parity_gate(self, run):
        """The profile command exercises batch invariance (one batch vs
        single-sample batches) end to end and exits 0 only when it holds."""
        code, out = run("profile", "--dims", "20", "12", "3", "--batch", "8")
        assert code == 0
        assert "outputs match: True" in out
        assert "event counters match: True" in out
        assert "symbols" in out

    def test_profile_tiled_network(self, run):
        code, out = run("profile", "--dims", "40", "24", "4", "--batch", "4")
        assert code == 0
        assert "PARITY VIOLATION" not in out


class TestReport:
    def test_report_summarizes_everything(self, run):
        code, out = run("report")
        assert code == 0
        assert "34 comparisons" in out
        assert "DEVIATION" in out  # documented rows flagged


class TestSummaryModule:
    def test_collect_and_gate(self):
        from repro.eval.summary import ReproductionSummary

        summary = ReproductionSummary.collect()
        assert len(summary.results) == 34
        # The documented deviations are excluded from the gate.
        assert len(summary.deviations()) == 2
        assert summary.max_gated_error() < 0.16
        # And the gate would fail if they were included.
        worst_all = max(r.within for r in summary.results)
        assert worst_all > summary.max_gated_error()


class TestLayers:
    def test_layers_command(self, run):
        code, out = run("layers", "alexnet", "--top", "4")
        assert code == 0
        assert "TOTAL" in out
        assert "alexnet on trident" in out

    def test_layers_baseline(self, run):
        code, out = run("layers", "googlenet", "--arch", "deap-cnn", "--top", "3")
        assert code == 0
        assert "deap-cnn" in out


class TestAllCommand:
    def test_all_regenerates_everything(self, run):
        code, out = run("all")
        assert code == 0
        for marker in ("Table I", "Table III", "Table IV", "Table V",
                       "Fig 3", "Fig 4", "Fig 5", "Fig 6"):
            assert marker in out, marker


class TestExport:
    def test_export_writes_all_csvs(self, run, tmp_path):
        code, out = run("export", "--dir", str(tmp_path))
        assert code == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert names == {
            "table1_tuning.csv", "table2_mapping.csv", "table3_power.csv",
            "table4_tops.csv", "table5_training.csv",
            "fig3_activation.csv", "fig4_energy_j.csv", "fig5_area.csv",
            "fig6_inferences_per_second.csv", "paper_vs_measured.csv",
        }

    def test_csv_contents_parse(self, tmp_path):
        import csv

        from repro.eval.export import export_all

        export_all(tmp_path)
        with (tmp_path / "fig6_inferences_per_second.csv").open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0][0] == "model"
        assert len(rows) == 6  # header + 5 models
        # Every numeric field parses.
        for row in rows[1:]:
            for cell in row[1:]:
                float(cell)

    def test_export_rejects_file_target(self, tmp_path):
        from repro.errors import ConfigError
        from repro.eval.export import export_all

        target = tmp_path / "occupied"
        target.write_text("not a dir")
        with pytest.raises(ConfigError):
            export_all(target)


class TestServeCommand:
    def test_smoke_gate_passes(self, run, tmp_path, capsys):
        code, out = run(
            "serve", "--smoke", "--out", str(tmp_path / "serve.trace.json")
        )
        assert code == 0
        assert "serving summary" in out
        assert "FAIL" not in out
        for check in (
            "request_conservation",
            "breaker_tripped",
            "breaker_restored",
            "bit_identical_replay",
            "chrome_trace_schema_valid",
            "serving_metrics_exposed",
        ):
            assert f"OK   {check}" in out, check
        assert "serve gate: OK" in out
        assert (tmp_path / "serve.trace.json").exists()
        assert (tmp_path / "serve.metrics.prom").exists()
        assert (tmp_path / "serve.events.jsonl").exists()

    def test_smoke_event_log_is_sequenced(self, run, tmp_path):
        """Decision numbers travel as a field; the log's own ``seq`` is
        unique and strictly increasing."""
        import json

        run("serve", "--smoke", "--out", str(tmp_path / "serve.trace.json"))
        lines = (tmp_path / "serve.events.jsonl").read_text().splitlines()
        events = [json.loads(line) for line in lines]
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(1, len(events) + 1))
        decisions = [e["decision"] for e in events if e["kind"] == "serve_admit"]
        assert decisions and decisions == sorted(set(decisions))

    def test_no_active_session_leaks_after_serve(self, run, tmp_path):
        from repro import telemetry

        run("serve", "--smoke", "--out", str(tmp_path / "t.trace.json"))
        assert not telemetry.enabled()

    def test_metrics_and_events_written_without_out(self, run, tmp_path):
        metrics, events = tmp_path / "m.prom", tmp_path / "e.jsonl"
        code, out = run(
            "serve", "--requests", "50",
            "--metrics-out", str(metrics), "--events-out", str(events),
        )
        assert code == 0
        assert f"metrics written to {metrics}" in out
        assert "repro_requests_admitted_total" in metrics.read_text()
        assert events.read_text().splitlines()
        assert "trace written" not in out
        assert sorted(tmp_path.iterdir()) == [events, metrics]


class TestTemporaryDirectories:
    """A command that makes its own temp directory removes it before it
    returns, and says so where it names a path inside it."""

    @pytest.mark.parametrize(
        "argv",
        [("train", "--steps", "3"), ("trace", "--smoke"), ("serve", "--smoke")],
        ids=lambda argv: argv[0],
    )
    def test_nothing_left_behind(self, run, tmp_path, monkeypatch, argv):
        import tempfile

        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        code, out = run(*argv)
        assert code == 0
        assert list(tmp_path.iterdir()) == []
        named = [line for line in out.splitlines() if str(tmp_path) in line]
        assert named and all("temporary, now removed" in line for line in named)

    def test_a_kept_artifact_is_not_called_removed(self, run, tmp_path, monkeypatch):
        import tempfile

        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        metrics = tmp_path / "m.prom"
        code, out = run("serve", "--smoke", "--metrics-out", str(metrics))
        assert code == 0
        assert f"metrics written to {metrics} (" in out
        assert "samples)" in out
        assert "spans; temporary, now removed)" in out
        assert metrics.exists() and list(scratch.iterdir()) == []


class TestErrorHygiene:
    """Domain errors exit 2 with one structured line, never a traceback."""

    def _run(self, capsys, *argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_bad_serving_config_exits_2_with_one_line(self, capsys):
        code, out, err = self._run(capsys, "serve", "--dims", "5")
        assert code == 2
        assert err.startswith("repro: error: ServingError:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err + out

    @pytest.mark.parametrize("budget", ["0.7", "0.9", "nan", "inf"])
    def test_bad_compare_budget_exits_2_with_one_line(self, capsys, budget):
        """NaN, infinity, and budgets that power a Trident PE but not a
        CrossLight (0.842 W) or PIXEL (1.002 W) one."""
        code, out, err = self._run(capsys, "compare", "resnet50", "--budget", budget)
        assert code == 2
        assert err.startswith("repro: error: ConfigError:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err + out

    @pytest.mark.parametrize(
        "argv",
        [
            ("link-budget", "--power-mw", "nan"),
            ("link-budget", "--power-mw", "inf"),
            ("serve", "--slo-us", "nan"),
            ("serve", "--slo-us", "inf"),
        ],
        ids=" ".join,
    )
    def test_non_finite_value_exits_2_with_one_line(self, capsys, argv):
        code, out, err = self._run(capsys, *argv)
        assert code == 2
        assert err.startswith("repro: error: ConfigError:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err + out

    def test_fault_error_exits_2(self, capsys, monkeypatch):
        import argparse

        from repro import cli
        from repro.errors import FaultError

        def boom(args):
            raise FaultError("bank 3 beyond repair")

        parser = argparse.ArgumentParser()
        parser.add_argument("-v", "--verbose", action="count", default=0)
        parser.add_argument("--debug", action="store_true")
        parser.set_defaults(func=boom, command="boom")
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        code, _, err = self._run(capsys)
        assert code == 2
        assert err == "repro: error: FaultError: bank 3 beyond repair\n"

    def test_repair_error_exits_2(self, capsys, monkeypatch):
        import argparse

        from repro import cli
        from repro.errors import RepairError

        parser = argparse.ArgumentParser()
        parser.add_argument("-v", "--verbose", action="count", default=0)
        parser.add_argument("--debug", action="store_true")
        parser.set_defaults(
            func=lambda args: (_ for _ in ()).throw(
                RepairError("spare pool exhausted")
            ),
            command="boom",
        )
        monkeypatch.setattr(cli, "build_parser", lambda: parser)
        code, _, err = self._run(capsys)
        assert code == 2
        assert "RepairError: spare pool exhausted" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("serve", "--seed", "-1"),
            ("shard", "--seed", "-1"),
            ("integrity", "--seed", "-1"),
            ("fleet", "--seed", "-1"),
            ("train", "--seed", "-1"),
            ("profile", "--seed", "-1"),
            ("trace", "--smoke", "--seed", "-1"),
            ("faults", "--smoke", "--seed", "-1"),
            ("soak", "--seed-base", "-1", "--seeds", "1", "--scenarios", "serve"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_negative_seed_is_a_usage_error(self, capsys, argv):
        flag = next(arg for arg in argv if arg.startswith("--seed"))
        with pytest.raises(SystemExit) as exit_info:
            main(list(argv))
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert f"error: argument {flag}: must be non-negative, got -1" in captured.err
        assert "Traceback" not in captured.err + captured.out

    @pytest.mark.parametrize(
        "flag, value",
        [("--seed", "5"), ("--fractions", "0.5"), ("--policies", "none"),
         ("--trials", "9")],
    )
    def test_faults_smoke_rejects_sweep_flags(self, capsys, flag, value):
        # The smoke sweep is fixed (tests/golden/gates.json pins it): a
        # sweep flag beside --smoke would be silently ignored.
        code, out, err = self._run(capsys, "faults", "--smoke", flag, value)
        assert code == 2
        assert out == ""
        assert err == (
            f"repro faults: error: {flag} cannot be used with --smoke "
            "(its sweep is fixed)\n"
        )

    def test_train_plan_rejects_zero_samples(self, capsys):
        code, out, err = self._run(capsys, "train-plan", "googlenet", "--samples", "0")
        assert code == 2
        assert out == ""
        assert err == "repro: error: ConfigError: n_samples must be positive, got 0\n"

    def test_resume_without_a_directory_errors_on_stderr(self, capsys):
        code, out, err = self._run(capsys, "resume")
        assert code == 2
        assert out == ""
        assert err == "repro resume: --checkpoint-dir is required (or use --smoke)\n"

    def test_corrupt_checkpoint_reports_invalid_not_traceback(
        self, capsys, tmp_path
    ):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json at all")
        code, out, err = self._run(capsys, "checkpoint", str(path))
        assert code == 1
        assert "Traceback" not in err + out
        assert "False" in out  # valid  False

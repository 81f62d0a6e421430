"""The CLI gates: a scenario run plus a gate that audits its record.

Each gate passes at its defaults (or on a small run), and each fails on a
tampered run, naming the check that caught it.  The serving gates fold
in the shared :mod:`repro.chaos.audit`; the trace, profile and train
gates live in :mod:`repro.scenarios`, the resume gate in
:mod:`repro.faults.campaign` and the soak gate in
:mod:`repro.chaos.soak`.  (The fleet gate takes seconds, so it runs as a
CI step; its audit is covered in ``tests/test_chaos.py``.)
"""

import dataclasses

import numpy as np
import pytest

from repro.chaos import SoakConfig, run_soak, soak_gate
from repro.faults import resume_gate, run_resume_check
from repro.integrity import integrity_gate
from repro.integrity import workload as integrity_workload
from repro.scenarios import (
    profile_gate,
    run_profile,
    run_trace,
    run_train,
    trace_gate,
    train_gate,
)
from repro.serving import run_serve_workload, serve_gate, shard_gate
from repro.serving import shard_workload


def _drop_first_complete(run):
    """The run with one ``complete`` record missing from its log."""
    decisions = list(run.report.decisions)
    decisions.remove(next(d for d in decisions if d["kind"] == "complete"))
    report = dataclasses.replace(run.report, decisions=decisions)
    return dataclasses.replace(run, report=report)


def _shift_first_output(run):
    """The run with its first completed output changed."""
    first, *rest = run.report.completed
    changed = dataclasses.replace(first, output=np.asarray(first.output) + 1.0)
    report = dataclasses.replace(run.report, completed=[changed, *rest])
    return dataclasses.replace(run, report=report)


def _failed_names(result):
    return [failure.split(":")[0] for failure in result.failed()]


@pytest.fixture(scope="module")
def serve_runs():
    return run_serve_workload(), run_serve_workload()


class TestServeGate:
    def test_passes_at_defaults(self, serve_runs):
        result = serve_gate(*serve_runs)
        assert result.ok, result.failed()

    def test_dropped_complete_record_fails_atomic_batches(self, serve_runs):
        run, replay = serve_runs
        result = serve_gate(_drop_first_complete(run), replay)
        assert "atomic_batches" in _failed_names(result)

    def test_changed_replay_output_fails_replay(self, serve_runs):
        run, replay = serve_runs
        result = serve_gate(run, _shift_first_output(replay))
        assert _failed_names(result) == ["bit_identical_replay"]


class TestShardGate:
    def test_passes_at_defaults(self):
        result = shard_gate()
        assert result.ok, result.failed()

    def test_dropped_complete_record_fails_atomic_batches(self, monkeypatch):
        real = shard_workload.run_shard_workload

        def tampered(*args, degrade=False, **kwargs):
            run = real(*args, degrade=degrade, **kwargs)
            return _drop_first_complete(run) if degrade else run

        monkeypatch.setattr(shard_workload, "run_shard_workload", tampered)
        result = shard_gate()
        assert "atomic_batches" in _failed_names(result)

    def test_changed_output_fails_reference_oracle(self, monkeypatch):
        real = shard_workload.run_shard_workload

        def tampered(*args, degrade=False, **kwargs):
            run = real(*args, degrade=degrade, **kwargs)
            return _shift_first_output(run) if degrade else run

        monkeypatch.setattr(shard_workload, "run_shard_workload", tampered)
        result = shard_gate()
        assert _failed_names(result) == ["reference_oracle_outputs"]


class TestIntegrityGate:
    def test_passes_at_defaults(self):
        result = integrity_gate()
        assert result.ok, result.failed()

    def test_changed_chaos_replay_output_fails_replay(self, monkeypatch):
        real = integrity_workload.run_integrity_workload
        chaos_runs = []

        def tampered(*args, chaos_plan=None, **kwargs):
            run = real(*args, chaos_plan=chaos_plan, **kwargs)
            if chaos_plan is None:
                return run
            chaos_runs.append(run)
            return _shift_first_output(run) if len(chaos_runs) == 2 else run

        monkeypatch.setattr(
            integrity_workload, "run_integrity_workload", tampered
        )
        result = integrity_gate()
        assert _failed_names(result) == ["bit_identical_replay"]

    def test_dropped_escalation_record_fails_its_audit(self, monkeypatch):
        real = integrity_workload.run_integrity_workload

        def tampered(*args, upset_worker=None, **kwargs):
            run = real(*args, upset_worker=upset_worker, **kwargs)
            return run if upset_worker is None else _drop_first_complete(run)

        monkeypatch.setattr(
            integrity_workload, "run_integrity_workload", tampered
        )
        result = integrity_gate()
        assert _failed_names(result) == ["escalation_run_audit"]
        assert "atomic_batches" in result.failed()[0]


class TestTraceGate:
    @pytest.fixture(scope="class")
    def trace_run(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("trace") / "run.trace.json"
        return run_trace(out, steps=6)

    def test_passes_at_smoke_size(self, trace_run):
        result = trace_gate(trace_run)
        assert result.ok, result.failed()

    def test_run_without_a_rollback_fails(self, trace_run):
        samples = {**trace_run.export.samples, "repro_rollbacks_total": 0.0}
        export = dataclasses.replace(trace_run.export, samples=samples)
        result = trace_gate(dataclasses.replace(trace_run, export=export))
        assert _failed_names(result) == ["rollback exercised"]


class TestProfileGate:
    @pytest.fixture(scope="class")
    def profile_run(self):
        return run_profile((8, 6, 3), batch=4)

    def test_passes(self, profile_run):
        result = profile_gate(profile_run)
        assert result.ok, result.failed()

    def test_changed_single_sample_output_fails(self, profile_run):
        single = dataclasses.replace(
            profile_run.single, outputs=profile_run.single.outputs + 1.0
        )
        result = profile_gate(dataclasses.replace(profile_run, single=single))
        assert _failed_names(result) == ["outputs match"]

    def test_changed_counters_fail(self, profile_run):
        counters = profile_run.single.counters.snapshot()
        counters.symbols += 1
        single = dataclasses.replace(profile_run.single, counters=counters)
        result = profile_gate(dataclasses.replace(profile_run, single=single))
        assert _failed_names(result) == ["event counters match"]


class TestTrainGate:
    def test_passes_and_aborted_run_fails(self, tmp_path):
        run = run_train(steps=4, checkpoint_dir=str(tmp_path))
        assert train_gate(run).ok
        aborted = dataclasses.replace(
            run.report, completed=False, aborted_reason="diverged"
        )
        result = train_gate(dataclasses.replace(run, report=aborted))
        assert result.failed() == ["training completed: diverged"]


class TestResumeGate:
    @pytest.fixture(scope="class")
    def check(self):
        return run_resume_check()

    def test_passes(self, check):
        result = resume_gate(check)
        assert result.ok, result.failed()

    def test_resumed_rows_that_differ_fail(self, check):
        first, *rest = check.resumed.rows
        changed = dataclasses.replace(first, accuracy=first.accuracy + 0.5)
        resumed = dataclasses.replace(check.resumed, rows=[changed, *rest])
        result = resume_gate(dataclasses.replace(check, resumed=resumed))
        assert _failed_names(result) == ["rows_identical"]


class TestSoakGate:
    @pytest.fixture(scope="class")
    def doc(self):
        doc = run_soak(SoakConfig(scenarios=("train",), seeds=(0,), repeats=1))
        doc["self_audit"] = {
            "ok": True,
            "sabotaged_cell_failed": True,
            "failed_checks": ["unhandled ChaosError: sabotage"],
        }
        return doc

    def test_passes(self, doc):
        result = soak_gate(doc)
        assert result.ok, result.failed()

    def test_flaky_cell_fails(self, doc):
        cell = {
            **doc["cells"][0],
            "ok": False,
            "digest": "",
            "failed_checks": ["nondeterministic: 2 distinct digests"],
        }
        flaky = {**doc, "cells": [cell], "flaky": True}
        result = soak_gate(flaky)
        assert _failed_names(result) == ["soak_cells_pass"]

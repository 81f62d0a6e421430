"""The serving ``--smoke`` gates: a scenario run plus the shared audit.

Each gate passes at its defaults, and each fails on a tampered run,
naming the :mod:`repro.chaos.audit` check that caught it.  (The fleet
gate takes seconds, so it runs as a CI step; its audit is covered in
``tests/test_chaos.py``.)
"""

import dataclasses

import numpy as np
import pytest

from repro.integrity import integrity_gate
from repro.integrity import workload as integrity_workload
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

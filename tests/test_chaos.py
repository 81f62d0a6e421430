"""Tests for the deterministic chaos subsystem and soak harness.

Covers the plan/session/injector/audit layers, the regression
satellites (corrupt-checkpoint skip telemetry; monotonic breaker probe
scheduling under forced trips; stuck bursts against one- and
multi-stage workers), the clock-jitter hook, and the soak cell/matrix
machinery including the sabotage self-audit.
"""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.chaos import (
    ChaosPlan,
    ChaosProfile,
    Injection,
    compile_plan,
    flip_file_bit,
    make_server_action,
    tear_jsonl_tail,
)
from repro.chaos.session import (
    ChaosSession,
    corrupt_output,
    crash_check,
    enabled,
    session as chaos_scope,
)
from repro.chaos.audit import audit_fleet_run, audit_serve_run, run_digest
from repro.chaos.soak import (
    SoakConfig,
    _fleet_run,
    _run_serve,
    _serve_run,
    render_matrix,
    run_cell,
    run_self_audit,
    run_soak,
    validate_matrix,
)
from repro.errors import ChaosError, CheckpointError, ReproError
from repro.runtime.checkpoint import CheckpointStore, save_checkpoint
from repro.runtime.clock import VirtualClock
from repro.serving.breaker import BreakerState, CircuitBreaker


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------
class TestChaosPlan:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ChaosError):
            Injection(1.0, "meteor_strike")

    def test_rejects_negative_time(self):
        with pytest.raises(ChaosError):
            Injection(-1e-9, "worker_crash")

    def test_crash_phase_validated(self):
        with pytest.raises(ChaosError):
            Injection(0.0, "worker_crash", params={"phase": "mid_flight"})

    def test_injections_sorted_by_time(self):
        plan = ChaosPlan(
            seed=1,
            injections=(
                Injection(2.0, "breaker_storm"),
                Injection(1.0, "stuck_burst", target=0),
            ),
        )
        assert [inj.t_s for inj in plan.injections] == [1.0, 2.0]

    def test_compile_is_deterministic(self):
        profile = ChaosProfile(window_s=1e-3, workers=(0, 1, 2))
        assert compile_plan(profile, 5) == compile_plan(profile, 5)
        assert compile_plan(profile, 5) != compile_plan(profile, 6)

    def test_compile_honours_profile_counts(self):
        profile = ChaosProfile(
            window_s=1.0, workers=(0,), crashes=3, corruptions=2,
            stuck_bursts=1, drift_bursts=1, breaker_storms=2,
        )
        counts = compile_plan(profile, 0).counts()
        assert counts["worker_crash"] == 3
        assert counts["corrupt_output"] == 2
        assert counts["stuck_burst"] == 1
        assert counts["drift_burst"] == 1
        assert counts["breaker_storm"] == 2

    def test_per_injection_rngs_are_independent(self):
        plan = ChaosPlan(
            seed=3,
            injections=(
                Injection(0.0, "stuck_burst", 0),
                Injection(1.0, "breaker_storm"),
            ),
        )
        a = plan.rng_for(0).random(4)
        b = plan.rng_for(0).random(4)
        c = plan.rng_for(1).random(4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Session hook points
# ---------------------------------------------------------------------------
class TestChaosSession:
    def make(self, *injections, seed=0, jitter=0.0):
        return ChaosSession(
            ChaosPlan(seed=seed, injections=injections, clock_jitter_s=jitter)
        )

    def test_crash_consumed_exactly_once(self):
        s = self.make(
            Injection(1.0, "worker_crash", 0, {"phase": "dispatch"})
        )
        assert s.crash_check(0, "dispatch", 0.5) is None  # not due yet
        assert s.crash_check(1, "dispatch", 2.0) is None  # wrong worker
        assert s.crash_check(0, "drain", 2.0) is None     # wrong phase
        reason = s.crash_check(0, "dispatch", 2.0)
        assert reason is not None
        assert s.crash_check(0, "dispatch", 3.0) is None  # consumed
        assert s.applied_counts() == {"worker_crash": 1}

    def test_corrupt_output_poisons_copy_not_original(self):
        s = self.make(Injection(0.0, "corrupt_output", 0))
        outputs = np.ones((4, 3))
        poisoned = s.corrupt_output(0, 1.0, outputs)
        assert np.all(np.isfinite(outputs))
        assert np.isnan(poisoned).sum() >= 1
        # Consumed: the next batch passes through untouched.
        again = s.corrupt_output(0, 2.0, outputs)
        assert np.array_equal(again, outputs)

    def test_corrupt_output_defaults_to_nan_poison(self):
        # The historical default: pre-mode plans must replay unchanged.
        s = self.make(Injection(0.0, "corrupt_output", 0))
        poisoned = s.corrupt_output(0, 1.0, np.ones((4, 3)))
        assert s.applied[0]["mode"] == "nan"
        assert np.isnan(poisoned).sum() >= 1

    @pytest.mark.parametrize("mode", ["bias", "scale", "sign_flip"])
    def test_finite_modes_corrupt_but_pass_finite_gate(self, mode):
        s = self.make(
            Injection(0.0, "silent_corrupt", 0, {"mode": mode})
        )
        outputs = np.random.default_rng(4).uniform(0.5, 1.0, (6, 5))
        poisoned = s.corrupt_output(0, 1.0, outputs)
        # Silent: finite everywhere (sails through the NaN gate), yet
        # wrong — only the checksum attestation can see it.
        assert np.all(np.isfinite(poisoned))
        assert not np.array_equal(poisoned, outputs)
        assert np.all(np.isfinite(outputs))  # original untouched
        assert s.applied[0]["mode"] == mode
        assert s.applied[0]["poisoned"] == max(1, outputs.size // 8)

    def test_fortran_ordered_outputs_still_get_poisoned(self):
        # forward_batch hands back transpose views; a layout-preserving
        # copy would make reshape(-1) a copy and the poison a no-op.
        s = self.make(Injection(0.0, "silent_corrupt", 0, {"mode": "bias"}))
        outputs = np.asfortranarray(
            np.random.default_rng(5).uniform(0.5, 1.0, (6, 5))
        )
        poisoned = s.corrupt_output(0, 1.0, outputs)
        assert not np.array_equal(poisoned, outputs)

    def test_silent_corrupt_mode_validation(self):
        with pytest.raises(ChaosError, match="finite"):
            Injection(0.0, "silent_corrupt", 0, {"mode": "nan"})
        with pytest.raises(ChaosError, match="mode"):
            Injection(0.0, "silent_corrupt", 0, {"mode": "garbage"})
        with pytest.raises(ChaosError, match="magnitude"):
            Injection(0.0, "silent_corrupt", 0, {"magnitude": 0.0})

    def test_double_apply_raises(self):
        s = self.make(Injection(0.0, "breaker_storm"))
        s.mark_applied(0, at_s=0.0)
        with pytest.raises(ChaosError):
            s.mark_applied(0, at_s=1.0)

    def test_jitter_deterministic_and_bounded(self):
        a = self.make(jitter=1e-8)
        b = self.make(jitter=1e-8)
        xs = [a.jitter(float(i)) for i in range(16)]
        ys = [b.jitter(float(i)) for i in range(16)]
        assert xs == ys
        assert all(0.0 <= x <= 1e-8 for x in xs)

    def test_disabled_hooks_are_no_ops(self):
        assert not enabled()
        outputs = np.ones((2, 2))
        assert crash_check(0, "dispatch", 1e9) is None
        assert corrupt_output(0, 1e9, outputs) is outputs

    def test_scope_enables_and_disables(self):
        plan = ChaosPlan(seed=0)
        with chaos_scope(plan) as s:
            assert enabled()
            assert s.plan is plan
        assert not enabled()


# ---------------------------------------------------------------------------
# File injectors
# ---------------------------------------------------------------------------
class TestFileInjectors:
    def test_bit_flip_defeats_checkpoint_hash(self, tmp_path):
        path = tmp_path / "ck.json"
        save_checkpoint(path, {"step": 3, "w": np.ones(4)}, kind="training")
        flip_file_bit(path, np.random.default_rng(0))
        from repro.runtime.checkpoint import load_checkpoint

        with pytest.raises((CheckpointError, ReproError)):
            load_checkpoint(path, expect_kind="training")

    def test_tear_leaves_partial_final_line(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        lines = [json.dumps({"row": i}) for i in range(3)]
        path.write_text("\n".join(lines) + "\n")
        torn = tear_jsonl_tail(path, np.random.default_rng(1))
        assert torn > 0
        kept = path.read_text().splitlines()
        assert kept[0] == lines[0] and kept[1] == lines[1]
        assert kept[2] != lines[2]  # torn mid-record

    def test_tear_refuses_single_line_file(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_text(json.dumps({"header": True}) + "\n")
        with pytest.raises(ChaosError):
            tear_jsonl_tail(path, np.random.default_rng(0))

    def test_sabotage_action_raises(self):
        session = ChaosSession(
            ChaosPlan(seed=0, injections=(Injection(0.0, "sabotage"),))
        )
        action = make_server_action(session, 0, session.plan.injections[0])

        class FakeServer:
            clock = VirtualClock()

        with pytest.raises(ChaosError):
            action(FakeServer())


# ---------------------------------------------------------------------------
# Stuck bursts reach every worker shape
# ---------------------------------------------------------------------------
class TestStuckBurstTargets:
    def test_stageless_burst_degrades_every_stage_of_a_pipeline(self):
        # Regression: a profile without ``stages`` compiles stuck bursts
        # with no stage; against a multi-stage worker the injector called
        # a ``degrade`` that worker lacked and the run died mid-loop.
        from repro.serving import TridentServer
        from repro.serving.shard_workload import (
            ShardWorkloadConfig,
            build_pipeline_worker,
            synthesize_shard_arrivals,
        )

        config = ShardWorkloadConfig(n_requests=48)
        worker = build_pipeline_worker(config, overlap=True)
        plan = compile_plan(
            ChaosProfile(
                window_s=config.arrival_window_s,
                crashes=0,
                corruptions=0,
                breaker_storms=0,
                stuck_fraction=0.04,
                stuck_level=254,
            ),
            seed=5,
        )
        assert "stage" not in plan.injections[0].params
        server = TridentServer([worker], config=config.server)
        with chaos_scope(plan) as session:
            server.install_chaos(session)
            report = server.run(synthesize_shard_arrivals(config))
        assert report.conservation_ok()
        (applied,) = session.applied
        assert applied["kind"] == "stuck_burst" and applied["stuck_cells"] > 0
        for runtime in worker.stages:
            assert any(
                acc.pes[tile[4]].bank.stuck_fraction > 0
                for acc in runtime.stage.parts
                for layer in acc.layers
                for tile in layer.tiles
            )

    def test_stage_beyond_the_worker_raises(self):
        # Regression: a stage aimed at a single-chip worker was ignored.
        from repro.serving import build_worker

        worker = build_worker(0, (6, 4), seed=3)
        assert worker.degrade(0.05, stuck_level=254, stage=0) > 0
        with pytest.raises(ChaosError, match="stage 1"):
            worker.degrade(0.05, stage=1)
        session = ChaosSession(
            ChaosPlan(
                seed=0,
                injections=(
                    Injection(0.0, "stuck_burst", 0, {"stage": 1}),
                ),
            )
        )
        action = make_server_action(session, 0, session.plan.injections[0])

        class FakeServer:
            workers = [worker]
            clock = VirtualClock()

        with pytest.raises(ChaosError):
            action(FakeServer())
        assert session.applied == []


# ---------------------------------------------------------------------------
# Clock jitter hook
# ---------------------------------------------------------------------------
class TestClockJitter:
    def test_jitter_delays_but_never_reorders(self):
        from repro.errors import ServingError

        clock = VirtualClock()
        clock.set_jitter(lambda t: 1e-9)
        clock.advance_to(1e-6)
        assert clock.now() == pytest.approx(1e-6 + 1e-9)
        before = clock.now()
        clock.advance_to(before)  # zero-width jump: no jitter applied
        assert clock.now() == before
        with pytest.raises(ServingError):
            clock.advance_to(0.0)  # rewinding stays forbidden

    def test_negative_jitter_clamped(self):
        clock = VirtualClock()
        clock.set_jitter(lambda t: -5.0)
        clock.advance_to(1.0)
        assert clock.now() == 1.0

    def test_set_jitter_after_construction(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        clock.set_jitter(lambda t: 0.5)
        clock.advance_to(2.0)
        assert clock.now() == 2.5


# ---------------------------------------------------------------------------
# Satellite: monotonic probe scheduling under forced trips
# ---------------------------------------------------------------------------
class TestBreakerMonotonicProbe:
    def test_forced_trip_never_moves_probe_backward(self):
        breaker = CircuitBreaker(0, failure_threshold=1, cooldown_s=5.0)
        breaker.record_failure(10.0)
        assert breaker.state is BreakerState.OPEN
        assert breaker.next_probe_s() == 15.0
        assert breaker.allow(15.0)  # OPEN -> HALF_OPEN probe
        assert breaker.state is BreakerState.HALF_OPEN
        # A chaos storm re-trips with a stale timestamp: the new probe
        # instant must not precede the one already scheduled.
        breaker.trip(8.0, "chaos_storm")
        assert breaker.state is BreakerState.OPEN
        assert breaker.next_probe_s() >= 15.0

    def test_fresh_trip_still_uses_current_time(self):
        breaker = CircuitBreaker(0, failure_threshold=1, cooldown_s=5.0)
        breaker.trip(100.0, "health")
        assert breaker.next_probe_s() == 105.0

    def test_later_retrip_moves_probe_forward(self):
        breaker = CircuitBreaker(0, failure_threshold=1, cooldown_s=5.0)
        breaker.trip(10.0, "health")
        breaker.allow(15.0)
        breaker.record_failure(16.0)  # probe failed at a later instant
        assert breaker.next_probe_s() == 21.0


# ---------------------------------------------------------------------------
# Satellite: corrupt-checkpoint skip is observable
# ---------------------------------------------------------------------------
class TestCheckpointCorruptSkipTelemetry:
    def test_skip_emits_event_and_counter(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"step": 1, "w": np.ones(2)})
        store.save(2, {"step": 2, "w": np.ones(2) * 2})
        flip_file_bit(store.path_for(2), np.random.default_rng(0))
        with telemetry.session() as t, pytest.warns(UserWarning):
            latest = store.latest()
        assert latest is not None and latest[0] == 1  # fell back
        events = t.events.of_kind("checkpoint_corrupt_skipped")
        assert len(events) == 1
        assert events[0].fields["step"] == 2
        assert str(store.path_for(2)) == events[0].fields["path"]
        text = t.metrics.to_prometheus()
        assert "repro_checkpoint_corrupt_skipped_total 1" in text

    def test_no_event_when_store_healthy(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.save(1, {"step": 1})
        with telemetry.session() as t:
            assert store.latest()[0] == 1
        assert not t.events.of_kind("checkpoint_corrupt_skipped")


# ---------------------------------------------------------------------------
# Audit
# ---------------------------------------------------------------------------
class TestAudit:
    def test_clean_chaos_run_passes_all_checks(self):
        outcome = _run_serve(0, True)
        assert outcome["ok"], outcome["failed"]
        assert outcome["applied"]  # chaos actually fired

    def test_tampered_decision_log_fails_atomicity(self):
        run = _serve_run(0, False)
        dropped = [r for r in run.report.decisions if r["kind"] != "complete"]
        tampered = dataclasses.replace(run.report, decisions=dropped)
        result = audit_serve_run(dataclasses.replace(run, report=tampered))
        assert any("atomic_batches" in f for f in result.failed())

    def test_replay_mismatch_detected(self):
        result = audit_serve_run(_serve_run(0, False), replay=_serve_run(1, False))
        assert any("bit_identical_replay" in f for f in result.failed())


# ---------------------------------------------------------------------------
# Satellite: seeded bit-identity, with and without chaos (hypothesis)
# ---------------------------------------------------------------------------
class TestChaosDeterminismProperties:
    @given(seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_same_seeds_same_bits_under_chaos(self, seed):
        a = _serve_run(seed, True)
        b = _serve_run(seed, True)
        assert run_digest(a.report) == run_digest(b.report)
        assert a.session.applied == b.session.applied

    @given(seed=st.integers(0, 50))
    @settings(max_examples=5, deadline=None)
    def test_empty_plan_session_matches_no_session(self, seed):
        """Chaos compiled in but not planned changes no output bit."""
        from repro.serving.workload import run_serve_workload

        config = dataclasses.replace(
            _small_workload_config(), seed=int(seed)
        )
        run_off = run_serve_workload(config)
        with chaos_scope(ChaosPlan(seed=0)):
            run_on = run_serve_workload(config)
        assert run_digest(run_off.report) == run_digest(run_on.report)


def _small_workload_config():
    from repro.serving.workload import Phase, WorkloadConfig

    return WorkloadConfig(
        phases=(Phase("warm", 40, 0.6), Phase("drain", 40, 0.4))
    )


# ---------------------------------------------------------------------------
# Soak harness
# ---------------------------------------------------------------------------
class TestSoak:
    def test_config_validation(self):
        with pytest.raises(ChaosError):
            SoakConfig(scenarios=("nope",))
        with pytest.raises(ChaosError):
            SoakConfig(repeats=0)
        with pytest.raises(ChaosError):
            SoakConfig(seeds=())

    def test_cell_passes_and_carries_injections(self):
        cell = run_cell("serve", 0, repeats=2, chaos_enabled=True)
        assert cell["ok"], cell["failed_checks"]
        assert cell["digest"]
        assert sum(cell["injections_applied"].values()) >= 1
        assert cell["telemetry"] is None  # only failures get snapshots

    def test_matrix_schema_valid_and_renderable(self):
        doc = run_soak(
            SoakConfig(scenarios=("serve",), seeds=(0, 1), repeats=2)
        )
        assert validate_matrix(doc) == []
        assert not doc["flaky"]
        text = render_matrix(doc)
        assert "serve" in text and "pass" in text
        json.dumps(doc)  # artifact-ready

    def test_validate_matrix_catches_holes(self):
        doc = run_soak(SoakConfig(scenarios=("serve",), seeds=(0,), repeats=1))
        broken = dict(doc, cells=[])
        assert any("coverage" in p for p in validate_matrix(broken))
        assert any("missing key" in p for p in validate_matrix({"schema": 1}))

    def test_self_audit_detects_unhandled_fault(self):
        verdict = run_self_audit(0)
        assert verdict["ok"]
        assert verdict["sabotaged_cell_failed"]

    def test_no_chaos_sweep_applies_nothing(self):
        cell = run_cell("serve", 0, repeats=1, chaos_enabled=False)
        assert cell["ok"], cell["failed_checks"]
        assert cell["injections_applied"] == {}

    def test_smoke_gate_fails_when_self_audit_cannot(self, monkeypatch, capsys):
        import repro.chaos
        from repro.cli import main

        argv = ["soak", "--smoke", "--scenarios", "sdc", "--seeds", "1",
                "--repeats", "1"]
        assert main(argv) == 0
        monkeypatch.setattr(
            repro.chaos,
            "run_self_audit",
            lambda seed: {"ok": False, "sabotaged_cell_failed": False,
                          "failed_checks": []},
        )
        assert main(argv) == 1
        assert "FAIL self_audit_flags_sabotage" in capsys.readouterr().out


@pytest.fixture(scope="module")
def soak_fleet_run():
    """Seed 0 of the soak's fleet cell, chaos on."""
    return _fleet_run(0, True)


class TestSoakFleetAudit:
    def test_untampered_run_passes(self, soak_fleet_run):
        result = audit_fleet_run(soak_fleet_run)
        assert result.ok, result.failed()

    def test_checkpoint_of_a_rostered_worker_fails(self, soak_fleet_run):
        run = soak_fleet_run
        assert 0 not in run.pool.ids_in("decommissioned")
        pool = copy.copy(run.pool)
        pool.checkpoint_digests = {**run.pool.checkpoint_digests, 0: "0" * 64}
        result = audit_fleet_run(dataclasses.replace(run, pool=pool))
        assert any(
            f.startswith("decommissions_checkpointed") for f in result.failed()
        )

    def test_running_controller_fails(self, soak_fleet_run):
        controller = copy.copy(soak_fleet_run.controller)
        controller.stopped = False
        result = audit_fleet_run(
            dataclasses.replace(soak_fleet_run, controller=controller)
        )
        assert [f.split(":")[0] for f in result.failed()] == [
            "controller_stopped"
        ]

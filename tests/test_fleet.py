"""Fleet control plane: trace synthesis, pool lifecycle, rollups,
controller behavior, and the end-to-end smoke contract."""

import itertools
import math

import numpy as np
import pytest

from repro.errors import ServingError
from repro.fleet import (
    Burst,
    ControllerConfig,
    FleetController,
    LADDER,
    TenantSpec,
    TraceConfig,
    WorkerPool,
    run_fleet_workload,
    smoke_chaos_plan,
    smoke_scenario,
    state_digest,
    synthesize_trace,
    window_p99_latency_s,
)
from repro.chaos.audit import run_digest
from repro.serving.server import ServerConfig, TridentServer
from repro.telemetry.rollup import ServingRollup

DIMS = (6, 8, 4)


# ---------------------------------------------------------------------------
# Trace synthesis
# ---------------------------------------------------------------------------
class TestTrace:
    def test_same_config_same_trace(self):
        config = TraceConfig(duration_s=1e-4, base_rate_x=1.0, seed=5)
        a = synthesize_trace(config, 1e7, 6, 1e-5)
        b = synthesize_trace(config, 1e7, 6, 1e-5)
        assert len(a) == len(b) > 0
        for ra, rb in zip(a, b):
            assert ra.arrival_s == rb.arrival_s
            assert ra.tenant == rb.tenant
            assert ra.priority == rb.priority
            assert np.array_equal(ra.x, rb.x)

    def test_different_seed_different_trace(self):
        base = TraceConfig(duration_s=1e-4, base_rate_x=1.0, seed=5)
        other = TraceConfig(duration_s=1e-4, base_rate_x=1.0, seed=6)
        a = synthesize_trace(base, 1e7, 6, 1e-5)
        b = synthesize_trace(other, 1e7, 6, 1e-5)
        assert [r.arrival_s for r in a] != [r.arrival_s for r in b]

    def test_diurnal_trough_and_peak(self):
        config = TraceConfig(
            duration_s=1.0, base_rate_x=2.0, diurnal_amplitude=0.5
        )
        assert config.rate_x(0.0) == pytest.approx(1.0)  # trough: base*(1-amp)
        assert config.rate_x(0.5) == pytest.approx(3.0)  # peak:   base*(1+amp)

    def test_burst_multiplies_rate(self):
        config = TraceConfig(
            duration_s=1.0,
            base_rate_x=1.0,
            diurnal_amplitude=0.0,
            bursts=(Burst(0.4, 0.2, 3.0),),
        )
        assert config.rate_x(0.3) == pytest.approx(1.0)
        assert config.rate_x(0.5) == pytest.approx(3.0)
        assert config.peak_rate_x() == pytest.approx(3.0)
        assert config.peak_window() == (0.4, pytest.approx(0.6))

    def test_overlapping_bursts_stay_under_the_envelope(self):
        """The thinning bound covers the product of overlapping gains."""
        config = TraceConfig(
            duration_s=1.0,
            base_rate_x=1.0,
            diurnal_amplitude=0.5,
            bursts=(Burst(0.2, 0.4, 3.0), Burst(0.4, 0.4, 3.0), Burst(0.5, 0.05, 1.5)),
        )
        grid = np.linspace(0.0, 1.0, 2001).tolist()
        for burst in config.bursts:
            for edge in (burst.start_s, burst.end_s):
                grid += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
        peak = config.peak_rate_x()
        assert max(config.rate_x(t) for t in grid) <= peak
        assert peak == pytest.approx(1.5 * 3.0 * 3.0 * 1.5)

    def test_overlapping_bursts_deliver_their_rate(self):
        """Where two 3x bursts overlap the trace arrives at 9x base."""
        config = TraceConfig(
            duration_s=1.0,
            base_rate_x=1.0,
            diurnal_amplitude=0.0,
            bursts=(Burst(0.2, 0.4, 3.0), Burst(0.4, 0.4, 3.0)),
            seed=0,
        )
        unit_rate_hz = 2000.0
        requests = synthesize_trace(config, unit_rate_hz, 1, 1e-5)
        in_overlap = sum(0.4 <= r.arrival_s < 0.6 for r in requests)
        expected = config.rate_x(0.5) * unit_rate_hz * 0.2
        assert expected == pytest.approx(3600.0)
        # Poisson: one standard deviation is 60 arrivals (1.7%).
        assert in_overlap == pytest.approx(expected, rel=0.1)

    def test_tenant_mix_and_kinds(self):
        config = TraceConfig(duration_s=2e-4, base_rate_x=1.5, seed=0)
        requests = synthesize_trace(config, 1e7, 6, 1e-5)
        tenants = {r.tenant for r in requests}
        assert {"free", "pro"} <= tenants
        assert all(r.kind in ("infer", "train") for r in requests)
        train = [r for r in requests if r.kind == "train"]
        assert train and all(r.deadline_s is None for r in train)

    def test_validation(self):
        with pytest.raises(ServingError):
            TenantSpec("t", weight=0.5, kind="mystery")
        with pytest.raises(ServingError):
            Burst(0.1, 0.1, 0.5)
        with pytest.raises(ServingError):
            TraceConfig(duration_s=1.0, base_rate_x=1.0, diurnal_amplitude=1.5)
        with pytest.raises(ServingError):
            TraceConfig(
                duration_s=1.0, base_rate_x=1.0, bursts=(Burst(2.0, 1.0, 2.0),)
            )

    def test_max_requests_guard(self):
        config = TraceConfig(
            duration_s=1e-3, base_rate_x=10.0, seed=0, max_requests=100
        )
        with pytest.raises(ServingError, match="max_requests"):
            synthesize_trace(config, 1e7, 6, 1e-5)


# ---------------------------------------------------------------------------
# Worker pool
# ---------------------------------------------------------------------------
def _pool_with_server(n=2, max_queue_depth=16):
    pool = WorkerPool(DIMS, seed=3)
    workers = pool.bootstrap(n)
    server = TridentServer(
        workers,
        config=ServerConfig(max_queue_depth=max_queue_depth, max_batch=4),
    )
    pool.bind(server)
    return pool, server


class TestWorkerPool:
    def test_clone_outputs_bit_identical_to_template(self):
        pool = WorkerPool(DIMS, seed=3)
        template, clone = pool.bootstrap(2)
        x = np.random.default_rng(0).uniform(-1, 1, (5, DIMS[0]))
        assert np.array_equal(
            template.acc.forward_batch(x.copy()),
            clone.acc.forward_batch(x.copy()),
        )
        assert state_digest(template.acc.state_dict()) == state_digest(
            clone.acc.state_dict()
        )

    def test_clones_own_their_bank_state(self):
        """A clone's banks copy the template snapshot: wearing one clone
        leaves every other worker untouched."""
        pool = WorkerPool(DIMS, seed=3)
        workers = pool.bootstrap(3)  # the template, then two clones
        arrays = ("_levels", "_realized", "_mask", "_stuck_mask",
                  "_stuck_levels", "_row_map", "_unconverged_mask")
        for a, b in itertools.combinations(workers, 2):
            for pe_a, pe_b in zip(a.acc.pes, b.acc.pes):
                for name in arrays:
                    assert not np.shares_memory(
                        getattr(pe_a.bank, name), getattr(pe_b.bank, name)
                    ), name
        _, first, second = workers
        assert first.degrade(0.1) > 0
        assert all(pe.bank.stuck_fraction == 0.0 for pe in second.acc.pes)

    def test_commission_warm_drain_decommission(self):
        pool, server = _pool_with_server()
        wid = pool.commission(warmup_s=1e-6)
        assert pool.states[wid] == "warming"
        assert wid not in server.active_worker_ids()
        server.clock.advance_to(2e-6)
        assert pool.refresh(server.clock.now()) == [wid]
        assert pool.states[wid] == "active"
        assert wid in server.active_worker_ids()

        pool.begin_drain(wid)
        assert pool.states[wid] == "draining"
        assert wid not in server.active_worker_ids()
        assert pool.try_decommission(wid)
        assert pool.states[wid] == "decommissioned"
        assert wid in pool.checkpoint_digests
        assert len(pool.checkpoint_digests[wid]) == 64
        assert not pool.try_decommission(wid)  # already gone

    def test_state_views_stay_ascending(self):
        """Workers entering a state out of id order still list ascending."""
        pool, server = _pool_with_server(n=3)
        late = pool.commission(warmup_s=1e-6)
        pool.begin_drain(2)
        pool.begin_drain(0)
        assert pool.ids_in("draining") == [0, 2]
        assert pool.ids_in("active") == [1]
        assert pool.ids_in("warming") == [late]
        server.clock.advance_to(2e-6)
        assert pool.refresh(server.clock.now()) == [late]
        assert pool.ids_in("active") == [1, late]
        assert pool.counts() == {
            "warming": 0, "active": 2, "draining": 2, "decommissioned": 0
        }
        with pytest.raises(ServingError):
            pool.ids_in("retired")

    def test_decommission_requires_drain(self):
        pool, _server = _pool_with_server()
        assert not pool.try_decommission(0)  # active, not draining
        with pytest.raises(ServingError):
            pool.begin_drain(99)

    def test_cannot_remove_last_worker(self):
        pool, server = _pool_with_server(n=1)
        pool.begin_drain(0)
        with pytest.raises(ServingError):
            server.remove_worker(0)

    def test_bootstrap_only_once(self):
        pool, _server = _pool_with_server()
        with pytest.raises(ServingError):
            pool.bootstrap(1)

    def test_unit_rate_positive(self):
        pool, _server = _pool_with_server()
        assert pool.unit_rate_hz(4) > 0


# ---------------------------------------------------------------------------
# Serving rollup
# ---------------------------------------------------------------------------
class TestServingRollup:
    def test_attainment_counts_sheds_as_misses(self):
        rollup = ServingRollup(window_s=1.0)
        rollup.record_completion(0.1, 1e-6, True)
        rollup.record_completion(0.2, 1e-6, True)
        rollup.record_shed(0.3, "queue_full")
        stats = rollup.window_stats(0.5, slo_latency_s=1e-5)
        assert stats.attainment == pytest.approx(2 / 3)

    def test_policy_sheds_excluded_from_attainment(self):
        rollup = ServingRollup(window_s=1.0)
        rollup.record_completion(0.1, 1e-6, True)
        rollup.record_shed(0.2, "degraded_shed")
        stats = rollup.window_stats(0.5, slo_latency_s=1e-5)
        assert stats.attainment == 1.0
        assert stats.sheds == 1

    def test_window_prunes_old_samples(self):
        rollup = ServingRollup(window_s=0.1)
        rollup.record_shed(0.0, "queue_full")
        rollup.record_completion(1.0, 1e-6, True)
        stats = rollup.window_stats(1.05, slo_latency_s=1e-5)
        assert stats.sheds == 0
        assert stats.completions == 1
        assert stats.attainment == 1.0

    def test_late_completion_misses_slo(self):
        rollup = ServingRollup(window_s=1.0)
        rollup.record_completion(0.1, 5e-5, True)  # latency above SLO
        stats = rollup.window_stats(0.5, slo_latency_s=1e-5)
        assert stats.attainment == 0.0

    def test_tenant_shed_rate(self):
        rollup = ServingRollup(window_s=1.0)
        rollup.record_completion(0.1, 1e-6, True, tenant="a")
        rollup.record_shed(0.2, "queue_full", tenant="a")
        rollup.record_shed(0.3, "queue_full", tenant="b")
        stats = rollup.window_stats(0.5, slo_latency_s=1e-5)
        assert stats.tenant_shed_rate("a") == pytest.approx(0.5)
        assert stats.tenant_shed_rate("b") == 1.0
        assert stats.tenant_shed_rate("silent") == 0.0

    def test_empty_window(self):
        stats = ServingRollup(1.0).window_stats(0.0, slo_latency_s=1e-5)
        assert stats.attainment == 1.0

    def test_sdc_rate_counts_escalations_against_completions(self):
        rollup = ServingRollup(window_s=1.0)
        rollup.record_completion(0.1, 1e-6, True)
        rollup.record_completion(0.2, 1e-6, True)
        rollup.record_completion(0.3, 1e-6, True)
        rollup.record_sdc(0.4, worker_id=1)
        stats = rollup.window_stats(0.5, slo_latency_s=1e-5)
        assert stats.sdc_count == 1
        assert stats.sdc_by_worker == {1: 1}
        assert stats.sdc_rate() == pytest.approx(1 / 4)

    def test_sdc_window_prunes_to_empty(self):
        rollup = ServingRollup(window_s=0.1)
        rollup.record_sdc(0.0, worker_id=0)
        rollup.record_sdc(0.05, worker_id=2)
        stats = rollup.window_stats(1.0, slo_latency_s=1e-5)
        # Both samples aged out: counts at zero and the per-worker keys
        # gone entirely, not lingering at zero.
        assert stats.sdc_count == 0
        assert stats.sdc_by_worker == {}
        assert stats.sdc_rate() == 0.0


# ---------------------------------------------------------------------------
# Controller
# ---------------------------------------------------------------------------
class TestControllerConfig:
    def test_power_cap(self):
        config = ControllerConfig(power_budget_w=0.1)
        assert ControllerConfig.per_worker_power_w == 0.025
        assert config.power_cap_workers(0) == 4
        assert config.power_cap_workers(LADDER.index("brownout")) == 2


class TestControllerPolicy:
    def _controller(self):
        pool, server = _pool_with_server()
        config = ControllerConfig(min_workers=2, max_workers=8)
        rollup = ServingRollup(config.window_s)
        return FleetController(server, pool, rollup, config), server

    def test_rung_policy_is_idempotent(self):
        controller, server = self._controller()
        controller.rung = LADDER.index("shed_low")
        controller._apply_rung_policy()
        applied = len(controller.actuations)
        assert applied > 0
        assert server.min_priority == controller.config.shed_low_floor
        controller._apply_rung_policy()  # same rung again: no new actuations
        assert len(controller.actuations) == applied

    def test_ladder_unwinds_to_nominal(self):
        controller, server = self._controller()
        controller._set_rung(LADDER.index("freeze_training"), reason="test")
        assert server.frozen_kinds == {"train"}
        assert controller.degraded_entries == 1
        controller._set_rung(0, reason="test")
        assert controller.degraded_exits == 1
        assert server.min_priority is None
        assert server.frozen_kinds == set()
        assert server.batcher.slo_latency_s == controller.base_batch_slo_s

    def test_sdc_quarantine_trips_breaker_at_threshold(self):
        from repro.serving.breaker import BreakerState

        controller, server = self._controller()
        rollup = ServingRollup(window_s=1.0)
        for _ in range(controller.config.sdc_quarantine_count):
            rollup.record_sdc(0.1, worker_id=0)
        rollup.record_sdc(0.1, worker_id=1)  # below threshold: untouched
        stats = rollup.window_stats(0.5, slo_latency_s=1e-5)
        controller._drive_sdc(server, stats, now=0.5)
        assert server.breakers[0].state is BreakerState.OPEN
        assert server.breakers[1].state is BreakerState.CLOSED
        quarantines = [
            a for a in controller.actuations if a["action"] == "sdc_quarantine"
        ]
        assert len(quarantines) == 1
        assert quarantines[0]["worker"] == 0
        # Already-open breakers are not re-tripped or re-logged.
        controller._drive_sdc(server, stats, now=0.6)
        assert len(controller.actuations) == len(quarantines)


# ---------------------------------------------------------------------------
# End-to-end
# ---------------------------------------------------------------------------
def _tiny_scenario(**overrides):
    import dataclasses

    base = smoke_scenario(seed=2)
    trace = dataclasses.replace(
        base.trace, duration_s=2e-4, base_rate_x=1.3, bursts=()
    )
    return dataclasses.replace(base, trace=trace, **overrides)


class TestFleetRuns:
    def test_uncontrolled_run_keeps_static_fleet(self):
        result = run_fleet_workload(_tiny_scenario(), controlled=False)
        assert result.controller is None
        assert result.pool.counts()["active"] == 2
        assert result.report.conservation_ok()

    def test_controlled_run_scales_and_conserves(self):
        result = run_fleet_workload(_tiny_scenario(), controlled=True)
        controller = result.controller
        assert result.report.conservation_ok()
        assert controller.stopped
        assert controller.scale_up_events > 0
        assert controller.degraded_entries == controller.degraded_exits == 0
        assert LADDER[controller.rung] == "nominal"
        counts = result.pool.counts()
        assert counts["warming"] == 0 and counts["draining"] == 0
        # Actuation payloads land in provision_wall_s, not the loop wall.
        assert controller.provision_wall_s > 0.0
        report = controller.report()
        assert report["wall_s"] == controller.wall_s
        assert report["provision_wall_s"] == controller.provision_wall_s

    def test_replay_digest_is_stable(self):
        scenario = _tiny_scenario()
        a = run_fleet_workload(scenario, controlled=True)
        b = run_fleet_workload(scenario, controlled=True)
        assert run_digest(a.report) == run_digest(b.report)

    def test_storm_drives_one_degraded_episode(self):
        scenario = smoke_scenario(seed=11)
        plan = smoke_chaos_plan(scenario)
        result = run_fleet_workload(scenario, controlled=True, chaos_plan=plan)
        controller = result.controller
        assert controller.degraded_entries == 1
        assert controller.degraded_exits == 1
        assert LADDER[controller.rung] == "nominal"
        assert result.report.conservation_ok()
        decommissioned = result.pool.ids_in("decommissioned")
        assert decommissioned
        assert sorted(result.pool.checkpoint_digests) == decommissioned

    def test_window_p99_counts_sheds_as_inf(self):
        scenario = _tiny_scenario()
        result = run_fleet_workload(scenario, controlled=True)
        p99 = window_p99_latency_s(result.report, 0.0, scenario.trace.duration_s)
        assert p99 > 0

    def test_window_p99_empty_window(self):
        scenario = _tiny_scenario()
        result = run_fleet_workload(scenario, controlled=False)
        assert window_p99_latency_s(result.report, 10.0, 11.0) == 0.0


class TestFleetAudit:
    def test_audit_fleet_run_passes_clean_run(self):
        from repro.chaos.audit import audit_fleet_run

        scenario = _tiny_scenario()
        result = run_fleet_workload(scenario, controlled=True)
        replay = run_fleet_workload(scenario, controlled=True)
        audit = audit_fleet_run(result, replay=replay)
        assert audit.ok, audit.failed()
        names = [name for name, _, _ in audit.checks]
        assert "decommissions_checkpointed" in names
        assert "degraded_mode_converged" in names
        assert "actuations_logged" in names

    def test_audit_flags_missing_checkpoint(self):
        from repro.chaos.audit import audit_fleet_run

        result = run_fleet_workload(_tiny_scenario(), controlled=True)
        if not result.pool.ids_in("decommissioned"):
            pytest.skip("run decommissioned no workers")
        result.pool.checkpoint_digests.clear()
        audit = audit_fleet_run(result)
        assert any("decommissions_checkpointed" in f for f in audit.failed())

"""Property-based tests (hypothesis) on fleet control-plane invariants.

Per ISSUE acceptance criteria:

- **Worker conservation** — across arbitrary mid-run scale-up / drain
  schedules, every submitted request settles exactly once (completed
  xor shed; never lost, never double-settled), and every worker that
  leaves the roster checkpointed its bank state first.
- **Controller idempotence** — a controller watching a steady, green
  fleet (all SLOs met, utilization in the dead zone, fleet at its
  floor) performs zero actuations besides its final run-drained stop.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    LADDER,
    WORKER_STATES,
    WorkerPool,
    run_fleet_workload,
    smoke_scenario,
)
from repro.serving import InferenceRequest, ServerConfig, TridentServer

DIMS = (6, 4)

request_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5e-6),        # inter-arrival gap
        st.integers(min_value=0, max_value=2),           # priority
        st.one_of(st.none(), st.floats(1e-6, 2e-5)),     # deadline slack
    ),
    min_size=4,
    max_size=30,
)

#: Mid-run lifecycle operations: (when, what) with `when` a fraction of
#: the arrival horizon.
lifecycle_ops = st.lists(
    st.tuples(
        st.floats(min_value=0.05, max_value=0.95),
        st.sampled_from(["commission", "drain"]),
    ),
    max_size=6,
)


def build_arrivals(specs):
    arrivals, t = [], 0.0
    rng = np.random.default_rng(0)
    for rid, (gap, priority, slack) in enumerate(specs):
        t += gap
        arrivals.append(
            InferenceRequest(
                request_id=rid,
                x=rng.uniform(-1, 1, DIMS[0]),
                arrival_s=t,
                deadline_s=None if slack is None else t + slack,
                priority=priority,
            )
        )
    return arrivals


def run_with_lifecycle(specs, ops, seed):
    """One serve run with hypothesis-chosen commissions/drains mid-flight."""
    pool = WorkerPool(DIMS, seed=7)
    workers = pool.bootstrap(2)
    server = TridentServer(
        workers,
        config=ServerConfig(
            max_queue_depth=8, max_batch=4, slo_latency_s=1e-5, seed=seed
        ),
    )
    pool.bind(server)
    arrivals = build_arrivals(specs)
    horizon = arrivals[-1].arrival_s

    def commission(s):
        pool.refresh(s.clock.now())
        if len(pool.states) - len(pool.ids_in("decommissioned")) < 8:
            pool.commission(warmup_s=1e-6)

    def drain(s):
        now = s.clock.now()
        pool.refresh(now)
        active = pool.ids_in("active")
        if len(active) > 1:
            pool.begin_drain(max(active))
        for wid in pool.ids_in("draining"):
            pool.try_decommission(wid)

    for index, (frac, op) in enumerate(ops):
        server.schedule_action(
            frac * horizon,
            f"lifecycle_{index}",
            commission if op == "commission" else drain,
        )
    report = server.run(arrivals)
    # Settle whatever the schedule left mid-lifecycle.
    pool.refresh(server.clock.now())
    for wid in pool.ids_in("draining"):
        if len(server.workers) > 1:
            pool.try_decommission(wid)
    return report, pool, server


class TestWorkerConservation:
    @settings(max_examples=15, deadline=None)
    @given(specs=request_specs, ops=lifecycle_ops, seed=st.integers(0, 2**16))
    def test_no_request_lost_across_scale_cycles(self, specs, ops, seed):
        report, _pool, _server = run_with_lifecycle(specs, ops, seed)
        assert report.conservation_ok()
        completed = [c.request.request_id for c in report.completed]
        shed = [r.request.request_id for r in report.shed]
        # Exactly-once settlement: no loss, no double-settle.
        assert len(completed) == len(set(completed))
        assert len(shed) == len(set(shed))
        assert set(completed) | set(shed) == {
            r.request_id for r in build_arrivals(specs)
        }
        assert not set(completed) & set(shed)

    @settings(max_examples=15, deadline=None)
    @given(specs=request_specs, ops=lifecycle_ops, seed=st.integers(0, 2**16))
    def test_every_retired_worker_checkpointed(self, specs, ops, seed):
        _report, pool, server = run_with_lifecycle(specs, ops, seed)
        for wid in pool.ids_in("decommissioned"):
            assert wid in pool.checkpoint_digests
            assert len(pool.checkpoint_digests[wid]) == 64
            # Retired workers are off the server roster for good.
            assert all(w.worker_id != wid for w in server.workers)

    @settings(max_examples=15, deadline=None)
    @given(specs=request_specs, ops=lifecycle_ops, seed=st.integers(0, 2**16))
    def test_state_views_match_the_states(self, specs, ops, seed):
        """The per-state id index agrees with a scan of ``pool.states``."""
        _report, pool, _server = run_with_lifecycle(specs, ops, seed)
        for state in WORKER_STATES:
            scanned = sorted(w for w, s in pool.states.items() if s == state)
            assert pool.ids_in(state) == scanned
            assert pool.counts()[state] == len(scanned)


class TestControllerIdempotence:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        base_rate_x=st.floats(min_value=0.1, max_value=0.4),
        amplitude=st.floats(min_value=0.0, max_value=0.3),
    )
    def test_green_steady_state_means_zero_actuations(
        self, seed, base_rate_x, amplitude
    ):
        import dataclasses

        base = smoke_scenario(seed=seed)
        trace = dataclasses.replace(
            base.trace,
            duration_s=1.5e-4,
            base_rate_x=base_rate_x,
            diurnal_amplitude=amplitude,
            bursts=(),
        )
        # Grade against an SLO with headroom over the micro-batch hold
        # time: at sparse load the batcher's hold delay dominates latency,
        # and an unattainable SLO is *correctly* red, not steady-green.
        controller = dataclasses.replace(base.controller, slo_latency_s=3e-5)
        scenario = dataclasses.replace(
            base, trace=trace, controller=controller
        )
        result = run_fleet_workload(scenario, controlled=True)
        controller = result.controller
        # Fleet sits at its floor, SLOs green: the only actuation the
        # whole run is the final run-drained stop.
        assert controller.stopped
        assert [a["action"] for a in controller.actuations] == ["stop"]
        assert controller.scale_up_events == 0
        assert controller.scale_down_events == 0
        assert LADDER[controller.rung] == "nominal"
        assert result.pool.counts()["active"] == scenario.initial_workers
        assert result.report.conservation_ok()

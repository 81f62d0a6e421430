"""Tests for the fault-aware serving layer (repro.serving)."""

import math

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro import telemetry
from repro.dataflow.cost_model import PhotonicArch, forward_batch_latency_s
from repro.errors import ConfigError, ServingError, WorkerFault
from repro.fleet import WorkerPool
from repro.integrity import build_integrity_worker
from repro.runtime import VirtualClock
from repro.serving import (
    AcceleratorWorker,
    AdmissionQueue,
    BreakerState,
    CircuitBreaker,
    CompletedRequest,
    InferenceRequest,
    MicroBatcher,
    Phase,
    RejectedRequest,
    ServerConfig,
    ShardWorkloadConfig,
    ShedReason,
    TridentServer,
    WorkloadConfig,
    build_worker,
    run_serve_workload,
    serve_gate,
    shed_rate_by_priority,
    sustainable_rate_hz,
    synthesize_arrivals,
)
from repro.serving import worker as worker_module
from repro.serving.shard_workload import build_pipeline_worker
from repro.serving.worker import DISPATCH_OVERHEAD_S


def req(rid, arrival=0.0, deadline=None, priority=0, n_in=4):
    return InferenceRequest(
        request_id=rid,
        x=np.zeros(n_in),
        arrival_s=arrival,
        deadline_s=deadline,
        priority=priority,
    )


# ---------------------------------------------------------------------------
class TestVirtualClock:
    def test_starts_at_zero_and_advances(self):
        clock = VirtualClock()
        assert clock.now() == 0.0
        clock.advance(1.5)
        clock.advance_to(2.0)
        assert clock.now() == 2.0

    def test_rejects_rewind(self):
        clock = VirtualClock()
        clock.advance_to(1.0)
        with pytest.raises(ServingError):
            clock.advance(-0.1)
        with pytest.raises(ServingError):
            clock.advance_to(0.5)


# ---------------------------------------------------------------------------
class TestAdmissionQueue:
    def test_pops_in_priority_then_fifo_order(self):
        q = AdmissionQueue(max_depth=8)
        for r in (req(0, 0.0, priority=0), req(1, 1.0, priority=2),
                  req(2, 2.0, priority=1), req(3, 3.0, priority=2)):
            q.push(r)
        assert [r.request_id for r in q.pop_batch(4)] == [1, 3, 2, 0]

    def test_offer_refuses_equal_priority_when_full(self):
        q = AdmissionQueue(max_depth=2)
        q.push(req(0, 0.0))
        q.push(req(1, 1.0))
        admitted, evicted = q.offer(req(2, 2.0))
        assert not admitted and evicted is None
        assert len(q) == 2

    def test_offer_evicts_youngest_of_lowest_tier(self):
        q = AdmissionQueue(max_depth=3)
        q.push(req(0, 0.0, priority=0))
        q.push(req(1, 1.0, priority=0))
        q.push(req(2, 2.0, priority=1))
        admitted, evicted = q.offer(req(3, 3.0, priority=2))
        assert admitted
        assert evicted.request_id == 1  # youngest priority-0 resident
        assert {r.request_id for r in q.snapshot()} == {0, 2, 3}

    def test_eviction_tie_break_follows_admission_order_not_id(self):
        # Regression: equal-priority, equal-arrival residents must evict
        # deterministically by admission order (last admitted first), not
        # by whatever request_id the producer happened to assign.  The
        # queue stamps its own admission sequence on every push, so the
        # victim is replay-stable even when ids arrive out of order.
        q = AdmissionQueue(max_depth=2)
        q.push(req(9, arrival=1.0, priority=0))  # admitted first
        q.push(req(5, arrival=1.0, priority=0))  # admitted second
        admitted, evicted = q.offer(req(7, arrival=2.0, priority=1))
        assert admitted
        assert evicted.request_id == 5  # last admitted, despite lower id
        assert {r.request_id for r in q.snapshot()} == {9, 7}

    def test_push_beyond_bound_raises(self):
        q = AdmissionQueue(max_depth=1)
        q.push(req(0))
        with pytest.raises(ServingError):
            q.push(req(1))

    def test_drop_hopeless_removes_only_expired(self):
        q = AdmissionQueue(max_depth=4)
        q.push(req(0, 0.0, deadline=1.0))    # hopeless at t=2
        q.push(req(1, 0.0, deadline=5.0))    # fine
        q.push(req(2, 0.0, deadline=None))   # best-effort: never hopeless
        dropped = q.drop_hopeless(now_s=2.0, min_service_s=0.5)
        assert [r.request_id for r in dropped] == [0]
        assert len(q) == 2


class ReferenceQueue:
    """The admission queue's semantics written out plainly.

    The oracle for the indexed queue: a sorted list, a lambda-``min``
    displacement victim and a linear hopeless scan.
    """

    def __init__(self, max_depth):
        self.max_depth = max_depth
        self.entries = []  # (order key, admission seq, request)
        self.next_seq = 0

    def push(self, request):
        key = (-request.priority, request.arrival_s, request.request_id)
        self.entries.append((key, self.next_seq, request))
        self.entries.sort(key=lambda entry: entry[0])
        self.next_seq += 1

    def offer(self, request):
        if len(self.entries) < self.max_depth:
            self.push(request)
            return True, None
        index = min(
            range(len(self.entries)),
            key=lambda i: (self.entries[i][2].priority, -self.entries[i][1]),
        )
        victim = self.entries[index][2]
        if request.priority <= victim.priority:
            return False, None
        del self.entries[index]
        self.push(request)
        return True, victim

    def pop_batch(self, limit):
        taken = [entry[2] for entry in self.entries[:limit]]
        del self.entries[:limit]
        return taken

    def drop_hopeless(self, now_s, min_service_s):
        dropped, kept = [], []
        for entry in self.entries:
            if entry[2].slack_s(now_s) < min_service_s:
                dropped.append(entry[2])
            else:
                kept.append(entry)
        self.entries = kept
        return dropped

    def snapshot(self):
        return tuple(entry[2] for entry in self.entries)


def _ids(requests):
    return [r.request_id for r in requests]


_NOW = st.sampled_from([0.0, 1.0, 2.5]) | st.floats(-3.0, 6.0)
_REQUEST = st.tuples(
    st.integers(0, 2),                                   # priority
    st.sampled_from([0.0, 1.0]) | st.floats(0.0, 2.0),   # arrival
    st.none()
    | st.sampled_from([-1e9, 0.5, 1.0, 1.5, 3.0])        # long past / equal
    | st.floats(-5.0, 5.0),
)


class AdmissionQueueMachine(RuleBasedStateMachine):
    """The indexed queue against :class:`ReferenceQueue`, op by op."""

    @initialize(max_depth=st.integers(1, 6))
    def start(self, max_depth):
        self.real = AdmissionQueue(max_depth)
        self.ref = ReferenceQueue(max_depth)
        self.next_id = 0

    def request(self, spec):
        priority, arrival, deadline = spec
        self.next_id += 1
        return req(self.next_id, arrival, deadline, priority)

    @rule(spec=_REQUEST)
    def push(self, spec):
        request = self.request(spec)
        if len(self.ref.entries) >= self.ref.max_depth:
            with pytest.raises(ServingError):
                self.real.push(request)
        else:
            self.real.push(request)
            self.ref.push(request)

    @rule(spec=_REQUEST)
    def offer(self, spec):
        request = self.request(spec)
        admitted, evicted = self.real.offer(request)
        ref_admitted, ref_evicted = self.ref.offer(request)
        assert admitted == ref_admitted
        assert evicted is ref_evicted

    @rule(limit=st.integers(1, 4))
    def pop_batch(self, limit):
        assert _ids(self.real.pop_batch(limit)) == _ids(self.ref.pop_batch(limit))

    @rule(now=_NOW, min_service=st.sampled_from([0.0, 0.5, 1.0, math.inf]))
    def drop_hopeless(self, now, min_service):
        assert _ids(self.real.drop_hopeless(now, min_service)) == _ids(
            self.ref.drop_hopeless(now, min_service)
        )

    @rule(pick=st.integers(0, 7), now=_NOW)
    def drop_at_boundary(self, pick, now):
        """A drop exactly on a resident's ``deadline - now == min_service``."""
        residents = self.ref.snapshot()
        deadline = residents[pick % len(residents)].deadline_s if residents else None
        self.drop_hopeless(now, (math.inf if deadline is None else deadline) - now)

    @invariant()
    def same_residents(self):
        assert _ids(self.real.snapshot()) == _ids(self.ref.snapshot())
        assert len(self.real) == len(self.ref.entries)
        # The deadline index the early-out reads stays aligned.
        assert self.real._deadlines == [
            math.inf if r.deadline_s is None else r.deadline_s
            for r in self.real.snapshot()
        ]

    @invariant()
    def earliest_deadline_cached(self):
        """The cached minimum is exact unless marked stale (None).

        Reads the cache without refreshing it, so ``drop_hopeless`` still
        meets the stale state and recomputes it on its own.
        """
        cached = self.real._earliest
        deadlines = [
            math.inf if r.deadline_s is None else r.deadline_s
            for r in self.ref.snapshot()
        ]
        assert cached is None or cached == min(deadlines, default=math.inf)


TestAdmissionQueueModel = AdmissionQueueMachine.TestCase
TestAdmissionQueueModel.settings = settings(
    max_examples=100, stateful_step_count=60, deadline=None
)


# ---------------------------------------------------------------------------
class TestMicroBatcher:
    def service(self, batch):
        return 1e-6 + batch * 1e-7

    def test_full_batch_dispatches(self):
        b = MicroBatcher(max_batch=2, slo_latency_s=1e-5)
        q = AdmissionQueue(8)
        q.push(req(0, 0.0))
        q.push(req(1, 0.0))
        assert b.should_dispatch(q, 0.0, next_refill_s=1e-9,
                                 service_time_fn=self.service)

    def test_no_refill_dispatches(self):
        b = MicroBatcher(max_batch=4, slo_latency_s=1e-5)
        q = AdmissionQueue(8)
        q.push(req(0, 0.0))
        assert b.should_dispatch(q, 0.0, None, self.service)

    def test_waits_to_coalesce_inside_budget(self):
        b = MicroBatcher(max_batch=4, slo_latency_s=1e-4)
        q = AdmissionQueue(8)
        q.push(req(0, 0.0))
        # Refill almost immediately, budget huge: wait for a fuller batch.
        assert not b.should_dispatch(q, 0.0, 1e-8, self.service)

    def test_dispatches_when_waiting_busts_budget(self):
        b = MicroBatcher(max_batch=4, slo_latency_s=1e-6)
        q = AdmissionQueue(8)
        q.push(req(0, 0.0, deadline=1.5e-6))
        # Refill so late that coalescing would land past the deadline.
        assert b.should_dispatch(q, 0.0, 1e-6, self.service)

    def test_empty_queue_never_dispatches(self):
        b = MicroBatcher(max_batch=4, slo_latency_s=1e-5)
        assert not b.should_dispatch(AdmissionQueue(8), 0.0, None, self.service)


# ---------------------------------------------------------------------------
class TestCircuitBreaker:
    def make(self, **kw):
        self.transitions = []
        kw.setdefault("failure_threshold", 2)
        kw.setdefault("cooldown_s", 1.0)
        return CircuitBreaker(
            0, on_transition=lambda *a: self.transitions.append(a), **kw
        )

    def test_opens_at_failure_threshold(self):
        b = self.make()
        b.record_failure(0.0)
        assert b.state is BreakerState.CLOSED
        b.record_failure(0.1)
        assert b.state is BreakerState.OPEN
        assert self.transitions[-1][3] is BreakerState.OPEN

    def test_success_resets_failure_count(self):
        b = self.make()
        b.record_failure(0.0)
        b.record_success(0.1)
        b.record_failure(0.2)
        assert b.state is BreakerState.CLOSED

    def test_cooldown_then_half_open_then_close(self):
        b = self.make()
        b.trip(0.0, "health_signal")
        assert not b.allow(0.5)
        assert b.allow(1.0)  # cooldown elapsed -> half-open probe
        assert b.state is BreakerState.HALF_OPEN
        b.record_success(1.1)
        assert b.state is BreakerState.CLOSED
        reasons = [t[4] for t in self.transitions]
        assert reasons == ["health_signal", "cooldown_elapsed", "probe_succeeded"]

    def test_failed_probe_reopens_and_restarts_cooldown(self):
        b = self.make()
        b.trip(0.0, "health_signal")
        assert b.allow(1.0)
        b.record_failure(1.2)
        assert b.state is BreakerState.OPEN
        assert b.next_probe_s() == pytest.approx(2.2)

    def test_validates_config(self):
        with pytest.raises(ServingError):
            CircuitBreaker(0, failure_threshold=0)
        with pytest.raises(ServingError):
            CircuitBreaker(0, cooldown_s=0.0)


# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def tiny_dims():
    return (6, 4)


def make_worker(worker_id=0, dims=(6, 4), seed=3):
    return build_worker(worker_id, dims, seed)


class TestAcceleratorWorker:
    def test_requires_programmed_network(self):
        from repro.arch import TridentAccelerator
        from repro.errors import ShardingError
        from repro.sharding import single_chip_pipeline

        acc = TridentAccelerator()
        with pytest.raises(ShardingError):
            single_chip_pipeline(acc)
        acc.map_mlp([6, 4])
        with pytest.raises(ServingError):
            AcceleratorWorker(0, single_chip_pipeline(acc))

    def test_single_chip_is_one_stage_without_stage_breaker(self, tiny_dims):
        worker = make_worker(dims=tiny_dims)
        assert len(worker.stages) == 1
        assert worker.stage_breakers == []
        assert worker.accelerators == [worker.acc]
        assert len(worker.managers) == 1

    def test_service_time_grows_with_batch(self, tiny_dims):
        worker = make_worker(dims=tiny_dims)
        t1, t8 = worker.service_time_s(1), worker.service_time_s(8)
        assert 0 < t1 < t8

    def test_execute_returns_batch_outputs(self, tiny_dims):
        worker = make_worker(dims=tiny_dims)
        out = worker.execute(np.zeros((3, tiny_dims[0])))
        assert out.shape == (3, tiny_dims[-1])
        assert worker.batches_executed == 1

    def test_degraded_worker_fails_instead_of_serving_garbage(self, tiny_dims):
        worker = make_worker(dims=tiny_dims)
        worker.degrade(0.3, stuck_level=254)
        assert not worker.healthy
        with pytest.raises(WorkerFault):
            worker.execute(np.zeros((2, tiny_dims[0])))
        assert worker.batches_failed == 1

    def test_bank_health_reads_follow_degrade_and_repair(self, tiny_dims):
        worker = make_worker(dims=tiny_dims)

        def assert_fresh():
            for acc in worker.accelerators:
                for pe in acc.pes:
                    mask = pe.bank.last_converged
                    want = 0.0 if mask is None else float(1.0 - mask.mean())
                    assert pe.bank.unconverged_fraction == want

        assert worker.healthy
        assert_fresh()
        worker.degrade(0.3, stuck_level=254)
        assert not worker.healthy
        assert_fresh()
        assert worker.repair()
        assert worker.healthy
        assert_fresh()

    def test_repair_restores_health(self, tiny_dims):
        worker = make_worker(dims=tiny_dims)
        worker.degrade(0.2, stuck_level=254)
        assert not worker.healthy
        assert worker.repair()
        assert worker.healthy
        # Post-migration the abandoned PE's stale readback must not count.
        assert worker.unconverged_fraction == 0.0
        out = worker.execute(np.zeros((2, tiny_dims[0])))
        assert out.shape == (2, tiny_dims[-1])

    @pytest.mark.parametrize("seed", [65, 377, 1182])
    def test_built_worker_passes_its_own_health_gate(self, seed):
        # At these seeds the first deploy leaves 3-5% of a bank's cells
        # unconverged, each within the repair ladder's error budget: the
        # deploy must repair to the gate execute() applies, or the worker
        # fails every batch and no later repair sweep can restore it.
        dims = (12, 16, 4)
        worker = make_worker(dims=dims, seed=seed)
        assert worker.healthy
        assert worker.managers[0].log.retries >= 1
        out = worker.execute(np.zeros((2, dims[0])))
        assert out.shape == (2, dims[-1])


# ---------------------------------------------------------------------------
def priced_s(worker, batch):
    """A worker's service time priced afresh from its live mapping.

    A layer's reduction tiles are its distinct column ranges, so a repair
    that changed their count would show here.
    """
    arch = PhotonicArch.trident(worker.accelerators[0].config)
    total = 0.0
    for stage in worker.pipeline.stages:
        tiles = [
            len({tile[2:4] for tile in layer.tiles})
            for layer in stage.parts[0].layers
        ]
        total += forward_batch_latency_s(
            arch, tiles, batch, overhead_s=DISPATCH_OVERHEAD_S
        )
    return total


def shuffled_sizes(seed):
    """Batch sizes 1..64, each twice, in a seeded shuffled order."""
    sizes = list(range(1, 65)) * 2
    np.random.default_rng(seed).shuffle(sizes)
    return sizes


class TestServiceTimeTable:
    """The tabulated service time equals a fresh cost-model pricing."""

    @pytest.mark.parametrize(
        "build, degrade",
        [
            (lambda: make_worker(), {"fraction": 0.2}),
            (
                lambda: build_integrity_worker(0, (12, 16, 4), 3),
                {"fraction": 0.2},
            ),
            (
                lambda: build_pipeline_worker(ShardWorkloadConfig(), overlap=True),
                {"fraction": 0.04, "stage": 1},
            ),
        ],
        ids=["single-chip", "integrity", "sharded"],
    )
    def test_exact_and_priced_once(self, build, degrade, monkeypatch):
        worker = build()
        if "stage" in degrade:
            assert len(worker.stages) >= 2
        priced = []

        def counting(arch, tiles, batch, overhead_s):
            priced.append(batch)
            return forward_batch_latency_s(arch, tiles, batch, overhead_s)

        monkeypatch.setattr(worker_module, "forward_batch_latency_s", counting)
        for b in shuffled_sizes(0):
            assert worker.service_time_s(b) == priced_s(worker, b)
        assert sorted(priced) == sorted(list(range(1, 65)) * len(worker.stages))
        pes = [tile[4] for acc in worker.accelerators for layer in acc.layers
               for tile in layer.tiles]
        worker.degrade(stuck_level=254, **degrade)
        assert worker.repair()
        # The repair remapped tiles onto other PEs.
        assert pes != [tile[4] for acc in worker.accelerators
                       for layer in acc.layers for tile in layer.tiles]
        for b in shuffled_sizes(1):
            assert worker.service_time_s(b) == priced_s(worker, b)

    def test_pool_clone_matches_template(self):
        pool = WorkerPool((6, 4), seed=3)
        template, clone = pool.make_worker(0), pool.make_worker(1)
        expected = {b: template.service_time_s(b) for b in shuffled_sizes(2)}
        for b in shuffled_sizes(3):
            assert clone.service_time_s(b) == expected[b] == priced_s(clone, b)


# ---------------------------------------------------------------------------
class TestTridentServer:
    def serve(self, arrivals, n_workers=1, dims=(6, 4), **config_kw):
        workers = [make_worker(i, dims, seed=3 + i) for i in range(n_workers)]
        config_kw.setdefault("max_queue_depth", 8)
        config_kw.setdefault("max_batch", 4)
        config_kw.setdefault("slo_latency_s", 1e-4)
        server = TridentServer(workers, config=ServerConfig(**config_kw))
        return server.run(arrivals), server

    def test_light_load_completes_everything(self):
        arrivals = [req(i, i * 1e-5, n_in=6) for i in range(6)]
        report, _ = self.serve(arrivals)
        assert report.conservation_ok()
        assert len(report.completed) == 6 and not report.shed
        assert all(isinstance(c, CompletedRequest) for c in report.completed)
        assert all(c.latency_s > 0 for c in report.completed)

    def test_outputs_match_request_order_not_dispatch_order(self):
        arrivals = [
            req(0, 0.0, priority=0, n_in=6),
            req(1, 1e-9, priority=2, n_in=6),
        ]
        report, _ = self.serve(arrivals)
        by_id = {c.request.request_id: c for c in report.completed}
        assert set(by_id) == {0, 1}

    def test_queue_full_sheds_structured_rejection(self):
        # Best-effort flood far beyond the queue bound, all at t~0.
        arrivals = [req(i, i * 1e-12, n_in=6) for i in range(30)]
        report, _ = self.serve(arrivals, max_queue_depth=2, max_batch=2)
        assert report.conservation_ok()
        full = [r for r in report.shed if r.reason is ShedReason.QUEUE_FULL]
        assert full and all(isinstance(r, RejectedRequest) for r in full)
        assert all(r.detail for r in report.shed)

    def test_priority_eviction_under_overload(self):
        arrivals = [req(i, i * 1e-12, priority=0, n_in=6) for i in range(6)]
        arrivals.append(req(6, 7e-12, priority=2, n_in=6))
        report, _ = self.serve(arrivals, max_queue_depth=2, max_batch=2)
        evicted = [
            r for r in report.shed if r.reason is ShedReason.PRIORITY_EVICTED
        ]
        assert len(evicted) == 1
        assert evicted[0].request.priority == 0
        # The high-priority newcomer itself completes.
        assert 6 in {c.request.request_id for c in report.completed}

    def test_impossible_deadline_shed_at_admission(self):
        arrivals = [req(0, 0.0, deadline=1e-12, n_in=6)]
        report, _ = self.serve(arrivals)
        assert [r.reason for r in report.shed] == [
            ShedReason.DEADLINE_UNREACHABLE
        ]

    def test_unrepairable_worker_exhausts_retries_not_hangs(self):
        # One worker, no manager: degradation is permanent.
        worker = AcceleratorWorker(0, make_worker(0, (6, 4), seed=3).pipeline)
        worker.degrade(0.3, stuck_level=254)
        server = TridentServer(
            [worker],
            config=ServerConfig(
                max_queue_depth=8, max_batch=2, slo_latency_s=1e-4,
                max_retries=1, breaker_cooldown_s=1e-6,
            ),
        )
        report = server.run([req(i, 0.0, n_in=6) for i in range(3)])
        assert report.conservation_ok()
        assert not report.completed
        reasons = {r.reason for r in report.shed}
        assert reasons <= {ShedReason.RETRIES_EXHAUSTED, ShedReason.NO_WORKER}
        assert all(
            r.attempts <= server.config.max_retries + 1 for r in report.shed
        )

    def test_rejects_bad_fleet(self):
        worker = make_worker(0, (6, 4))
        with pytest.raises(ServingError):
            TridentServer([])
        with pytest.raises(ServingError):
            TridentServer([worker, worker])

    def test_rejects_duplicate_request_ids(self):
        worker = make_worker(0, (6, 4))
        server = TridentServer([worker])
        with pytest.raises(ServingError):
            server.run([req(0, 0.0, n_in=6), req(0, 1.0, n_in=6)])

    def test_config_validation(self):
        with pytest.raises(ServingError):
            ServerConfig(max_queue_depth=0)
        with pytest.raises(ServingError):
            ServerConfig(slo_latency_s=0.0)
        for name in ("slo_latency_s", "breaker_cooldown_s"):
            for value in (math.nan, math.inf):
                with pytest.raises(ConfigError, match=name):
                    ServerConfig(**{name: value})


# ---------------------------------------------------------------------------
class TestWorkloadAndSmoke:
    @pytest.fixture(scope="class")
    def runs(self):
        config = WorkloadConfig(
            phases=(
                Phase("warm", 150, 0.6),
                Phase("burst", 150, 2.0),
                Phase("drain", 250, 0.35),
            ),
        )
        return run_serve_workload(config), run_serve_workload(config)

    def test_smoke_checks_all_pass(self, runs):
        result = serve_gate(*runs)
        assert result.ok, result.failed()

    def test_breaker_arc_trip_repair_restore(self, runs):
        report = runs[0].report
        sequence = [
            (t["to"], t["reason"]) for t in report.breaker_transitions
        ]
        assert ("open", "failure_threshold") in sequence
        assert ("half_open", "cooldown_elapsed") in sequence
        assert ("closed", "probe_succeeded") in sequence

    def test_replay_outputs_bit_identical(self, runs):
        report, replay = (run.report for run in runs)
        assert report.decisions == replay.decisions
        assert len(report.completed) == len(replay.completed)
        for a, b in zip(report.completed, replay.completed):
            assert a.request.request_id == b.request.request_id
            assert np.array_equal(a.output, b.output)

    def test_shedding_skews_low_priority(self, runs):
        report = runs[0].report
        rates = shed_rate_by_priority(report)
        assert rates.get(0, 0.0) >= max(
            (rate for p, rate in rates.items() if p > 0), default=0.0
        )

    def test_report_dict_round_trips_to_json(self, runs):
        import json

        report = runs[0].report
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["conservation_ok"] is True
        assert payload["submitted"] == 550

    def test_sustainable_rate_positive(self, tiny_dims):
        workers = [make_worker(dims=tiny_dims)]
        assert sustainable_rate_hz(workers, 4) > 0

    def test_synthesize_arrivals_sorted_and_windowed(self):
        config = WorkloadConfig()
        rng = np.random.default_rng(0)
        arrivals, windows = synthesize_arrivals(config, 1e6, rng)
        times = [r.arrival_s for r in arrivals]
        assert times == sorted(times)
        assert set(windows) == {"warm", "burst", "drain"}
        assert windows["warm"][1] <= windows["burst"][0] + 1e-12


# ---------------------------------------------------------------------------
class TestServingTelemetry:
    def test_decisions_emit_counters_and_events(self):
        worker = make_worker(0, (6, 4))
        with telemetry.session() as t:
            server = TridentServer(
                [worker],
                config=ServerConfig(max_queue_depth=2, max_batch=2),
            )
            server.run([req(i, i * 1e-12, n_in=6) for i in range(10)])
        samples = telemetry.parse_prometheus_text(t.metrics.to_prometheus())
        assert samples["repro_requests_admitted_total"] > 0
        assert samples["repro_requests_completed_total"] > 0
        assert samples['repro_requests_shed_total{reason="queue_full"}'] > 0
        kinds = {e.kind for e in t.events.records}
        assert {"serve_admit", "serve_dispatch", "serve_complete",
                "serve_shed"} <= kinds

    def test_telemetry_never_perturbs_decisions(self):
        arrivals = [req(i, i * 1e-12, n_in=6) for i in range(10)]

        def go():
            server = TridentServer(
                [make_worker(0, (6, 4))],
                config=ServerConfig(max_queue_depth=2, max_batch=2),
            )
            return server.run(arrivals)

        with telemetry.session():
            instrumented = go()
        bare = go()
        assert instrumented.decisions == bare.decisions
        for a, b in zip(instrumented.completed, bare.completed):
            assert np.array_equal(a.output, b.output)


# ---------------------------------------------------------------------------
class TestBatcherDispatchPricing:
    """Regressions for should_dispatch: price *now*, clamp stale refills."""

    @staticmethod
    def service(batch):
        return 1.0 + 2.0 * batch

    def make_queue(self):
        q = AdmissionQueue(8)
        q.push(req(0, 0.0))
        return q

    def test_immediate_dispatch_priced_against_head_budget(self):
        b = MicroBatcher(max_batch=4, slo_latency_s=10.0)
        q = self.make_queue()
        # Head budget ends at 10; serving the singleton right now already
        # finishes at 8 + 3 = 11.  The old check ignored now_s and priced
        # only the refill path (0 + 5 = 5 <= 10), stalling the head past
        # its budget.
        assert b.should_dispatch(q, 8.0, next_refill_s=0.0,
                                 service_time_fn=self.service)

    def test_stale_refill_clamped_to_now(self):
        b = MicroBatcher(max_batch=4, slo_latency_s=10.0)
        q = self.make_queue()
        # The refill timestamp (2.0) is in the past at now=6.0.  Unclamped
        # it prices the grown batch at 2 + 5 = 7 <= 10 and keeps waiting;
        # clamped, waiting finishes at max(2, 6) + 5 = 11 > 10 → dispatch.
        assert b.should_dispatch(q, 6.0, next_refill_s=2.0,
                                 service_time_fn=self.service)

    def test_future_refill_inside_budget_still_waits(self):
        b = MicroBatcher(max_batch=4, slo_latency_s=10.0)
        q = self.make_queue()
        # Sanity: the fix must not make the batcher trigger-happy.  At
        # now=1 an immediate dispatch finishes at 4 and waiting for the
        # refill at 2 finishes at 7 — both inside the budget of 10.
        assert not b.should_dispatch(q, 1.0, next_refill_s=2.0,
                                     service_time_fn=self.service)


# ---------------------------------------------------------------------------
class TestEstimateBusyUntilZero:
    """Regression: busy-until-0.0 is *busy*, not idle (falsy coercion)."""

    def test_worker_free_at_zero_not_coerced_to_now(self):
        server = TridentServer([make_worker(0, (6, 4))],
                               config=ServerConfig())
        serving = server._serving_workers()
        server._busy_until[0] = 0.0  # a dispatch issued at clock start
        assert server._earliest_free_s(serving) == 0.0
        server._busy_until[0] = None
        server._earliest_free = None  # what a completion does
        assert server._earliest_free_s(serving) == -math.inf

    def test_t0_admission_estimate_matches_idle(self):
        server = TridentServer([make_worker(0, (6, 4))],
                               config=ServerConfig(max_batch=2))
        idle = server._estimate_completion_s(0.0)
        assert np.isfinite(idle)
        server._busy_until[0] = 0.0
        assert server._estimate_completion_s(0.0) == idle

    def test_t0_deadline_admission_not_spuriously_shed(self):
        worker = make_worker(0, (6, 4))
        server = TridentServer([worker], config=ServerConfig(max_batch=2))
        deadline = 2.0 * worker.service_time_s(1)
        report = server.run([req(0, 0.0, deadline=deadline, n_in=6)])
        assert report.completion_rate == 1.0
        assert not report.shed


# ---------------------------------------------------------------------------
class TestDrainingBreakerNoHang:
    """Regression: an OPEN breaker on a draining worker never probes.

    Dispatch skips a draining worker before it polls the breaker, so the
    idle loop must not wait on that breaker's probe instant (it used to
    spin forever with the clock parked there).
    """

    @staticmethod
    def trip(worker_id, drain=False):
        def action(server):
            server.breakers[worker_id].trip(server.clock.now(), "test")
            if drain:
                server.begin_drain(worker_id)

        return action

    @staticmethod
    def arrivals():
        return [req(i, 3e-6 + i * 1e-7, n_in=6) for i in range(5)]

    def test_probe_comes_from_the_serving_worker(self, hang_guard):
        workers = [make_worker(i, (6, 4), seed=3 + i) for i in range(2)]
        server = TridentServer(
            workers, config=ServerConfig(breaker_cooldown_s=2e-5)
        )
        server.schedule_action(1e-6, "trip_drain_1", self.trip(1, drain=True))
        server.schedule_action(2e-6, "trip_0", self.trip(0))
        with hang_guard():
            report = server.run(self.arrivals())
        assert len(report.completed) == 5 and not report.shed
        assert {c.worker_id for c in report.completed} == {0}
        assert min(c.dispatch_s for c in report.completed) == pytest.approx(
            22e-6
        )

    def test_lone_draining_worker_sheds_no_worker(self, hang_guard):
        server = TridentServer(
            [make_worker(0, (6, 4))],
            config=ServerConfig(breaker_cooldown_s=2e-5),
        )
        server.schedule_action(1e-6, "trip_drain_0", self.trip(0, drain=True))
        with hang_guard():
            report = server.run(self.arrivals())
        assert report.shed_by_reason() == {"no_worker": 5}
        assert report.conservation_ok()

"""Tests for multi-accelerator sharding (repro.sharding) and its serving
worker (repro.serving.sharded): planner correctness, bit-identical
pipeline execution, conserved accounting, overlap scheduling, and
stage-fault atomicity."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.arch import TridentAccelerator, TridentConfig
from repro.devices.program_verify import ProgramVerifyConfig
from repro.errors import (
    MappingError,
    ServingError,
    ShardingError,
    WorkerFault,
)
from repro.serving import (
    AcceleratorWorker,
    InferenceRequest,
    ServerConfig,
    ShardedWorker,
    TridentServer,
)
from repro.serving.shard_workload import (
    ShardWorkloadConfig,
    build_pipeline_worker,
    build_reference_accelerator,
    makespan_s,
    run_shard_workload,
)
from repro.sharding import (
    build_pipeline,
    layer_tile_count,
    plan_from_cuts,
    plan_pipeline,
    reduction_tile_count,
    slice_stage_weights,
)

SHARD = TridentConfig(n_pes=8, bank_rows=8, bank_cols=8)
DETERMINISTIC_PV = ProgramVerifyConfig(write_std_levels=0.0, read_std_levels=0.0)


def make_weights(dims, seed=0, sigma=0.6):
    rng = np.random.default_rng(seed)
    return [
        rng.normal(0.0, sigma, (dims[i + 1], dims[i]))
        for i in range(len(dims) - 1)
    ]


def run(pipe, xs):
    """Forward a batch through the loop serving runs a pipeline with."""
    return AcceleratorWorker(0, pipe).execute(xs)


def make_reference(dims, weights, config=SHARD, program_verify=None):
    """One big accelerator with the same bank geometry as the shards."""
    import dataclasses

    total = sum(
        layer_tile_count(o, i, config.bank_rows, config.bank_cols)
        for i, o in zip(dims[:-1], dims[1:])
    )
    big = dataclasses.replace(config, n_pes=total)
    acc = TridentAccelerator(config=big, program_verify=program_verify)
    acc.map_mlp(list(dims))
    acc.set_weights(weights)
    return acc


# ---------------------------------------------------------------------------
class TestPlanner:
    def test_tile_helpers(self):
        assert layer_tile_count(32, 8, 8, 8) == 4
        assert layer_tile_count(9, 9, 8, 8) == 4
        assert reduction_tile_count(8, 8) == 1
        assert reduction_tile_count(9, 8) == 2

    def test_minimal_stage_count_and_capacity(self):
        plan = plan_pipeline([8, 32, 32, 8], SHARD)
        assert plan.n_stages == 3
        for stage in plan.stages:
            if not stage.row_sharded:
                assert stage.n_tiles <= SHARD.n_pes

    def test_stages_cover_layers_contiguously(self):
        plan = plan_pipeline([8, 32, 32, 8], SHARD)
        bounds = [(s.layer_start, s.layer_stop) for s in plan.stages]
        assert bounds[0][0] == 0 and bounds[-1][1] == 3
        for (_, stop), (start, _) in zip(bounds[:-1], bounds[1:]):
            assert stop == start

    def test_wide_layer_row_sharded_at_bank_boundaries(self):
        plan = plan_pipeline([8, 128], SHARD)
        (stage,) = plan.stages
        assert stage.row_sharded and stage.n_parts == 2
        for r0, r1 in stage.row_splits:
            assert r0 % SHARD.bank_rows == 0
        assert stage.row_splits[0][1] == stage.row_splits[1][0]
        assert stage.row_splits[-1][1] == 128

    def test_unshardable_reduction_raises(self):
        # One row strip of a 128-wide input needs 16 reduction tiles > 8 PEs.
        with pytest.raises(ShardingError):
            plan_pipeline([128, 8], SHARD)

    def test_requested_stage_count_bounds(self):
        with pytest.raises(ShardingError):
            plan_pipeline([8, 32, 32, 8], SHARD, n_stages=2)  # below minimum
        with pytest.raises(ShardingError):
            plan_pipeline([8, 16, 8], SHARD, n_stages=3)  # more than layers

    def test_explicit_cuts_validate(self):
        plan = plan_from_cuts([8, 32, 32, 8], [1, 2], SHARD)
        assert [s.layer_start for s in plan.stages] == [0, 1, 2]
        with pytest.raises(ShardingError):
            plan_from_cuts([8, 32, 32, 8], [5], SHARD)
        with pytest.raises(ShardingError):
            plan_from_cuts([8, 32, 32, 8], [1, 1], SHARD)
        with pytest.raises(ShardingError):  # stage [0, 2) overflows a shard
            plan_from_cuts([8, 32, 32, 8], [2], SHARD)

    def test_latency_arithmetic(self):
        plan = plan_pipeline([8, 32, 32, 8], SHARD, batch=4)
        n = 7
        assert plan.pipeline_latency_s(n) == pytest.approx(
            plan.fill_s + (n - 1) * plan.bottleneck_s
        )
        assert plan.serialized_latency_s(n) == pytest.approx(n * plan.fill_s)
        assert plan.overlap_speedup(n) > 1.0
        with pytest.raises(ShardingError):
            plan.pipeline_latency_s(0)

    def test_plan_render_and_dict(self):
        plan = plan_pipeline([8, 32, 32, 8], SHARD)
        d = plan.as_dict()
        assert d["n_stages"] == 3 and len(d["stages"]) == 3
        assert "bottleneck" in plan.render()

    def test_rejects_degenerate_models(self):
        with pytest.raises(ShardingError):
            plan_pipeline([8], SHARD)
        with pytest.raises(ShardingError):
            plan_pipeline([8, 0], SHARD)
        with pytest.raises(ShardingError):
            plan_pipeline([8, 16], SHARD, batch=0)


# ---------------------------------------------------------------------------
class TestPipelineEquivalence:
    DIMS = [8, 32, 32, 8]

    def test_bit_identical_forward_batch(self):
        weights = make_weights(self.DIMS, seed=1)
        plan = plan_pipeline(self.DIMS, SHARD)
        pipe = build_pipeline(plan, weights, config=SHARD)
        ref = make_reference(self.DIMS, weights)
        xs = np.random.default_rng(2).uniform(-1, 1, (5, 8))
        assert np.array_equal(run(pipe, xs), ref.forward_batch(xs))

    def test_bit_identical_with_deterministic_verify(self):
        weights = make_weights(self.DIMS, seed=1)
        plan = plan_pipeline(self.DIMS, SHARD)
        pipe = build_pipeline(
            plan, weights, config=SHARD, program_verify=DETERMINISTIC_PV
        )
        ref = make_reference(
            self.DIMS, weights, program_verify=DETERMINISTIC_PV
        )
        xs = np.random.default_rng(3).uniform(-1, 1, (4, 8))
        assert np.array_equal(run(pipe, xs), ref.forward_batch(xs))

    def test_row_sharded_wide_layer_bit_identical(self):
        dims = [8, 128]
        weights = make_weights(dims, seed=4, sigma=1.0)
        plan = plan_pipeline(dims, SHARD)
        assert plan.stages[0].row_sharded
        pipe = build_pipeline(plan, weights, config=SHARD)
        ref = make_reference(dims, weights)
        xs = np.random.default_rng(5).uniform(-1, 1, (3, 8))
        assert np.array_equal(run(pipe, xs), ref.forward_batch(xs))

    def test_event_accounting_conserved(self):
        weights = make_weights(self.DIMS, seed=1)
        plan = plan_pipeline(self.DIMS, SHARD)
        pipe = build_pipeline(plan, weights, config=SHARD)
        ref = make_reference(self.DIMS, weights)
        xs = np.random.default_rng(6).uniform(-1, 1, (5, 8))
        run(pipe, xs)
        ref.forward_batch(xs)
        got = pipe.counters().as_dict()
        want = ref.counters.as_dict()
        for key in ("bank_writes", "cells_written", "symbols",
                    "activation_events"):
            assert got[key] == want[key], key
        assert sum(acc.energy_estimate_j() for acc in pipe.accelerators) == (
            pytest.approx(ref.energy_estimate_j(), rel=1e-12)
        )
        assert sum(acc.time_estimate_s() for acc in pipe.accelerators) == (
            pytest.approx(ref.time_estimate_s(), rel=1e-12)
        )

    def test_checkpoint_roundtrip_preserves_outputs(self):
        """Each accelerator's own snapshot restores its part of the pipe."""
        weights = make_weights(self.DIMS, seed=1)
        plan = plan_pipeline(self.DIMS, SHARD)
        pipe = build_pipeline(plan, weights, config=SHARD)
        xs = np.random.default_rng(7).uniform(-1, 1, (4, 8))
        expected = run(pipe, xs)
        restored = build_pipeline(plan, weights, config=SHARD)
        for acc, source in zip(restored.accelerators, pipe.accelerators):
            acc.load_state_dict(source.state_dict())
        assert np.array_equal(run(restored, xs), expected)

    def test_weight_scale_override_guard(self):
        acc = TridentAccelerator(config=SHARD)
        acc.map_mlp([8, 8])
        w = np.full((8, 8), 2.0)
        with pytest.raises(MappingError):
            acc.set_weights([w], weight_scales=[1.5])  # below the peak

    def test_slice_stage_weights_validates(self):
        plan = plan_pipeline(self.DIMS, SHARD)
        with pytest.raises(ShardingError):
            slice_stage_weights(plan, make_weights([8, 16, 8]))


# ---------------------------------------------------------------------------
class TestShardingProperties:
    """Hypothesis: any valid cut is bit-identical and conserves events."""

    PROP = TridentConfig(n_pes=64, bank_rows=4, bank_cols=4)

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        dims=st.lists(st.integers(2, 10), min_size=2, max_size=4),
        cut_bits=st.integers(0, 7),
        batch=st.integers(1, 3),
        seed=st.integers(0, 2**16),
        with_verify=st.booleans(),
        trace=st.booleans(),
        checkpoint=st.booleans(),
    )
    def test_any_valid_cut_is_equivalent(
        self, dims, cut_bits, batch, seed, with_verify, trace, checkpoint
    ):
        n_layers = len(dims) - 1
        cuts = [
            k for k in range(1, n_layers) if cut_bits & (1 << (k - 1))
        ]
        plan = plan_from_cuts(dims, cuts, self.PROP)
        weights = make_weights(dims, seed=seed, sigma=0.8)
        pv = DETERMINISTIC_PV if with_verify else None
        pipe = build_pipeline(
            plan, weights, config=self.PROP, program_verify=pv
        )
        ref = make_reference(
            dims, weights, config=self.PROP, program_verify=pv
        )
        xs = np.random.default_rng(seed + 1).uniform(-1, 1, (batch, dims[0]))

        if checkpoint:
            snapshots = [acc.state_dict() for acc in pipe.accelerators]
            pipe = build_pipeline(
                plan, weights, config=self.PROP, program_verify=pv
            )
            for acc, snapshot in zip(pipe.accelerators, snapshots):
                acc.load_state_dict(snapshot)

        pipe_before = pipe.counters().as_dict()
        ref_before = ref.counters.as_dict()
        if trace:
            with telemetry.session():
                got = run(pipe, xs)
        else:
            got = run(pipe, xs)
        want = ref.forward_batch(xs)
        assert np.array_equal(got, want)

        # Forward-pass event deltas conserve exactly regardless of how
        # the pipeline was (re)programmed or restored.
        pipe_after = pipe.counters().as_dict()
        ref_after = ref.counters.as_dict()
        for key in ("symbols", "activation_events"):
            assert (
                pipe_after[key] - pipe_before[key]
                == ref_after[key] - ref_before[key]
            ), key
        if not checkpoint:
            for key in ("bank_writes", "cells_written"):
                assert pipe_after[key] == ref_after[key], key
            assert sum(acc.energy_estimate_j() for acc in pipe.accelerators) == (
                pytest.approx(ref.energy_estimate_j(), rel=1e-9)
            )


# ---------------------------------------------------------------------------
class TestShardedWorkerScheduling:
    CFG = ShardWorkloadConfig()

    def test_flow_shop_overlap_times(self):
        worker = build_pipeline_worker(self.CFG, overlap=True)
        b = self.CFG.server.max_batch
        stage_times = [s.service_time_s(b) for s in worker.stages]
        fill = sum(stage_times)
        ingest0, finish0 = worker.dispatch_times_s(0.0, b)
        assert finish0 == pytest.approx(fill)
        assert ingest0 == pytest.approx(stage_times[0])
        # Second batch enters the moment stage 0 frees; the flow-shop
        # recurrence then gives the classic fill + bottleneck finish.
        ingest1, finish1 = worker.dispatch_times_s(ingest0, b)
        assert finish1 > finish0
        assert finish1 == pytest.approx(fill + max(stage_times))
        assert ingest1 == pytest.approx(2 * stage_times[0])

    def test_serialized_holds_pipe_exclusive(self):
        worker = build_pipeline_worker(self.CFG, overlap=False)
        b = self.CFG.server.max_batch
        fill = worker.service_time_s(b)
        ingest, finish = worker.dispatch_times_s(0.0, b)
        assert ingest == finish == pytest.approx(fill)
        ingest2, finish2 = worker.dispatch_times_s(finish, b)
        assert finish2 == pytest.approx(2 * fill)
        assert ingest2 == finish2

    def test_service_time_is_pipeline_fill(self):
        worker = build_pipeline_worker(self.CFG, overlap=True)
        b = 4
        assert worker.service_time_s(b) == pytest.approx(
            sum(s.service_time_s(b) for s in worker.stages)
        )

    def test_degraded_stage_fails_batch_atomically(self):
        worker = build_pipeline_worker(self.CFG, overlap=True)
        xs = np.random.default_rng(0).uniform(-1, 1, (4, self.CFG.dims[0]))
        worker.execute(xs)  # healthy baseline
        executed_before = worker.batches_executed
        worker.degrade(0.08, stuck_level=254, stage=1)
        assert not worker.healthy
        with pytest.raises(WorkerFault) as excinfo:
            worker.execute(xs)
        assert "stage 1" in str(excinfo.value)
        assert worker.batches_executed == executed_before
        assert worker.batches_failed == 1

    def test_repair_restores_health_and_outputs(self):
        worker = build_pipeline_worker(self.CFG, overlap=True)
        reference = build_reference_accelerator(self.CFG)
        xs = np.random.default_rng(1).uniform(-1, 1, (4, self.CFG.dims[0]))
        expected = reference.forward_batch(xs)
        assert np.array_equal(worker.execute(xs), expected)
        worker.degrade(0.04, stuck_level=254, stage=1)
        with pytest.raises(WorkerFault):
            worker.execute(xs)
        assert worker.repair()
        assert worker.healthy
        assert np.array_equal(worker.execute(xs), expected)

    def test_stage_manager_count_validated(self):
        worker = build_pipeline_worker(self.CFG, overlap=True)
        with pytest.raises(ServingError):
            ShardedWorker(1, worker.pipeline, stage_managers=[[]])


# ---------------------------------------------------------------------------
class TestShardServing:
    """Integration: the server drives a sharded worker end to end."""

    CFG = ShardWorkloadConfig(n_requests=96)

    def test_serves_capacity_infeasible_model_bit_identically(self):
        report = run_shard_workload(self.CFG, overlap=True).report
        assert report.conservation_ok()
        assert report.completion_rate == 1.0
        reference = build_reference_accelerator(self.CFG)
        groups = {}
        for c in report.completed:
            groups.setdefault((c.dispatch_s, c.finish_s), []).append(c)
        for batch in groups.values():
            xs = np.stack([c.request.x for c in batch])
            expected = reference.forward_batch(xs)
            for i, c in enumerate(batch):
                assert np.array_equal(np.asarray(c.output), expected[i])

    def test_overlap_beats_serialized(self):
        """On the full 240-request burst both schedules complete every
        request and overlap is at least 1.2x faster (virtual clock, so the
        bar is deterministic)."""
        config = ShardWorkloadConfig()
        overlap_report = run_shard_workload(config, overlap=True).report
        serial_report = run_shard_workload(config, overlap=False).report
        assert overlap_report.completion_rate == 1.0
        assert serial_report.completion_rate == 1.0
        assert 0.0 < makespan_s(overlap_report)
        assert makespan_s(serial_report) >= 1.2 * makespan_s(overlap_report)

    def test_overlap_keeps_multiple_batches_in_flight(self):
        server = run_shard_workload(self.CFG, overlap=True).server
        dispatches = [
            d for d in server.decisions if d["kind"] == "dispatch"
        ]
        completes = [
            d for d in server.decisions if d["kind"] == "complete"
        ]
        # Some dispatch must happen strictly between another batch's
        # dispatch and completion — overlap in the decision log itself.
        in_flight = 0
        max_in_flight = 0
        for d in server.decisions:
            if d["kind"] == "dispatch":
                in_flight += 1
                max_in_flight = max(max_in_flight, in_flight)
            elif d["kind"] in ("complete", "batch_failed"):
                in_flight -= 1
        assert dispatches and completes
        assert max_in_flight >= 2

    def test_stage_fault_trips_drains_and_recovers(self):
        run = run_shard_workload(self.CFG, overlap=True, degrade=True)
        report = run.report
        assert report.conservation_ok()
        stage_events = run.workers[0].stage_breaker_transitions
        assert any(
            t["to"] == "open" and t["stage"] == self.CFG.degrade_stage
            for t in stage_events
        )
        assert any(
            t["to"] == "closed" and t["stage"] == self.CFG.degrade_stage
            for t in stage_events
        )
        assert any(t["to"] == "open" for t in report.breaker_transitions)

    def test_replay_is_bit_identical(self):
        first = run_shard_workload(self.CFG, overlap=True, degrade=True).report
        second = run_shard_workload(self.CFG, overlap=True, degrade=True).report
        assert first.decisions == second.decisions

    def test_stage_spans_emitted(self):
        small = ShardWorkloadConfig(n_requests=24)
        with telemetry.session() as t:
            run_shard_workload(small, overlap=True)
        names = {r.name for r in t.tracer.records}
        assert "shard_stage" in names
        assert "serve_batch" in names

    def test_plain_worker_dispatch_unchanged(self):
        """A one-stage worker still serves exactly as before the overlap
        plumbing (ingest-free == finish, one batch in flight)."""
        from repro.serving import build_worker

        worker = build_worker(0, (6, 4), seed=3)
        ingest, finish = worker.dispatch_times_s(2.0, 4)
        assert ingest == finish == pytest.approx(2.0 + worker.service_time_s(4))
        server = TridentServer([worker], config=ServerConfig(max_batch=4))
        arrivals = [
            InferenceRequest(
                request_id=i,
                x=np.zeros(6),
                arrival_s=i * 1e-7,
                deadline_s=None,
                priority=0,
            )
            for i in range(12)
        ]
        report = server.run(arrivals)
        assert report.completion_rate == 1.0
        in_flight = 0
        for d in server.decisions:
            if d["kind"] == "dispatch":
                in_flight += 1
                assert in_flight == 1
            elif d["kind"] in ("complete", "batch_failed"):
                in_flight -= 1

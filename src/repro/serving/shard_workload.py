"""The ``repro shard --smoke`` workload: serve a too-big model, audited.

The scenario is the sharding tentpole end to end: a model whose tile
count exceeds one shard-sized accelerator (provably — the smoke gate
first tries the single-chip mapping and requires the
:class:`~repro.errors.MappingError`), planned into a >= 2 stage pipeline
by the cost model, served by one :class:`~repro.serving.sharded.
ShardedWorker` on the virtual clock.  :func:`shard_gate` runs the shared
:mod:`repro.chaos.audit` invariants over the stage-fault run and its
replay, and adds the properties that make sharding trustworthy rather
than merely plausible:

- every completed output is **bit-identical** to a single large
  reference accelerator running the same model (deterministic
  program-verify on both sides) — including requests completed *after*
  a mid-run stage degradation was repaired;
- pipeline **overlap beats serialized** stage execution on the same
  arrival schedule (makespan strictly smaller with batches in flight
  concurrently);
- a degraded stage **drains cleanly**: its breaker (and the server's)
  trips, in-flight batches fail atomically into retries — never partial
  outputs — and repair wins the pipeline back through the half-open
  window;
- per-stage **event accounting is conserved** vs the reference (forward
  deltas of symbols/activations match exactly).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import MappingError, ServingError
from repro.serving.request import InferenceRequest
from repro.serving.server import (
    ServeReport,
    ServerConfig,
    ServeRun,
    TridentServer,
    serve_run,
)
from repro.serving.sharded import ShardedWorker, build_sharded_worker
from repro.sharding import ShardPlan, plan_pipeline


@dataclass(frozen=True)
class ShardWorkloadConfig:
    """Shape of the sharded smoke run."""

    #: Model widths — must overflow one shard (the gate checks it does).
    dims: tuple[int, ...] = (8, 24, 16, 4)
    #: Shard geometry: per-chip PE budget and bank size.
    shard_n_pes: int = 6
    bank_rows: int = 8
    bank_cols: int = 8
    #: Spare rows per bank plus spare PEs per chip — repair headroom.
    spare_rows: int = 4
    spare_pes: int = 4
    seed: int = 11
    #: Burst of best-effort requests (no deadlines, so the overlap vs
    #: serialized makespans compare the same completed set).
    n_requests: int = 240
    arrival_window_s: float = 4e-6
    #: Mid-run fault: stuck-cell fraction, target stage, injection time.
    degrade_fraction: float = 0.04
    degrade_stage: int = 1
    degrade_at_s: float = 8e-6
    #: Stage-breaker cooldown (shorter than the server's, so a repaired
    #: stage is probeable by the time the server's half-open window runs).
    stage_cooldown_s: float = 2.5e-6
    server: ServerConfig = ServerConfig(
        max_queue_depth=512, max_retries=5, breaker_cooldown_s=5e-6, seed=11
    )

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ServingError(
                f"dims must be >= 2 positive widths, got {self.dims}"
            )
        if self.n_requests < 1:
            raise ServingError(
                f"n_requests must be >= 1, got {self.n_requests}"
            )
        if not 0.0 < self.degrade_fraction < 1.0:
            raise ServingError("degrade fraction must be in (0, 1)")

    def shard_config(self):
        """The per-chip configuration the planner budgets against."""
        from repro.arch.config import TridentConfig

        return TridentConfig(
            n_pes=self.shard_n_pes,
            bank_rows=self.bank_rows,
            bank_cols=self.bank_cols,
            spare_rows=self.spare_rows,
            convergence_floor=0.0,
        )

    def deterministic_verify(self):
        """Zero-sigma program-verify: fault detection, exact levels."""
        from repro.devices.program_verify import ProgramVerifyConfig

        return ProgramVerifyConfig(write_std_levels=0.0, read_std_levels=0.0)


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def model_weights(config: ShardWorkloadConfig) -> list[np.ndarray]:
    """The seeded model the run serves (:func:`~repro.scenarios.seeded_weights`)."""
    from repro.scenarios import seeded_weights

    return seeded_weights(config.dims, config.seed)


def single_shard_mapping_error(config: ShardWorkloadConfig) -> str | None:
    """The MappingError message a one-shard mapping raises (None = fits)."""
    from repro.arch import TridentAccelerator

    acc = TridentAccelerator(config=config.shard_config())
    try:
        acc.map_mlp(list(config.dims))
    except MappingError as error:
        return str(error)
    return None


def plan_workload(config: ShardWorkloadConfig) -> ShardPlan:
    """Cost-model plan for the workload model on the shard geometry."""
    return plan_pipeline(
        config.dims, config.shard_config(), batch=config.server.max_batch
    )


def build_reference_accelerator(config: ShardWorkloadConfig):
    """One large single-chip accelerator serving the same model exactly.

    Same bank geometry and deterministic program-verify as the shards,
    just enough PEs to hold the whole model — the bit-identity oracle.
    """
    import dataclasses

    from repro.arch import TridentAccelerator
    from repro.sharding.planner import layer_tile_count

    shard_cfg = config.shard_config()
    total_tiles = sum(
        layer_tile_count(o, i, config.bank_rows, config.bank_cols)
        for i, o in zip(config.dims[:-1], config.dims[1:])
    )
    big = dataclasses.replace(shard_cfg, n_pes=total_tiles)
    acc = TridentAccelerator(
        config=big,
        seed=config.seed,
        program_verify=config.deterministic_verify(),
    )
    acc.map_mlp(list(config.dims))
    acc.set_weights(model_weights(config))
    return acc


def build_pipeline_worker(
    config: ShardWorkloadConfig, overlap: bool
) -> ShardedWorker:
    """The sharded worker under test (fault managers attached)."""
    return build_sharded_worker(
        0,
        plan_workload(config),
        model_weights(config),
        config=config.shard_config(),
        overlap=overlap,
        seed=config.seed,
        program_verify=config.deterministic_verify(),
        with_managers=True,
        spare_pes=config.spare_pes,
        stage_cooldown_s=config.stage_cooldown_s,
    )


def synthesize_shard_arrivals(
    config: ShardWorkloadConfig,
) -> list[InferenceRequest]:
    """A seeded burst of best-effort requests inside the arrival window."""
    rng = np.random.default_rng(config.seed + 2)
    times = np.sort(rng.uniform(0.0, config.arrival_window_s, config.n_requests))
    return [
        InferenceRequest(
            request_id=i,
            x=rng.uniform(-1.0, 1.0, config.dims[0]),
            arrival_s=float(t),
            deadline_s=None,
            priority=0,
        )
        for i, t in enumerate(times)
    ]


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def run_shard_workload(
    config: ShardWorkloadConfig | None = None,
    *,
    overlap: bool = True,
    degrade: bool = False,
    chaos_plan=None,
) -> ServeRun:
    """Serve the burst on one sharded worker; optional mid-run stage
    fault, optional chaos plan (a plan, or a callable of the arrival
    span; see :func:`~repro.serving.server.serve_run`)."""
    config = config or ShardWorkloadConfig()
    worker = build_pipeline_worker(config, overlap)
    server = TridentServer([worker], config=config.server)
    arrivals = synthesize_shard_arrivals(config)
    if degrade:
        fraction = config.degrade_fraction
        stage = config.degrade_stage

        def force_stage_degradation(srv: TridentServer) -> None:
            srv.workers[0].degrade(fraction, stuck_level=254, stage=stage)

        server.schedule_action(
            config.degrade_at_s, "degrade_stage", force_stage_degradation
        )
    return serve_run(server, arrivals, chaos_plan)


def makespan_s(report: ServeReport) -> float:
    """First arrival to last completion (0 when nothing completed)."""
    if not report.completed:
        return 0.0
    start = min(c.request.arrival_s for c in report.completed)
    return max(c.finish_s for c in report.completed) - start


# ----------------------------------------------------------------------
# Smoke gate
# ----------------------------------------------------------------------
def outputs_bit_identical(
    config: ShardWorkloadConfig, report: ServeReport
) -> bool:
    """Every completed output equals the reference accelerator's, exactly.

    Compared batch for batch: completions are regrouped into the
    micro-batches they were dispatched in and each group is forwarded
    through the reference at the same width.  (BLAS accumulation order
    is only pinned per matrix width — a width-1 probe batch and a
    width-240 slab can legitimately differ in the last ULP — so
    "bit-identical to the single-accelerator path" means *the same
    batch* through one big chip, which is also what a request actually
    experiences.)
    """
    if not report.completed:
        return False
    reference = build_reference_accelerator(config)
    groups: dict[tuple, list] = {}
    for completion in report.completed:
        key = (completion.worker_id, completion.dispatch_s, completion.finish_s)
        groups.setdefault(key, []).append(completion)
    for batch in groups.values():
        xs = np.stack([c.request.x for c in batch])
        expected = reference.forward_batch(xs)
        if not all(
            np.array_equal(np.asarray(c.output), expected[i])
            for i, c in enumerate(batch)
        ):
            return False
    return True


def forward_accounting_conserved(config: ShardWorkloadConfig) -> bool:
    """One forward's event delta matches between pipeline and reference."""
    reference = build_reference_accelerator(config)
    worker = build_pipeline_worker(config, overlap=True)
    rng = np.random.default_rng(config.seed + 3)
    xs = rng.uniform(-1.0, 1.0, (config.server.max_batch, config.dims[0]))
    ref_before = reference.counters.snapshot()
    pipe_before = worker.pipeline.counters()
    out_ref = reference.forward_batch(xs)
    out_pipe = worker.execute(xs)
    ref_delta = reference.counters.diff(ref_before).as_dict()
    pipe_after = worker.pipeline.counters()
    pipe_delta = {
        key: pipe_after.as_dict()[key] - pipe_before.as_dict()[key]
        for key in pipe_before.as_dict()
    }
    # Every chip pays its own inference-mode entry; all *work* events
    # (writes, symbols, activations) must match the reference exactly.
    ref_delta.pop("mode_switches")
    pipe_delta.pop("mode_switches")
    return np.array_equal(out_ref, out_pipe) and ref_delta == pipe_delta


def shard_gate(config: ShardWorkloadConfig | None = None):
    """The ``repro shard --smoke`` verdict (an ``AuditResult``).

    The audit covers the stage-fault run against its replay; the overlap
    run's own audit folds into one check.
    """
    from repro.chaos.audit import audit_serve_run, record_breaker_arc

    config = config or ShardWorkloadConfig()
    plan = plan_workload(config)
    infeasible_msg = single_shard_mapping_error(config)
    overlap = run_shard_workload(config, overlap=True)
    serial = run_shard_workload(config, overlap=False)
    fault = run_shard_workload(config, degrade=True)
    replay = run_shard_workload(config, degrade=True)
    overlap_makespan = makespan_s(overlap.report)
    serial_makespan = makespan_s(serial.report)
    stage_transitions = [
        t["to"]
        for t in fault.workers[0].stage_breaker_transitions
        if t["stage"] == config.degrade_stage
    ]

    result = audit_serve_run(fault, replay=replay)
    result.record(
        "single_shard_overflow",
        infeasible_msg is not None,
        infeasible_msg or "the model fits one shard",
    )
    result.record(
        "stages_within_capacity",
        plan.n_stages >= 2
        and all(
            s.n_tiles <= plan.capacity_tiles or s.row_sharded
            for s in plan.stages
        ),
        f"{plan.n_stages} stages on {plan.n_accelerators} accelerators "
        f"of {plan.capacity_tiles} tiles, bottleneck "
        f"{plan.bottleneck_s * 1e6:.3f} us",
    )
    result.record_audit("overlap_run_audit", audit_serve_run(overlap))
    result.record(
        "overlap_run_completed",
        overlap.report.completion_rate == 1.0,
        f"{len(overlap.report.completed)}/{overlap.report.submitted}",
    )
    result.record(
        "overlap_reference_outputs",
        outputs_bit_identical(config, overlap.report),
        "bit-identical to the single-accelerator reference",
    )
    result.record(
        "reference_oracle_outputs",
        outputs_bit_identical(config, fault.report),
        "stage-fault run, bit-identical to the reference",
    )
    result.record(
        "forward_accounting_conserved",
        forward_accounting_conserved(config),
        "one forward's event deltas equal the reference's",
    )
    result.record(
        "overlap_beats_serialized",
        0.0 < overlap_makespan < serial_makespan,
        f"makespan {overlap_makespan * 1e6:.2f} vs "
        f"{serial_makespan * 1e6:.2f} us",
    )
    record_breaker_arc(result, fault.report)
    result.record(
        "stage_breaker_tripped",
        "open" in stage_transitions,
        f"stage {config.degrade_stage}",
    )
    result.record(
        "stage_breaker_restored",
        "closed" in stage_transitions,
        f"stage {config.degrade_stage}",
    )
    result.record(
        "retries_exercised",
        fault.report.retries_scheduled > 0,
        f"{fault.report.retries_scheduled} scheduled",
    )
    return result

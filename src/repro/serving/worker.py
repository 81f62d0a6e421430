"""The serving-side worker: one model on an ordered list of chip stages.

An :class:`AcceleratorWorker` serves a :class:`~repro.sharding.
ShardedPipeline` behind one worker id, so :class:`~repro.serving.server.
TridentServer` schedules it without knowing how many chips are behind
the id.  A single chip is the one-stage, one-part case
(:func:`~repro.sharding.single_chip_pipeline`); a model too big for one
chip is the multi-stage case the sharding planner cuts.  Every worker
contributes the same four things:

**Service time and the overlap schedule.**  Each stage prices a batch
with the dataflow cost model
(:func:`repro.dataflow.cost_model.forward_batch_latency_s`), which both
the micro-batcher and admission control trust.  ``dispatch_times_s``
runs the flow-shop recurrence over the stages' free times
(``start_k = max(done_{k-1}, free_k)``): the ingest-free instant it
returns is when stage 0 frees — before the batch leaves the last stage —
so the server can push batch i+1 into a multi-stage pipe while batch i
is still in flight.  With ``overlap=False`` the whole pipe is held per
batch, the serialized baseline the benchmark and smoke gate compare
against; a one-stage worker is exclusive for its whole service time
either way.  Scheduling is virtual-time arithmetic; the numpy work runs
at completion time, so determinism and the decision log are untouched.

**Health.**  Each stage's signal is the worst program-verify
``unconverged_fraction`` across its parts' active banks.  Health gates
execution: a degraded stage *fails* the batch rather than silently
serving garbage.

**Execution.**  ``execute`` runs ``forward_batch`` stage by stage on the
real functional engine, so served outputs carry the full
quantization/noise/fault physics and event accounting of any other
forward pass.  A gate failure abandons the batch whole: upstream stages
spent real symbols, but no partial or corrupt output reaches a
requester, and the server's retry/shed machinery takes over.

**Fault domains.**  Each stage's parts carry their
:class:`~repro.faults.FaultManager`\\ s, swept by ``repair`` in the
server's half-open window.  A worker with two or more stages also gives
every stage its own :class:`~repro.serving.breaker.CircuitBreaker`, so a
sick stage is quarantined and re-closed on its own.  A one-stage worker
has none: its only stage *is* the worker, which the server's breaker
already polices, and a second breaker would only add a cooldown of its
own to every repair.  Stage executions run in ``shard_stage`` trace
spans and stage breaker transitions emit ``shard_stage_breaker`` events.
"""

from __future__ import annotations

import numpy as np

from repro.chaos.session import (
    corrupt_output as _chaos_corrupt,
    crash_check as _chaos_crash,
)
from repro.dataflow.cost_model import (
    DISPATCH_OVERHEAD_S,
    PhotonicArch,
    forward_batch_latency_s,
)
from repro.errors import ChaosError, ServingError, WorkerFault
from repro.integrity.checker import attest_batch as _attest_batch
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.sharding.pipeline import PipelineStage, ShardedPipeline
from repro.sharding.planner import reduction_tile_count
from repro.telemetry.log import get_logger
from repro.telemetry.session import (
    counter as _metric_counter,
    emit_event as _emit_event,
    trace_span as _trace_span,
)

_log = get_logger("repro.serving.worker")

#: Worst program-verify non-convergence a stage may show and still serve.
UNHEALTHY_THRESHOLD = 0.02
#: Consecutive failed batches that open a stage breaker.
STAGE_FAILURE_THRESHOLD = 3


def _accelerator_unconverged(acc) -> float:
    """Worst verify non-convergence over one accelerator's active banks.

    Only PEs currently backing a mapped tile count: a migrate-tier repair
    abandons a worn PE in place, and its stale readback must not keep
    condemning a worker that no longer uses it.
    """
    active = {tile[4] for layer in acc.layers for tile in layer.tiles}
    fractions = [acc.pes[index].bank.unconverged_fraction for index in active]
    return max(fractions, default=0.0)


def rewrite_tiles(acc) -> None:
    """Reprogram every mapped data tile from the digital weight shadow."""
    for layer in acc.layers:
        for tile_index in range(len(layer.tiles)):
            acc.reprogram_tile(layer.index, tile_index)


def remap_manager(acc):
    """A remap-policy fault manager that repairs to serving's health gate.

    Serving declares a stage healthy only when *all* its active banks
    converge to within :data:`UNHEALTHY_THRESHOLD`, so the manager judges
    tiles by that same fraction (a tile inside the error budget but over
    the threshold would otherwise fail every batch with no repair left to
    run), and its migration budget covers every tile so a smaller one
    cannot strand the first degraded tile past it.
    """
    from repro.faults import FaultManager, RepairConfig

    n_tiles = sum(len(layer.tiles) for layer in acc.layers)
    return FaultManager(
        acc,
        config=RepairConfig(
            policy="remap",
            max_migrations=n_tiles,
            max_unconverged_fraction=UNHEALTHY_THRESHOLD,
        ),
    )


class StageRuntime:
    """One pipeline stage as the worker schedules and polices it."""

    def __init__(
        self,
        stage: PipelineStage,
        managers: list,
        breaker: CircuitBreaker | None,
        arch: PhotonicArch,
        name: str,
    ) -> None:
        self.stage = stage
        #: The parts' fault managers (parts without one are skipped).
        self.managers = [m for m in managers if m is not None]
        #: The stage's own breaker; None when the stage is the whole worker.
        self.breaker = breaker
        self.arch = arch
        #: How fault messages name this stage.
        self.name = name
        #: Column (reduction) tiles of the stage's member layers — row
        #: shards stream the same input concurrently, so the stage's
        #: latency is the plain layer-chain latency regardless of parts.
        cols = stage.parts[0].config.bank_cols
        self.reduction_tiles = tuple(
            reduction_tile_count(d, cols) for d in stage.spec.dims[:-1]
        )
        #: When this stage's hardware frees (flow-shop bookkeeping).
        self.free_s = 0.0

    @property
    def index(self) -> int:
        """Stage position in the pipeline."""
        return self.stage.spec.index

    def service_time_s(self, batch_size: int) -> float:
        """Cost-model latency of one batch through this stage."""
        return forward_batch_latency_s(
            self.arch,
            self.reduction_tiles,
            batch_size,
            overhead_s=DISPATCH_OVERHEAD_S,
        )

    @property
    def unconverged_fraction(self) -> float:
        """Worst verify non-convergence across the stage's parts."""
        return max(
            _accelerator_unconverged(acc) for acc in self.stage.parts
        )


class AcceleratorWorker:
    """One model on an ordered list of accelerator stages, one worker id."""

    def __init__(
        self,
        worker_id: int,
        pipeline: ShardedPipeline,
        stage_managers: "list[list] | None" = None,
        *,
        overlap: bool = True,
        stage_cooldown_s: float = 1e-5,
    ) -> None:
        for stage in pipeline.stages:
            for acc in stage.parts:
                if any(layer.weights is None for layer in acc.layers):
                    raise ServingError(
                        f"worker {worker_id} stage {stage.spec.index}: all "
                        "layers need programmed weights"
                    )
        if stage_managers is None:
            stage_managers = [[None] * len(s.parts) for s in pipeline.stages]
        if len(stage_managers) != len(pipeline.stages):
            raise ServingError(
                f"{len(stage_managers)} manager groups for "
                f"{len(pipeline.stages)} stages"
            )
        for stage, managers in zip(pipeline.stages, stage_managers):
            if len(managers) != len(stage.parts):
                raise ServingError(
                    f"stage {stage.spec.index}: {len(managers)} fault "
                    f"managers for {len(stage.parts)} parts"
                )
        self.worker_id = int(worker_id)
        self.pipeline = pipeline
        #: Every accelerator in pipeline order (stage-major, then part).
        self.accelerators = pipeline.accelerators
        #: Optional :class:`~repro.integrity.PipelineChecker` attesting
        #: every executed batch (per-part ABFT checksums + ladder); the
        #: integrity presets attach one after building the worker.
        self.integrity = None
        self.overlap = bool(overlap)
        self.batches_executed = 0
        self.batches_failed = 0
        #: Escalation count already covered by a scrub (see :meth:`repair`).
        self._scrubbed_escalations = 0
        self.stage_breaker_transitions: list[dict] = []
        self._clock = None
        arch = PhotonicArch.trident(self.accelerators[0].config)
        self.stages: list[StageRuntime] = []
        for stage, managers in zip(pipeline.stages, stage_managers):
            breaker, name = None, f"worker {self.worker_id}"
            if len(pipeline.stages) > 1:
                # A lone stage is the worker itself, which the server's
                # breaker already polices (see the module docstring).
                breaker = CircuitBreaker(
                    stage.spec.index,
                    failure_threshold=STAGE_FAILURE_THRESHOLD,
                    cooldown_s=stage_cooldown_s,
                    on_transition=self._on_stage_breaker_transition,
                )
                name = f"{name} stage {stage.spec.index}"
            self.stages.append(
                StageRuntime(stage, managers, breaker, arch, name)
            )
        #: Every fault manager, in pipeline order.
        self.managers = [m for s in self.stages for m in s.managers]
        #: The per-stage breakers (empty for a one-stage worker).
        self.stage_breakers = [
            s.breaker for s in self.stages if s.breaker is not None
        ]
        #: Batch size -> service time, filled on first use (see
        #: :meth:`service_time_s`).
        self._service_s: dict[int, float] = {}
        #: Everything :meth:`service_time_s` depends on: workers with
        #: equal keys price every batch size identically.
        self.price_key = (arch, tuple(s.reduction_tiles for s in self.stages))

    # ------------------------------------------------------------------
    # Structure / clock
    # ------------------------------------------------------------------
    @property
    def acc(self):
        """The accelerator of a single-chip worker."""
        if len(self.accelerators) != 1:
            raise ServingError(
                f"worker {self.worker_id} spans {len(self.accelerators)} "
                "accelerators; use .accelerators"
            )
        return self.accelerators[0]

    @property
    def input_dim(self) -> int:
        """Model input width this worker serves."""
        return self.pipeline.input_dim

    def bind_clock(self, clock) -> None:
        """Adopt the server's virtual clock.

        Chaos hook points timestamp their checks against the plan with
        it, and stage breakers their transitions.
        """
        self._clock = clock

    def _now(self) -> float:
        return self._clock.now() if self._clock is not None else 0.0

    def _on_stage_breaker_transition(self, now_s, stage_index, before, to, reason):
        record = {
            "t": now_s,
            "worker": self.worker_id,
            "stage": stage_index,
            "from": before.value,
            "to": to.value,
            "reason": reason,
        }
        self.stage_breaker_transitions.append(record)
        _emit_event("shard_stage_breaker", **record)
        _metric_counter(
            "repro_shard_stage_breaker_transitions_total", to=to.value
        ).inc()
        _log.info(
            "worker %d stage %d breaker: %s -> %s (%s)",
            self.worker_id, stage_index, before.value, to.value, reason,
        )

    # ------------------------------------------------------------------
    # Cost model / overlap schedule
    # ------------------------------------------------------------------
    def service_time_s(self, batch_size: int) -> float:
        """End-to-end (pipeline-fill) latency of one batch.

        The server prices batches on most events, so each batch size
        is priced once and tabulated.  The table is exact:
        arch, reduction tiles and dispatch overhead are fixed at
        construction, and degrade/repair/remap move tiles between PEs
        without changing any layer's column-tile count.
        """
        total = self._service_s.get(batch_size)
        if total is None:
            total = 0.0
            for runtime in self.stages:
                total += runtime.service_time_s(batch_size)
            self._service_s[batch_size] = total
        return total

    def dispatch_times_s(
        self, now_s: float, batch_size: int
    ) -> tuple[float, float]:
        """Flow-shop (ingest-free, finish) instants for a dispatch now.

        Walks the batch through the stages against their current free
        times: ``start_k = max(done_{k-1}, free_k)``.  With overlap the
        worker re-opens for ingest when stage 0 frees; serialized, it
        stays exclusive until the batch exits the last stage.  The
        server frees the worker for its next dispatch at the first
        instant and completes the batch at the second; for one stage
        both coincide.
        """
        done = now_s
        for runtime in self.stages:
            start = max(done, runtime.free_s)
            done = start + runtime.service_time_s(batch_size)
            runtime.free_s = done
        finish = done
        if not self.overlap:
            for runtime in self.stages:
                runtime.free_s = finish
            return finish, finish
        return self.stages[0].free_s, finish

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def unconverged_fraction(self) -> float:
        """Worst stage health signal (the pipeline is its sickest stage)."""
        return max(s.unconverged_fraction for s in self.stages)

    @property
    def healthy(self) -> bool:
        """True while every stage is within threshold and unquarantined."""
        return all(
            s.unconverged_fraction <= UNHEALTHY_THRESHOLD
            and (s.breaker is None or s.breaker.state is not BreakerState.OPEN)
            for s in self.stages
        )

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _fail(self, message: str) -> WorkerFault:
        self.batches_failed += 1
        return WorkerFault(message)

    def execute(self, xs: np.ndarray) -> np.ndarray:
        """Run one micro-batch stage by stage; fail atomically on a bad stage.

        Hook order, for every worker: an armed ``worker_crash`` fires at
        dispatch, before any physics; then each stage is gated — its
        breaker (when it has one) must allow traffic and its health
        signal must be within threshold — before its ``forward_batch``
        runs; an armed ``corrupt_output`` then poisons the drained
        outputs, a ``worker_crash`` may fire at drain, an attached
        :class:`~repro.integrity.PipelineChecker` ABFT-attests the batch
        (so the check sees exactly what a requester would), and the
        finite-output gate turns any NaN poison into a
        :class:`~repro.errors.WorkerFault`.  Every failure raises a
        ``WorkerFault`` (attestation escalations the retryable
        :class:`~repro.errors.IntegrityFault`), handing the requests
        back to the server.  With no chaos session active each hook is
        one global read; the hooks live here, not in ``forward_batch``,
        to keep the accelerator's hot loop untouched.
        """
        now = self._now()
        inputs = xs
        reason = _chaos_crash(self.worker_id, "dispatch", now)
        if reason is not None:
            raise self._fail(
                f"worker {self.worker_id} crashed at dispatch: {reason}"
            )
        record = self.integrity is not None
        for runtime in self.stages:
            breaker = runtime.breaker
            if breaker is not None and not breaker.allow(now):
                raise self._fail(
                    f"{runtime.name} quarantined (stage breaker open)"
                )
            fraction = runtime.unconverged_fraction
            if fraction > UNHEALTHY_THRESHOLD:
                if breaker is not None:
                    breaker.record_failure(now)
                raise self._fail(
                    f"{runtime.name} degraded: unconverged fraction "
                    f"{fraction:.3f} > {UNHEALTHY_THRESHOLD:.3f}"
                )
            with _trace_span(
                "shard_stage",
                worker=self.worker_id,
                stage=runtime.index,
                parts=len(runtime.stage.parts),
                batch=int(xs.shape[0]),
            ):
                xs = runtime.stage.forward_batch(xs, record=record)
            if breaker is not None:
                breaker.record_success(now)
        xs = _chaos_corrupt(self.worker_id, now, xs)
        reason = _chaos_crash(self.worker_id, "drain", now)
        if reason is not None:
            raise self._fail(
                f"worker {self.worker_id} crashed at drain: {reason}"
            )
        if self.integrity is not None:
            try:
                xs = _attest_batch(
                    self.integrity,
                    inputs,
                    xs,
                    worker_id=self.worker_id,
                    now_s=now,
                    managers=self.managers,
                )
            except WorkerFault:
                self.batches_failed += 1
                raise
        if not np.isfinite(xs).all():
            raise self._fail(
                f"worker {self.worker_id} output integrity check failed: "
                "non-finite values in batch output"
            )
        self.batches_executed += 1
        return xs

    # ------------------------------------------------------------------
    # Degradation / repair (the breakers' collaborators)
    # ------------------------------------------------------------------
    def degrade(
        self,
        fraction: float,
        stuck_level: int | None = None,
        rng=None,
        stage: int | None = None,
    ) -> int:
        """Inject stuck faults and refresh readback so health reflects them.

        Models a mid-run wear event on one stage (``stage``) or, with
        ``None``, on every stage.  The post-injection reprogram is what
        updates each bank's verify readback (and therefore
        ``unconverged_fraction``) — without program-verify the damage
        stays invisible and the worker keeps serving degraded.  An
        external ``rng`` (a chaos injection's derived stream) leaves the
        accelerators' own generators untouched.  Returns the number of
        newly stuck cells; a stage the worker lacks raises
        :class:`~repro.errors.ChaosError`.
        """
        if stage is None:
            targets = self.stages
        elif 0 <= stage < len(self.stages):
            targets = [self.stages[stage]]
        else:
            raise ChaosError(
                f"worker {self.worker_id} has {len(self.stages)} stage(s); "
                f"cannot degrade stage {stage}"
            )
        stuck = 0
        for runtime in targets:
            for acc in runtime.stage.parts:
                stuck += acc.inject_stuck_faults(
                    fraction, stuck_level=stuck_level, rng=rng
                )
                if acc.verify_writer is not None:
                    rewrite_tiles(acc)
        _log.warning(
            "%s degraded: %d stuck cells (health %.3f)",
            targets[0].name if len(targets) == 1 else f"worker {self.worker_id}",
            stuck,
            self.unconverged_fraction,
        )
        return stuck

    def degrade_stage(
        self,
        stage_index: int,
        fraction: float,
        stuck_level: int | None = None,
        rng=None,
    ) -> int:
        """:meth:`degrade` of one stage, under the name the shard-pipeline
        benchmark workload calls."""
        return self.degrade(fraction, stuck_level, rng, stage=stage_index)

    def repair(self) -> bool:
        """Walk the fault-repair ladder; True when every stage recovers.

        Runs during the server's half-open quarantine window.  Every
        stage's fault managers sweep; a stage breaker whose stage
        recovered and whose own cooldown has elapsed is walked OPEN ->
        HALF_OPEN -> CLOSED here (the sweep is the successful probe),
        while one still inside its cooldown stays open until a later
        window.  Without fault managers the worker cannot self-heal.
        """
        now = self._now()
        swept = False
        for runtime in self.stages:
            for manager in runtime.managers:
                manager.repair()
                swept = True
            breaker = runtime.breaker
            if (
                breaker is not None
                and breaker.state is not BreakerState.CLOSED
                and runtime.unconverged_fraction <= UNHEALTHY_THRESHOLD
                and breaker.allow(now)
            ):
                breaker.record_success(now)
        if self.integrity is not None:
            escalated = self.integrity.counters.escalated
            scrub = escalated > self._scrubbed_escalations
            if scrub:
                # Escalated SDC means some part's data path was provably
                # wrong with no stuck-cell signature the managers could
                # see (drifted realized levels, not a readback fault), so
                # the sweep left the damage in place.  Scrub every part's
                # data tiles from the digital weight shadow *before*
                # recalibrating — re-baselining thresholds against a
                # corrupted bank would teach the checker to accept the
                # corruption.
                for acc in self.accelerators:
                    rewrite_tiles(acc)
                self._scrubbed_escalations = escalated
            if swept or scrub:
                # The sweep rewrote (and possibly migrated) data tiles:
                # checksum rows must re-track the deployment and the
                # thresholds must re-baseline against any residual
                # degradation left within budget, or every post-repair
                # batch would trip.
                self.integrity.rewrite_and_recalibrate()
        healthy = self.healthy
        _log.info(
            "worker %d repair sweep done: health %.3f (%s)",
            self.worker_id,
            self.unconverged_fraction,
            "restored" if healthy else "still degraded",
        )
        return healthy


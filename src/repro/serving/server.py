"""The request-level serving engine: admit, coalesce, dispatch, survive.

:class:`TridentServer` is a discrete-event loop over a
:class:`~repro.runtime.clock.VirtualClock`.  Four event sources drive it
— arrivals, batch completions, retry releases, and scheduled actions
(e.g. a forced mid-run degradation) — and every decision it takes
(admit / shed / dispatch / complete / fail / retry / breaker transition /
repair) is appended to a structured decision log.  Nothing reads the
wall clock and the only randomness is retry jitter from one seeded
generator drawn in loop order, so the same seed and arrival schedule
replay to a bit-identical decision log and identical per-request
outputs.

Robustness ladder, outermost first:

1. **Admission control** — a request whose deadline the current backlog
   estimate already rules out is shed immediately
   (``deadline_unreachable``); a full queue admits only by displacing a
   strictly lower-priority resident (``priority_evicted`` /
   ``queue_full``).
2. **Deadline enforcement** — queued requests whose deadline can no
   longer be met even by an immediate solo dispatch are shed before
   capacity is wasted on them (``deadline_expired``).
3. **Retry with backoff** — a batch that fails on a degraded worker
   hands its requests back for exponential-backoff + jittered retry,
   bounded by the retry budget (``retries_exhausted``).
4. **Circuit breaking** — repeated failures or an over-threshold health
   signal quarantine the worker; half-open probes (preceded by a
   fault-manager repair attempt) restore it.
5. **Graceful drain** — if every worker is dead and nothing is in
   flight, the residual queue sheds as ``no_worker`` instead of hanging.

Every outcome is a structured object; the loop never lets a
:class:`~repro.errors.WorkerFault` escape.
"""

from __future__ import annotations

import bisect
import dataclasses
import heapq
import math
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from repro.errors import IntegrityFault, ServingError, WorkerFault, require_finite_fields
from repro.runtime.clock import VirtualClock
from repro.serving.batcher import MicroBatcher
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.queue import AdmissionQueue
from repro.serving.request import (
    CompletedRequest,
    InferenceRequest,
    RejectedRequest,
    ShedReason,
)
from repro.serving.worker import AcceleratorWorker
from repro.telemetry.log import get_logger
from repro.telemetry.session import (
    counter as _metric_counter,
    emit_event as _emit_event,
    enabled as _telemetry_enabled,
    gauge as _metric_gauge,
    histogram as _metric_histogram,
    trace_span as _trace_span,
)

_log = get_logger("repro.serving.server")

#: Latency-histogram buckets matched to microsecond-scale virtual SLOs.
LATENCY_BUCKETS = (
    1e-7, 2.5e-7, 5e-7, 1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5,
    1e-4, 1e-3, 1e-2, 0.1, 1.0,
)


@dataclass(frozen=True)
class ServerConfig:
    """Knobs for the serving loop.

    The retry delay's shape is a class constant: every caller uses the
    same backoff and jitter.
    """

    #: Admission-queue depth bound (backpressure point).
    max_queue_depth: int = 64
    #: Micro-batch size cap.
    max_batch: int = 16
    #: Latency target; also the implicit budget for deadline-less requests.
    slo_latency_s: float = 1e-5
    #: Execution attempts per request beyond the first.
    max_retries: int = 2
    #: Consecutive batch failures before a worker's breaker opens.
    breaker_failure_threshold: int = 3
    #: Quarantine length before a half-open probe.
    breaker_cooldown_s: float = 2e-5
    #: Seed for the retry-jitter generator.
    seed: int = 0

    #: First retry delay; attempt k waits ``backoff * factor**(k-1)``.
    retry_backoff_s: ClassVar[float] = 5e-7
    retry_backoff_factor: ClassVar[float] = 2.0
    #: Uniform jitter added to each retry delay (decorrelates thundering
    #: herds; drawn from the server's seeded generator).
    retry_jitter_s: ClassVar[float] = 1e-7

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.max_queue_depth < 1:
            raise ServingError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.max_batch < 1:
            raise ServingError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.slo_latency_s <= 0:
            raise ServingError(
                f"slo_latency_s must be positive, got {self.slo_latency_s}"
            )
        if self.max_retries < 0:
            raise ServingError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )


@dataclass
class ServeReport:
    """Everything one serving run produced, conservation-checked."""

    submitted: int
    completed: list[CompletedRequest]
    shed: list[RejectedRequest]
    decisions: list[dict]
    breaker_transitions: list[dict]
    retries_scheduled: int
    slo_latency_s: float
    #: Request ids that were admitted at least once.
    admitted_ids: set[int] = field(default_factory=set)

    # -- tallies -------------------------------------------------------
    @property
    def admitted(self) -> int:
        """Requests that entered the queue at least once."""
        return len(self.admitted_ids)

    def shed_by_reason(self) -> dict[str, int]:
        """Shed counts keyed by reason value."""
        out: dict[str, int] = {}
        for rejection in self.shed:
            out[rejection.reason.value] = out.get(rejection.reason.value, 0) + 1
        return out

    def latencies_s(self) -> list[float]:
        """Sorted completion latencies."""
        return sorted(c.latency_s for c in self.completed)

    def latency_quantile_s(self, q: float) -> float:
        """Exact empirical latency quantile (0 when nothing completed)."""
        lat = self.latencies_s()
        if not lat:
            return 0.0
        index = min(len(lat) - 1, max(0, int(round(q * (len(lat) - 1)))))
        return lat[index]

    @property
    def slo_attainment(self) -> float:
        """Fraction of *admitted* requests that completed within budget."""
        if not self.admitted_ids:
            return 1.0
        met = sum(
            1
            for c in self.completed
            if c.deadline_met and c.latency_s <= self.slo_latency_s
        )
        return met / len(self.admitted_ids)

    @property
    def completion_rate(self) -> float:
        """Fraction of admitted requests that completed at all."""
        if not self.admitted_ids:
            return 1.0
        return len(self.completed) / len(self.admitted_ids)

    def conservation_ok(self) -> bool:
        """Every submitted request terminated exactly once."""
        completed_ids = {c.request.request_id for c in self.completed}
        shed_ids = {r.request.request_id for r in self.shed}
        return (
            not (completed_ids & shed_ids)
            and len(completed_ids) + len(shed_ids) == self.submitted
            and len(self.completed) + len(self.shed) == self.submitted
        )

    def as_dict(self) -> dict:
        """Summary (no per-request payloads) for JSON export."""
        return {
            "submitted": self.submitted,
            "admitted": self.admitted,
            "completed": len(self.completed),
            "shed": self.shed_by_reason(),
            "retries_scheduled": self.retries_scheduled,
            "breaker_transitions": list(self.breaker_transitions),
            "p50_latency_s": self.latency_quantile_s(0.50),
            "p99_latency_s": self.latency_quantile_s(0.99),
            "slo_latency_s": self.slo_latency_s,
            "slo_attainment": self.slo_attainment,
            "completion_rate": self.completion_rate,
            "conservation_ok": self.conservation_ok(),
        }

    def render(self) -> str:
        """Human-readable run summary."""
        shed = self.shed_by_reason()
        lines = [
            "serving summary",
            f"  submitted            {self.submitted}",
            f"  admitted             {self.admitted}",
            f"  completed            {len(self.completed)}"
            f"  ({self.completion_rate * 100:.1f}% of admitted)",
            f"  shed                 {len(self.shed)}"
            + (
                "  ("
                + ", ".join(f"{k}={v}" for k, v in sorted(shed.items()))
                + ")"
                if shed
                else ""
            ),
            f"  retries scheduled    {self.retries_scheduled}",
            f"  breaker transitions  {len(self.breaker_transitions)}",
            f"  p50 latency          {self.latency_quantile_s(0.5) * 1e6:.2f} us",
            f"  p99 latency          {self.latency_quantile_s(0.99) * 1e6:.2f} us",
            f"  SLO target           {self.slo_latency_s * 1e6:.2f} us",
            f"  SLO attainment       {self.slo_attainment * 100:.2f}% of admitted",
        ]
        return "\n".join(lines)


# Event-category precedence at equal timestamps: free workers first
# (batch completions, then pipeline ingest releases), then apply world
# changes, then release retries, then admit fresh arrivals.
_COMPLETION, _INGEST, _ACTION, _RETRY, _ARRIVAL = 0, 1, 2, 3, 4


class TridentServer:
    """Deterministic request-level serving over accelerator workers."""

    def __init__(
        self,
        workers: list[AcceleratorWorker],
        config: ServerConfig | None = None,
        clock: VirtualClock | None = None,
        rollup=None,
    ) -> None:
        if not workers:
            raise ServingError("need at least one worker")
        ids = [w.worker_id for w in workers]
        if len(set(ids)) != len(ids):
            raise ServingError(f"worker ids must be unique, got {ids}")
        in_dims = {w.input_dim for w in workers}
        if len(in_dims) != 1:
            raise ServingError(
                f"workers disagree on input width: {sorted(in_dims)}"
            )
        self.workers = sorted(workers, key=lambda w: w.worker_id)
        self.config = config or ServerConfig()
        self.clock = clock or VirtualClock()
        for worker in self.workers:
            worker.bind_clock(self.clock)
        self.queue = AdmissionQueue(self.config.max_queue_depth)
        self.batcher = MicroBatcher(
            self.config.max_batch, self.config.slo_latency_s
        )
        self.breakers = {
            w.worker_id: CircuitBreaker(
                w.worker_id,
                failure_threshold=self.config.breaker_failure_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
                on_transition=self._on_breaker_transition,
            )
            for w in self.workers
        }
        self.rng = np.random.default_rng(self.config.seed)
        #: Always-on serving rollup (``repro.telemetry.rollup``) the fleet
        #: controller reads.  Deliberately *not* the opt-in telemetry
        #: session: control decisions must be identical whether or not a
        #: user enabled tracing, so the controller's inputs cannot route
        #: through an opt-in sink.
        self.rollup = rollup
        # -- fleet policy knobs (mutated by the controller) -------------
        #: Admission floor: requests below this priority are shed as
        #: ``degraded_shed``.  None = accept all priorities.
        self.min_priority: int | None = None
        #: Traffic classes (``InferenceRequest.kind``) currently frozen.
        self.frozen_kinds: set[str] = set()
        #: Additive per-tenant priority boost applied at admission.
        self.tenant_boost: dict[str, int] = {}
        #: Workers draining toward decommission: they finish in-flight
        #: batches but receive no new dispatches.
        self.draining: set[int] = set()
        #: Warm-up gate: worker id -> instant it may first take traffic.
        self._warm_at: dict[int, float] = {}
        # -- run state --------------------------------------------------
        self._busy_until: dict[int, float | None] = {
            w.worker_id: None for w in self.workers
        }
        self._half_open_probed: set[int] = set()
        self._attempts: dict[int, int] = {}
        self._arrivals: list[InferenceRequest] = []
        self._arrival_index = 0
        self._retries: list[tuple[float, int, InferenceRequest]] = []
        self._actions: list[tuple[float, int, str, object]] = []
        self._action_index = 0
        self._completions: list[tuple[float, int, int, tuple, float]] = []
        #: Pipeline ingest releases: instants an overlapped worker frees
        #: its first stage before the in-flight batch finishes.  Pure
        #: wake-ups — popping one just gives ``_dispatch_all`` a chance.
        self._ingest_events: list[tuple[float, int]] = []
        self._event_seq = 0
        self._decision_seq = 0
        # -- readiness index (see _serving_workers, _free_workers) -----
        self._class_ids: dict = {}  # price key -> price class id
        self._price_class: dict[int, int] = {}  # worker id -> class id
        for worker in self.workers:
            self._classify(worker)
        self._serving: list[AcceleratorWorker] | None = None
        self._free: list[AcceleratorWorker] | None = None
        #: Earliest busy-until over the serving set, -inf while one of
        #: them is idle; None when stale (see _earliest_free_s).  Dropped
        #: with the serving set and whenever a busy-until is written.
        self._earliest_free: float | None = None
        self._serving_until = self._free_until = self._fastest_s = math.inf
        self._full_batch_s: dict[int, float] = {}
        # -- results ----------------------------------------------------
        self.decisions: list[dict] = []
        self.breaker_transitions: list[dict] = []
        self.completed: list[CompletedRequest] = []
        self.shed: list[RejectedRequest] = []
        self.retries_scheduled = 0

    # ------------------------------------------------------------------
    # Decision log + telemetry plumbing
    # ------------------------------------------------------------------
    def _decide(self, kind: str, **fields) -> None:
        record = {
            "seq": self._decision_seq, "t": self.clock.now(), "kind": kind,
            **fields,
        }
        self._decision_seq += 1
        self.decisions.append(record)
        if _telemetry_enabled():
            # The event log numbers its own records; the decision number
            # travels as "decision".
            payload = {
                "decision" if k == "seq" else k: v
                for k, v in record.items()
                if k != "kind"
            }
            _emit_event(f"serve_{kind}", **payload)

    def _on_breaker_transition(self, now_s, worker_id, before, to, reason):
        self._roster_changed()
        record = {
            "t": now_s,
            "worker": worker_id,
            "from": before.value,
            "to": to.value,
            "reason": reason,
        }
        self.breaker_transitions.append(record)
        self._decide(
            "breaker", worker=worker_id, frm=before.value, to=to.value,
            reason=reason,
        )
        _metric_counter("repro_breaker_transitions_total", to=to.value).inc()
        _log.info(
            "breaker worker %d: %s -> %s (%s)",
            worker_id, before.value, to.value, reason,
        )

    def _record_shed(
        self, request: InferenceRequest, reason: ShedReason, detail: str = ""
    ) -> None:
        now = self.clock.now()
        self.shed.append(RejectedRequest(
            request, reason, now, self._attempts.get(request.request_id, 0),
            detail,
        ))
        self._decide(
            "shed", request=request.request_id, reason=reason.value,
            priority=request.priority,
        )
        if self.rollup is not None:
            self.rollup.record_shed(
                now, reason.value, request.priority, request.tenant
            )
        if _telemetry_enabled():
            _metric_counter(
                "repro_requests_shed_total", reason=reason.value
            ).inc()

    # ------------------------------------------------------------------
    # Fleet lifecycle (the control plane's actuation surface)
    # ------------------------------------------------------------------
    def record_decision(self, kind: str, **fields) -> None:
        """Public decision-log entry point for external control loops.

        Controller actuations land in the same ordered stream as admits,
        dispatches, and sheds, so a replayed run reproduces the control
        trajectory verbatim.
        """
        self._decide(kind, **fields)

    def add_worker(self, worker: AcceleratorWorker, warm_at_s: float | None = None):
        """Commission a worker mid-run; returns it.

        ``warm_at_s`` gates the first dispatch: until that instant the
        worker is *warming* — visible in the roster but taking no
        traffic and excluded from capacity estimates (scaling up never
        instantly flatters the admission estimator).  An event-loop
        wake-up is scheduled at the warm instant so an idle loop does
        not sleep through it.
        """
        wid = worker.worker_id
        if any(w.worker_id == wid for w in self.workers):
            raise ServingError(f"worker id {wid} already commissioned")
        if self.workers and worker.input_dim != self.workers[0].input_dim:
            raise ServingError(
                f"worker {wid} input width {worker.input_dim} != fleet "
                f"width {self.workers[0].input_dim}"
            )
        worker.bind_clock(self.clock)
        self.workers = sorted(
            self.workers + [worker], key=lambda w: w.worker_id
        )
        self.breakers[wid] = CircuitBreaker(
            wid,
            failure_threshold=self.config.breaker_failure_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
            on_transition=self._on_breaker_transition,
        )
        self._busy_until[wid] = None
        self._classify(worker)
        self._roster_changed()
        now = self.clock.now()
        if warm_at_s is not None and warm_at_s > now:
            self._warm_at[wid] = float(warm_at_s)
            self.schedule_action(
                float(warm_at_s), f"warmup_worker_{wid}", lambda server: None
            )
        self._decide(
            "commission", worker=wid,
            warm_at=self._warm_at.get(wid, now), fleet=len(self.workers),
        )
        return worker

    def begin_drain(self, worker_id: int) -> None:
        """Stop dispatching to a worker; in-flight batches still finish."""
        if all(w.worker_id != worker_id for w in self.workers):
            raise ServingError(f"cannot drain unknown worker {worker_id}")
        if worker_id in self.draining:
            return
        self.draining.add(worker_id)
        self._roster_changed()
        self._decide("drain_begin", worker=worker_id, fleet=len(self.workers))

    def worker_idle(self, worker_id: int) -> bool:
        """True when the worker has nothing in flight (safe to remove)."""
        return self._busy_until.get(worker_id) is None and not any(
            wid == worker_id for _, _, wid, _, _ in self._completions
        )

    def remove_worker(self, worker_id: int) -> AcceleratorWorker:
        """Decommission an idle worker; returns it for checkpointing.

        Refuses while a batch is in flight — graceful drain means every
        dispatched request settles (completes or retries) before its
        worker leaves the roster, which is what keeps the conservation
        audit whole across scale-down.
        """
        if len(self.workers) <= 1:
            raise ServingError("cannot remove the last worker")
        if not self.worker_idle(worker_id):
            raise ServingError(
                f"worker {worker_id} still has in-flight work; drain first"
            )
        for index, worker in enumerate(self.workers):
            if worker.worker_id == worker_id:
                break
        else:
            raise ServingError(f"cannot remove unknown worker {worker_id}")
        self.workers = self.workers[:index] + self.workers[index + 1:]
        del self.breakers[worker_id]
        del self._busy_until[worker_id]
        del self._price_class[worker_id]
        self.draining.discard(worker_id)
        self._warm_at.pop(worker_id, None)
        self._half_open_probed.discard(worker_id)
        self._roster_changed()
        self._decide(
            "decommission", worker=worker_id, fleet=len(self.workers)
        )
        return worker

    def active_worker_ids(self) -> list[int]:
        """Workers eligible for new dispatches (warm, not draining)."""
        now = self.clock.now()
        return [
            w.worker_id
            for w in self.workers
            if w.worker_id not in self.draining
            and self._warm_at.get(w.worker_id, now) <= now
        ]

    def serving_worker_count(self) -> int:
        """Workers the dispatch loop could use right now (breaker-gated)."""
        return len(self._serving_workers())

    def pending_work(self) -> bool:
        """True while any request could still arrive, retry, or complete.

        The controller's stop condition: once this is False the run is
        drained and a recurring control tick must not reschedule itself
        (the event loop would otherwise never terminate).
        """
        return bool(
            self._arrival_index < len(self._arrivals)
            or self._retries
            or self._completions
            or self._ingest_events
            or len(self.queue)
        )

    # ------------------------------------------------------------------
    # Readiness index
    # ------------------------------------------------------------------
    def _classify(self, worker: AcceleratorWorker) -> None:
        """Map the worker to the small integer id of its price class."""
        ids = self._class_ids
        self._price_class[worker.worker_id] = ids.setdefault(
            worker.price_key, len(ids)
        )

    def _roster_changed(self) -> None:
        """Drop the serving set and free list: who may serve changed."""
        self._serving = self._free = None

    def _serving_workers(self) -> list[AcceleratorWorker]:
        """Workers that could take a batch right now.

        Excludes hard-open breakers, draining workers, and workers still
        inside their warm-up window — capacity estimates must price only
        what dispatch would actually use.  Cached, with the fastest
        single-request price, until the roster changes or the next
        warm-up ends.
        """
        now = self.clock.now()
        if self._serving is None or now >= self._serving_until:
            self._serving = [
                w
                for w in self.workers
                if self.breakers[w.worker_id].state is not BreakerState.OPEN
                and w.worker_id not in self.draining
                and self._warm_at.get(w.worker_id, now) <= now
            ]
            pending = [t for t in self._warm_at.values() if t > now]
            self._serving_until = min(pending, default=math.inf)
            self._fastest_s = min(
                w.service_time_s(1) for w in self._serving or self.workers
            )
            self._full_batch_s = {}
            self._earliest_free = None
        return self._serving

    def _free_workers(self, now: float) -> list[AcceleratorWorker]:
        """Workers past the drain, warm-up and busy gates, in id order.

        Cached until the earliest future busy-until or warm-up instant,
        or until a dispatch or roster change.  A completion clears only a
        busy-until at or before ``now``, which the list already counts.
        """
        if self._free is None or now >= self._free_until:
            free, until = [], math.inf
            for worker in self.workers:
                wid = worker.worker_id
                if wid in self.draining:
                    continue
                warm_at = self._warm_at.get(wid)
                if warm_at is not None:
                    if warm_at > now:
                        until = min(until, warm_at)
                        continue
                    del self._warm_at[wid]
                busy_until = self._busy_until[wid]
                if busy_until is not None and busy_until > now:
                    until = min(until, busy_until)
                    continue
                free.append(worker)
            self._free, self._free_until = free, until
        return self._free

    # ------------------------------------------------------------------
    # Capacity estimation (admission control)
    # ------------------------------------------------------------------
    def _min_service_s(self) -> float:
        """Fastest possible single-request service time right now."""
        self._serving_workers()
        return self._fastest_s

    def _earliest_free_s(self, serving: list[AcceleratorWorker]) -> float:
        """Earliest busy-until over ``serving``, or -inf if one is idle.

        ``max(now_s, ·)`` of it is the instant the first serving worker
        can ingest a new batch.  Idle means a busy-until of ``None``,
        checked explicitly: a falsy test would misread a legitimate
        ``0.0`` (a dispatch issued at clock start) as idle.  Cached until
        :meth:`_serving_workers` rebuilds the set (every roster change
        and warm-up end) or a dispatch or completion writes a busy-until.
        """
        earliest = self._earliest_free
        if earliest is None:
            busy = [self._busy_until[w.worker_id] for w in serving]
            earliest = -math.inf if None in busy else min(busy)
            self._earliest_free = earliest
        return earliest

    def _estimate_completion_s(self, now_s: float) -> float:
        """Conservative finish estimate for a request admitted at ``now_s``.

        Prices the backlog with the cost model: everything queued ahead
        plus this request, in full batches, spread across workers the
        breakers currently allow, starting when the earliest of those
        workers frees up.
        """
        serving = self._serving_workers()
        if not serving:
            return float("inf")
        # Priced with the batcher's *live* size cap, not the static
        # config: ``batcher.max_batch`` is public and may change mid-run
        # (the fleet controller retunes only ``slo_latency_s`` today).
        max_batch = self.batcher.max_batch
        full_batch_s = self._full_batch_s.get(max_batch)
        if full_batch_s is None:
            full_batch_s = max(w.service_time_s(max_batch) for w in serving)
            self._full_batch_s[max_batch] = full_batch_s
        batches = -(-(len(self.queue) + 1) // max_batch)
        drain_s = batches * full_batch_s / len(serving)
        return max(now_s, self._earliest_free_s(serving)) + drain_s

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _admit(self, request: InferenceRequest, is_retry: bool) -> None:
        now = self.clock.now()
        if not is_retry:
            boost = self.tenant_boost.get(request.tenant, 0)
            if boost:
                request = dataclasses.replace(
                    request, priority=request.priority + boost
                )
        if request.kind in self.frozen_kinds:
            self._record_shed(
                request,
                ShedReason.DEGRADED_SHED,
                f"traffic class {request.kind!r} frozen by degraded mode",
            )
            return
        if self.min_priority is not None and request.priority < self.min_priority:
            self._record_shed(
                request,
                ShedReason.DEGRADED_SHED,
                f"below admission floor (priority {request.priority} < "
                f"{self.min_priority})",
            )
            return
        if request.deadline_s is not None:
            if self._estimate_completion_s(now) > request.deadline_s:
                self._record_shed(
                    request,
                    ShedReason.DEADLINE_UNREACHABLE,
                    "admission estimate past deadline",
                )
                return
        admitted, evicted = self.queue.offer(request)
        if not admitted:
            self._record_shed(
                request, ShedReason.QUEUE_FULL, "queue full, not outranked"
            )
            return
        if evicted is not None:
            self._record_shed(
                evicted,
                ShedReason.PRIORITY_EVICTED,
                f"displaced by request {request.request_id} "
                f"(priority {request.priority})",
            )
        depth = len(self.queue)
        self._decide(
            "admit",
            request=request.request_id,
            priority=request.priority,
            retry=is_retry,
            depth=depth,
        )
        if self.rollup is not None:
            self.rollup.record_queue_depth(now, depth)
        if _telemetry_enabled():
            if not is_retry:
                _metric_counter("repro_requests_admitted_total").inc()
            _metric_gauge(
                "repro_serve_queue_depth", "Admission-queue depth"
            ).set(depth)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _next_refill_s(self) -> float | None:
        """Next instant the queue could gain a request, if any."""
        candidates = []
        if self._arrival_index < len(self._arrivals):
            candidates.append(self._arrivals[self._arrival_index].arrival_s)
        if self._retries:
            candidates.append(self._retries[0][0])
        return min(candidates) if candidates else None

    def _dispatch_all(self) -> None:
        """Offer the queue to the free workers, in worker-id order.

        ``should_dispatch`` depends on the worker only through its price
        table, so a pass asks it once per price class until a dispatch
        changes the queue.
        """
        now = self.clock.now()
        min_service = self._min_service_s()
        for hopeless in self.queue.drop_hopeless(now, min_service):
            self._record_shed(
                hopeless,
                ShedReason.DEADLINE_EXPIRED,
                "deadline unreachable even dispatching now",
            )
        if not len(self.queue):
            return
        free = self._free_workers(now)
        if not free:
            return
        refill = self._next_refill_s()
        waiting: set[int] = set()  # price classes that answered "wait"
        for worker in free:
            if not len(self.queue):
                break
            wid = worker.worker_id
            breaker = self.breakers[wid]
            was_open = breaker.state is BreakerState.OPEN
            if not breaker.allow(now):
                continue
            if breaker.state is BreakerState.HALF_OPEN:
                if was_open:
                    # Entering half-open: the quarantine window is when
                    # maintenance runs — one repair sweep per window.
                    self._probe_repair(worker)
                if wid in self._half_open_probed:
                    continue  # one probe at a time
                size = 1  # risk one request on an unproven worker
                self._half_open_probed.add(wid)
            else:
                price_class = self._price_class[wid]
                if price_class in waiting:
                    continue
                if not self.batcher.should_dispatch(
                    self.queue, now, refill, worker.service_time_s
                ):
                    waiting.add(price_class)
                    continue
                size = self.batcher.size_batch(self.queue)
            batch = tuple(self.queue.pop_batch(size))
            waiting.clear()
            ingest_free, finish = worker.dispatch_times_s(now, len(batch))
            self._busy_until[wid] = ingest_free
            self._free = self._earliest_free = None
            self._event_seq += 1
            heapq.heappush(
                self._completions,
                (finish, self._event_seq, wid, batch, now),
            )
            if ingest_free < finish:
                # Overlapped worker: wake the loop when its first stage
                # frees so the next batch can enter before this one exits.
                self._event_seq += 1
                heapq.heappush(
                    self._ingest_events, (ingest_free, self._event_seq)
                )
            self._decide(
                "dispatch",
                worker=wid,
                requests=[r.request_id for r in batch],
                batch=len(batch),
                probe=breaker.state is BreakerState.HALF_OPEN,
            )
            depth = len(self.queue)
            if self.rollup is not None:
                self.rollup.record_queue_depth(now, depth)
            if _telemetry_enabled():
                _metric_histogram(
                    "repro_serve_batch_occupancy",
                    "Dispatched micro-batch size / max_batch",
                    buckets=(0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
                ).observe(len(batch) / self.batcher.max_batch)
                _metric_gauge(
                    "repro_serve_queue_depth", "Admission-queue depth"
                ).set(depth)

    def _probe_repair(self, worker: AcceleratorWorker) -> None:
        """Half-open maintenance: try to repair before risking a probe."""
        restored = worker.repair()
        self._decide(
            "repair",
            worker=worker.worker_id,
            restored=restored,
            health=worker.unconverged_fraction,
        )

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def _execute(self, worker: AcceleratorWorker, batch: tuple):
        xs = np.stack([r.x for r in batch])
        accs = worker.accelerators
        with _trace_span(
            "serve_batch",
            # Hardware deltas only for one chip: a span carries one
            # accelerator's counters.
            accelerator=accs[0] if len(accs) == 1 else None,
            worker=worker.worker_id,
            batch=len(batch),
        ):
            return worker.execute(xs)

    def _process_completion(
        self, worker: AcceleratorWorker, batch: tuple, dispatch_s: float,
        outcome,
    ) -> None:
        now = self.clock.now()
        wid = worker.worker_id
        busy_until = self._busy_until[wid]
        if busy_until is not None and busy_until <= now:
            # Do not clear an ingest block a *later* dispatch put in the
            # future — an overlapped worker can complete batch i while
            # batch i+1 still occupies its first stage.
            self._busy_until[wid] = None
            self._earliest_free = None
        breaker = self.breakers[wid]
        was_probe = breaker.state is BreakerState.HALF_OPEN
        if was_probe:
            self._half_open_probed.discard(wid)
        if isinstance(outcome, WorkerFault):
            breaker.record_failure(now)
            if self.rollup is not None and isinstance(outcome, IntegrityFault):
                # The SDC-rate signal the fleet controller quarantines
                # on: only attestation escalations count, not crashes or
                # health trips.
                self.rollup.record_sdc(now, wid)
            self._decide(
                "batch_failed",
                worker=wid,
                requests=[r.request_id for r in batch],
                error=str(outcome),
            )
            for request in batch:
                self._maybe_retry(request)
            return
        # Health-signal trip: even a nominally successful batch does not
        # keep a worker whose readback says it is degrading in rotation.
        if not worker.healthy:
            breaker.trip(now, "health_signal")
        else:
            breaker.record_success(now)
        live = _telemetry_enabled()
        if live:
            latency_histogram = _metric_histogram(
                "repro_serve_latency_seconds",
                "Arrival-to-completion latency of served requests",
                buckets=LATENCY_BUCKETS,
            )
        attempts_of, completed, rollup = self._attempts, self.completed, self.rollup
        for request, output in zip(batch, outcome):
            # ``CompletedRequest.latency_s`` and ``deadline_met``, once.
            latency = now - request.arrival_s
            deadline = request.deadline_s
            completed.append(CompletedRequest(
                request, output, wid, dispatch_s, now,
                attempts_of.get(request.request_id, 0) + 1,
            ))
            if rollup is not None:
                rollup.record_completion(
                    now, latency, deadline is None or now <= deadline,
                    request.priority, request.tenant,
                )
            if live:
                latency_histogram.observe(latency)
        if live:
            _metric_counter("repro_requests_completed_total").inc(len(batch))
        self._decide(
            "complete",
            worker=wid,
            requests=[r.request_id for r in batch],
            batch=len(batch),
        )

    def _maybe_retry(self, request: InferenceRequest) -> None:
        now = self.clock.now()
        attempts = self._attempts.get(request.request_id, 0) + 1
        self._attempts[request.request_id] = attempts
        if attempts > self.config.max_retries:
            self._record_shed(
                request,
                ShedReason.RETRIES_EXHAUSTED,
                f"failed {attempts} attempt(s)",
            )
            return
        delay = (
            self.config.retry_backoff_s
            * self.config.retry_backoff_factor ** (attempts - 1)
            + self.config.retry_jitter_s * float(self.rng.random())
        )
        release = now + delay
        if request.deadline_s is not None and release > request.deadline_s:
            self._record_shed(
                request,
                ShedReason.DEADLINE_EXPIRED,
                "retry backoff lands past deadline",
            )
            return
        self._event_seq += 1
        heapq.heappush(self._retries, (release, self._event_seq, request))
        self.retries_scheduled += 1
        self._decide(
            "retry",
            request=request.request_id,
            attempt=attempts,
            release=release,
        )
        _metric_counter("repro_requests_retried_total").inc()

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------
    def schedule_action(self, t_s: float, name: str, fn) -> None:
        """Register a world-changing callback (e.g. forced degradation).

        ``fn(server)`` runs at virtual time ``t_s``, after completions at
        that instant are processed and before new dispatches.
        """
        entry = (float(t_s), len(self._actions), name, fn)
        # Insert into the pending suffix only: entries before
        # ``_action_index`` already executed (their times are in the
        # past), so re-sorting them would cost O(total actions) per call
        # and could shift an executed entry across the index boundary.
        # Tuple order is (t, seq) — seq is unique, callbacks never
        # compare.
        bisect.insort(self._actions, entry, lo=self._action_index)

    def install_chaos(self, session) -> None:
        """Wire an armed :class:`~repro.chaos.session.ChaosSession` in.

        The explicit hook point between a compiled chaos plan and this
        server (no monkey-patching anywhere): scheduled injections
        (stuck bursts, drift bursts, breaker storms, sabotage) become
        ordinary :meth:`schedule_action` callbacks — logged in the
        decision stream like any other world change — and the plan's
        clock jitter is installed on the virtual clock.  Inline
        injections (crashes, output corruption) need no wiring here;
        the workers' execute hooks consume them directly.
        """
        from repro.chaos.injectors import make_server_action

        if session.plan.clock_jitter_s > 0.0:
            self.clock.set_jitter(session.jitter)
        for index, injection in session.scheduled_injections():
            self.schedule_action(
                injection.t_s,
                f"chaos_{injection.kind}#{index}",
                make_server_action(session, index, injection),
            )

    def _next_event(self) -> tuple[float, int] | None:
        """(time, category) of the earliest pending event, if any."""
        best: tuple[float, int] | None = None
        if self._completions:
            best = (self._completions[0][0], _COMPLETION)
        if self._ingest_events:
            t = self._ingest_events[0][0]
            if best is None or (t, _INGEST) < best:
                best = (t, _INGEST)
        if self._action_index < len(self._actions):
            t = self._actions[self._action_index][0]
            if best is None or (t, _ACTION) < best:
                best = (t, _ACTION)
        if self._retries:
            t = self._retries[0][0]
            if best is None or (t, _RETRY) < best:
                best = (t, _RETRY)
        if self._arrival_index < len(self._arrivals):
            t = self._arrivals[self._arrival_index].arrival_s
            if best is None or (t, _ARRIVAL) < best:
                best = (t, _ARRIVAL)
        return best

    def _pop_due_completions(self, t: float) -> list[tuple]:
        due = []
        while self._completions and self._completions[0][0] == t:
            due.append(heapq.heappop(self._completions))
        return due

    def _run_completions(self, due: list[tuple]) -> None:
        """Execute and settle same-instant batch completions in event order."""
        worker_by_id = {w.worker_id: w for w in self.workers}
        for _, _, wid, batch, dispatch_s in due:
            worker = worker_by_id[wid]
            try:
                outcome = self._execute(worker, batch)
            except WorkerFault as fault:
                outcome = fault
            self._process_completion(worker, batch, dispatch_s, outcome)

    def run(self, arrivals) -> ServeReport:
        """Serve a pre-declared arrival schedule until fully drained."""
        self._arrivals = sorted(
            arrivals, key=lambda r: (r.arrival_s, r.request_id)
        )
        ids = [r.request_id for r in self._arrivals]
        if len(set(ids)) != len(ids):
            raise ServingError("request ids must be unique")
        self._arrival_index = 0
        submitted = len(self._arrivals)
        admitted_ids: set[int] = set()

        with _trace_span("serve", requests=submitted):
            while True:
                event = self._next_event()
                if event is None:
                    if len(self.queue) == 0:
                        break
                    # Queue is non-empty but no events remain: the only
                    # way forward is an OPEN breaker becoming probeable
                    # (not a draining worker's: dispatch never polls it).
                    probes = [
                        b.next_probe_s()
                        for wid, b in self.breakers.items()
                        if wid not in self.draining
                        and b.next_probe_s() is not None
                    ]
                    if not probes:
                        for request in self.queue.pop_batch(len(self.queue)):
                            self._record_shed(
                                request,
                                ShedReason.NO_WORKER,
                                "all workers quarantined at drain",
                            )
                        break
                    self.clock.advance_to(max(self.clock.now(), min(probes)))
                    self._dispatch_all()
                    continue
                t, category = event
                self.clock.advance_to(max(self.clock.now(), t))
                if category == _COMPLETION:
                    self._run_completions(self._pop_due_completions(t))
                elif category == _INGEST:
                    # Pure wake-up: an overlapped worker's first stage
                    # freed; the dispatch pass below does the work.
                    while (
                        self._ingest_events
                        and self._ingest_events[0][0] <= t
                    ):
                        heapq.heappop(self._ingest_events)
                elif category == _ACTION:
                    _, _, name, fn = self._actions[self._action_index]
                    self._action_index += 1
                    self._decide("action", name=name)
                    fn(self)
                elif category == _RETRY:
                    # A retried request was dispatched, so its arrival
                    # is already in ``admitted_ids``.
                    _, _, request = heapq.heappop(self._retries)
                    self._admit(request, is_retry=True)
                else:  # _ARRIVAL
                    request = self._arrivals[self._arrival_index]
                    self._arrival_index += 1
                    before = len(self.shed)
                    self._admit(request, is_retry=False)
                    if len(self.shed) == before or (
                        self.shed[-1].request.request_id
                        != request.request_id
                    ):
                        admitted_ids.add(request.request_id)
                self._dispatch_all()

        report = ServeReport(
            submitted=submitted,
            completed=list(self.completed),
            shed=list(self.shed),
            decisions=list(self.decisions),
            breaker_transitions=list(self.breaker_transitions),
            retries_scheduled=self.retries_scheduled,
            slo_latency_s=self.config.slo_latency_s,
            admitted_ids=admitted_ids,
        )
        if not report.conservation_ok():
            raise ServingError(
                "request conservation violated: "
                f"{submitted} submitted, {len(report.completed)} completed, "
                f"{len(report.shed)} shed"
            )
        return report


@dataclass
class ServeRun:
    """One served workload, as :mod:`repro.chaos.audit` reads it."""

    report: ServeReport
    server: TridentServer
    #: The roster the run started with.
    workers: list[AcceleratorWorker]
    #: The chaos session the run served under (None without chaos).
    session: object = None
    #: :func:`repro.chaos.audit.capture_accounting` taken before the run.
    pre_accounting: dict | None = None


def serve_run(server: TridentServer, arrivals, chaos_plan=None) -> ServeRun:
    """Serve ``arrivals`` to completion and record the run for the audit.

    ``chaos_plan`` is a :class:`~repro.chaos.plan.ChaosPlan` or a
    callable of the arrival span (the last arrival instant) returning
    one, for plans sized to a workload not yet synthesized; the run then
    serves inside that plan's chaos session.
    """
    from repro.chaos.audit import capture_accounting
    from repro.chaos.session import session as chaos_scope

    if callable(chaos_plan):
        chaos_plan = chaos_plan(arrivals[-1].arrival_s)
    workers = list(server.workers)
    pre = capture_accounting(workers)
    if chaos_plan is None:
        return ServeRun(server.run(arrivals), server, workers, None, pre)
    with chaos_scope(chaos_plan) as session:
        server.install_chaos(session)
        report = server.run(arrivals)
    return ServeRun(report, server, workers, session, pre)

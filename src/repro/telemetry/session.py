"""The opt-in telemetry session and its zero-overhead disabled path.

Telemetry is **off by default**.  The instrumentation hooks woven through
the functional and performance layers all route through the module-level
accessors here, and when no session is active they cost one global read
plus (for spans) one shared no-op context manager — no allocation, no
locking, no branches inside the hot loops themselves.  The overhead gate
(``benchmarks/test_timing_gates.py``) holds this to < 2% of the
batched forward path.

Enable explicitly::

    from repro import telemetry

    with telemetry.session() as t:
        acc.forward_batch(xs)
    t.tracer.write_chrome_trace("run.trace.json")
    print(t.metrics.to_prometheus())

or imperatively with :func:`enable` / :func:`disable`.  One session holds
the three sinks — :class:`~repro.telemetry.tracer.Tracer`,
:class:`~repro.telemetry.metrics.MetricsRegistry`, and
:class:`~repro.telemetry.events.EventLog` — and pre-registers the
well-known counters (rollbacks, checkpoints, repair tiers, …) so every
metrics dump exposes them even at zero.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import threading
from pathlib import Path

from repro.telemetry.events import EventLog
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENT,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.telemetry.tracer import NULL_SPAN, Tracer, validate_chrome_trace

#: Counters every session exposes from step zero, so dumps are complete
#: even before (or without) the corresponding activity.
WELL_KNOWN_COUNTERS = (
    ("repro_forward_batches_total", "Batched forward passes executed"),
    ("repro_forward_samples_total", "Samples forwarded"),
    ("repro_train_steps_total", "In-situ optimizer steps completed"),
    ("repro_checkpoints_written_total", "Checkpoints written by the runtime"),
    ("repro_rollbacks_total", "Divergence rollbacks performed"),
    ("repro_run_aborts_total", "Training runs aborted after retry exhaustion"),
    ("repro_repairs_total", "Successful repairs by ladder tier"),
    ("repro_tiles_unrepaired_total", "Tiles left degraded after the ladder"),
    ("repro_campaign_cells_total", "Fault-campaign sweep cells executed"),
    ("repro_requests_admitted_total", "Serving requests admitted to the queue"),
    ("repro_requests_completed_total", "Serving requests completed"),
    ("repro_requests_shed_total", "Serving requests shed, by reason"),
    ("repro_requests_retried_total", "Serving request retry attempts"),
    (
        "repro_breaker_transitions_total",
        "Serving circuit-breaker transitions, by target state",
    ),
    ("repro_chaos_injections_total", "Chaos injections applied, by kind"),
    (
        "repro_checkpoint_corrupt_skipped_total",
        "Corrupt checkpoint files skipped during store recovery",
    ),
    ("repro_sdc_detected_total", "ABFT checksum violations detected"),
    (
        "repro_sdc_escalations_total",
        "SDC incidents escalated to peer retry",
    ),
    ("repro_controller_ticks_total", "Fleet-controller evaluation ticks"),
    (
        "repro_controller_actuations_total",
        "Fleet-controller knob changes actually applied",
    ),
    ("repro_fleet_scale_ups_total", "Workers commissioned by autoscaling"),
    (
        "repro_fleet_scale_downs_total",
        "Workers drained and decommissioned by autoscaling",
    ),
    (
        "repro_fleet_degraded_transitions_total",
        "Degraded-mode ladder rung changes (either direction)",
    ),
)

#: Repair-ladder tiers pre-registered on ``repro_repairs_total``.
REPAIR_TIERS = ("retry", "spare", "migrate")

#: Shed reasons pre-registered on ``repro_requests_shed_total`` (the
#: serving layer's :class:`~repro.serving.ShedReason` values).
SHED_REASONS = (
    "queue_full",
    "priority_evicted",
    "deadline_unreachable",
    "deadline_expired",
    "retries_exhausted",
    "no_worker",
    "degraded_shed",
)

#: Breaker states pre-registered on ``repro_breaker_transitions_total``.
BREAKER_STATES = ("open", "half_open", "closed")

#: Injection kinds pre-registered on ``repro_chaos_injections_total``
#: (the chaos layer's :data:`repro.chaos.plan.INJECTION_KINDS`).
CHAOS_KINDS = (
    "worker_crash",
    "corrupt_output",
    "silent_corrupt",
    "stuck_burst",
    "drift_burst",
    "breaker_storm",
    "checkpoint_corrupt",
    "ledger_tear",
    "sabotage",
)


@dataclasses.dataclass(frozen=True)
class SessionExport:
    """The paths :meth:`TelemetrySession.export` wrote (None: not asked
    for), the metric samples parsed back from the dump and the schema
    problems found in the written Chrome trace."""

    trace: Path | None
    metrics: Path | None
    events: Path | None
    samples: dict[str, float]
    problems: list[str]


class TelemetrySession:
    """One enabled telemetry scope: tracer + metrics + event log."""

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.events = EventLog()
        for name, help_text in WELL_KNOWN_COUNTERS:
            if name == "repro_repairs_total":
                for tier in REPAIR_TIERS:
                    self.metrics.counter(name, help_text, tier=tier)
            elif name == "repro_requests_shed_total":
                for reason in SHED_REASONS:
                    self.metrics.counter(name, help_text, reason=reason)
            elif name == "repro_breaker_transitions_total":
                for state in BREAKER_STATES:
                    self.metrics.counter(name, help_text, to=state)
            elif name == "repro_chaos_injections_total":
                for kind in CHAOS_KINDS:
                    self.metrics.counter(name, help_text, kind=kind)
            else:
                self.metrics.counter(name, help_text)

    def export(
        self,
        out: str | Path | None = None,
        metrics_out: str | Path | None = None,
        events_out: str | Path | None = None,
    ) -> SessionExport:
        """Write the Chrome trace to ``out`` and the metrics dump and event
        log to ``metrics_out`` / ``events_out`` (by default beside
        ``out``), then read them back.  An artifact with no path is not
        written."""
        trace = Path(out) if out else None
        if trace is not None:
            base = trace.with_suffix("")
            metrics_out = metrics_out or base.with_suffix(".metrics.prom")
            events_out = events_out or base.with_suffix(".events.jsonl")
            self.tracer.write_chrome_trace(trace)
        metrics = self.metrics.write_prometheus(metrics_out) if metrics_out else None
        events = self.events.write_jsonl(events_out) if events_out else None
        samples = parse_prometheus_text(metrics.read_text("utf-8")) if metrics else {}
        problems = validate_chrome_trace(json.loads(trace.read_text("utf-8"))) if trace else []
        return SessionExport(trace, metrics, events, samples, problems)


_lock = threading.Lock()
_active: TelemetrySession | None = None


def enable() -> TelemetrySession:
    """Start a fresh telemetry session (replacing any active one)."""
    global _active
    with _lock:
        _active = TelemetrySession()
        return _active


def disable() -> TelemetrySession | None:
    """Stop collection; returns the finished session (or None)."""
    global _active
    with _lock:
        finished, _active = _active, None
        return finished


def active() -> TelemetrySession | None:
    """The live session, or None when telemetry is disabled."""
    return _active


def enabled() -> bool:
    """True while a telemetry session is active."""
    return _active is not None


@contextlib.contextmanager
def session():
    """``with telemetry.session() as t:`` — enable, collect, disable."""
    t = enable()
    try:
        yield t
    finally:
        with _lock:
            global _active
            if _active is t:
                _active = None


# ---------------------------------------------------------------------------
# Hot-path accessors.  Instrumentation sites call these; when telemetry is
# disabled each is one global read returning a shared no-op object.
# ---------------------------------------------------------------------------
def trace_span(name: str, accelerator=None, **attrs):
    """Span on the active tracer, or the shared no-op context."""
    s = _active
    if s is None:
        return NULL_SPAN
    return s.tracer.span(name, accelerator=accelerator, **attrs)


def counter(name: str, help: str = "", **labels):
    """Counter on the active registry, or the shared no-op instrument."""
    s = _active
    if s is None:
        return NULL_INSTRUMENT
    return s.metrics.counter(name, help, **labels)


def gauge(name: str, help: str = "", **labels):
    """Gauge on the active registry, or the shared no-op instrument."""
    s = _active
    if s is None:
        return NULL_INSTRUMENT
    return s.metrics.gauge(name, help, **labels)


def histogram(name: str, help: str = "", buckets=DEFAULT_BUCKETS, **labels):
    """Histogram on the active registry, or the shared no-op instrument."""
    s = _active
    if s is None:
        return NULL_INSTRUMENT
    return s.metrics.histogram(name, help, buckets=buckets, **labels)


def emit_event(kind: str, /, **fields):
    """Event on the active log; silently dropped when disabled."""
    s = _active
    if s is None:
        return None
    return s.events.emit(kind, **fields)

"""Tracing, metrics, and structured-event observability.

The measurement substrate for the whole stack: where time, energy, and
repair budget go — per layer, per tile, per step — without perturbing a
single numerical result.  Three sinks, one opt-in session:

- **Span tracer** (:mod:`repro.telemetry.tracer`): nestable, thread-safe
  spans carrying wall time plus hardware-event deltas, exported as
  Chrome ``trace_event`` JSON (open in ``chrome://tracing`` or
  `Perfetto <https://ui.perfetto.dev>`_); :func:`span_totals` sums one
  span name per attribute value (``repro profile``'s per-layer table).
- **Metrics registry** (:mod:`repro.telemetry.metrics`): counters,
  last-value gauges and fixed-bucket histograms, exported as Prometheus
  text.
- **Structured event log** (:mod:`repro.telemetry.events`): timestamped
  machine-parseable records for repairs, rollbacks, NaN aborts,
  checkpoints, and degradation, exported as JSONL.

:mod:`repro.telemetry.rollup` is separate by design: the always-on
windowed serving rollups the fleet controller reads whether or not a
session is active.

Guarantees:

- **Opt-in, near-zero overhead when disabled**: no session → every hook
  is one global read returning a shared no-op
  (``benchmarks/test_timing_gates.py`` enforces < 2% on the
  batched forward path).
- **Non-perturbing**: hooks only *read* event counters and never touch
  an RNG; telemetry-enabled runs are bit-identical to disabled runs
  (outputs, weights, event counters — property-tested).
- **Checkpoint-safe**: span IDs come from a locked counter and no
  wall-clock value enters any checkpointed state, so the save→load and
  crash-resume bit-identity guarantees of :mod:`repro.runtime` hold with
  tracing on.

Entry points: ``python -m repro trace`` (run a workload, emit
``.trace.json`` + metrics dump + event log), ``repro profile`` (a
per-layer table read from the ``layer`` spans), ``--metrics-out`` on
``repro train`` / ``repro faults``, and the :func:`session` context
manager for library use.  :mod:`repro.telemetry.log` wires the ``repro.*`` ``logging``
hierarchy (NullHandler default; the CLI's ``-v``/``--debug`` flags
attach a handler).
"""

from repro.telemetry.events import Event, EventLog
from repro.telemetry.log import configure_cli_logging, get_logger, reset_cli_logging
from repro.telemetry.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    parse_prometheus_text,
)
from repro.telemetry.rollup import RollupStats, ServingRollup
from repro.telemetry.session import (
    REPAIR_TIERS,
    WELL_KNOWN_COUNTERS,
    SessionExport,
    TelemetrySession,
    active,
    counter,
    disable,
    emit_event,
    enable,
    enabled,
    gauge,
    histogram,
    session,
    trace_span,
)
from repro.telemetry.tracer import (
    SpanRecord,
    Tracer,
    span_totals,
    validate_chrome_trace,
)

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "EventLog",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REPAIR_TIERS",
    "RollupStats",
    "ServingRollup",
    "SessionExport",
    "SpanRecord",
    "TelemetrySession",
    "Tracer",
    "WELL_KNOWN_COUNTERS",
    "active",
    "configure_cli_logging",
    "counter",
    "disable",
    "emit_event",
    "enable",
    "enabled",
    "gauge",
    "get_logger",
    "histogram",
    "parse_prometheus_text",
    "reset_cli_logging",
    "session",
    "span_totals",
    "trace_span",
    "validate_chrome_trace",
]

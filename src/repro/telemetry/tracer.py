"""Nestable, thread-safe span tracing with hardware-event attribution.

A :class:`Tracer` records *spans*: named, attributed regions of execution
(``tracer.span("forward_batch", layer=3)``) carrying wall-clock duration
and, when an accelerator is attached, the hardware-event deltas
(:class:`~repro.arch.accelerator.EventCounters`) the region generated.
Spans nest per thread — each thread keeps its own stack, so parentage is
always correct under concurrent use — and finished spans accumulate into
one shared, lock-guarded list.

Determinism contract: span IDs come from a plain counter behind a lock —
never from wall-clock time or random draws — so enabling tracing cannot
perturb any seeded RNG stream, and nothing a tracer produces is ever
written into checkpointed state.  Timestamps are ``time.perf_counter``
offsets from the tracer's construction (a *relative* timeline).

Readers:

- :meth:`Tracer.to_chrome_trace` — the Chrome ``trace_event`` JSON object
  format (complete ``"ph": "X"`` events), loadable in ``chrome://tracing``
  and `Perfetto <https://ui.perfetto.dev>`_.
- :func:`span_totals` — summed durations and event deltas of one span
  name, grouped by one attribute (``repro profile``'s per-layer table).
- :func:`validate_chrome_trace` — the structural schema check the CI
  smoke gate (``repro trace --smoke``) runs on emitted artifacts.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError


@dataclass(frozen=True)
class SpanRecord:
    """One finished span: identity, timing, attributes, event deltas."""

    span_id: int
    parent_id: int | None
    name: str
    #: Start offset from the tracer's epoch [s] (perf_counter-based).
    start_s: float
    duration_s: float
    #: Small sequential thread index (stable within one tracer).
    thread: int
    #: JSON-able user attributes passed to :meth:`Tracer.span`.
    attrs: dict = field(default_factory=dict)
    #: Hardware event deltas (``EventCounters.as_dict()``) accumulated
    #: inside the span; None when no accelerator was attached.
    counters: dict | None = None


class _SpanContext:
    """Context manager for one live span (returned by :meth:`Tracer.span`);
    exit appends the finished :class:`SpanRecord` to the tracer."""

    __slots__ = (
        "_tracer", "_name", "_attrs", "_acc",
        "_before", "_t0", "_span_id", "_parent_id",
    )

    def __init__(self, tracer: "Tracer", name: str, acc, attrs: dict):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._acc = acc
        self._before = None

    def __enter__(self) -> "_SpanContext":
        tracer = self._tracer
        self._span_id = tracer._next_id()
        stack = tracer._stack()
        self._parent_id = stack[-1] if stack else None
        stack.append(self._span_id)
        if self._acc is not None:
            self._before = self._acc.counters.snapshot()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        tracer = self._tracer
        stack = tracer._stack()
        if stack and stack[-1] == self._span_id:
            stack.pop()
        counters = None
        if self._before is not None:
            counters = self._acc.counters.diff(self._before).as_dict()
        attrs = dict(self._attrs)
        if exc_type is not None:
            attrs["error"] = exc_type.__name__
        tracer._append(
            SpanRecord(
                span_id=self._span_id,
                parent_id=self._parent_id,
                name=self._name,
                start_s=self._t0 - tracer._epoch,
                duration_s=duration,
                thread=tracer._thread_index(),
                attrs=attrs,
                counters=counters,
            )
        )
        return False


class _NullSpanContext:
    """Shared do-nothing span; the disabled-telemetry fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


#: Singleton no-op context — ``telemetry.trace_span`` returns this when
#: telemetry is disabled, so the hot-path cost is one function call.
NULL_SPAN = _NullSpanContext()


class Tracer:
    """Collects spans; thread-safe; exports a Chrome trace."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[SpanRecord] = []
        self._id_counter = 0
        self._threads: dict[int, int] = {}
        self._local = threading.local()
        self._epoch = time.perf_counter()

    # -- internals -----------------------------------------------------
    def _next_id(self) -> int:
        with self._lock:
            self._id_counter += 1
            return self._id_counter

    def _thread_index(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            if ident not in self._threads:
                self._threads[ident] = len(self._threads)
            return self._threads[ident]

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _append(self, record: SpanRecord) -> None:
        with self._lock:
            self._records.append(record)

    # -- public API ----------------------------------------------------
    def span(self, name: str, accelerator=None, **attrs):
        """Open a span.  Use as ``with tracer.span("name", key=val): ...``.

        With ``accelerator`` the span snapshots its
        :class:`~repro.arch.accelerator.EventCounters` on entry and
        attaches the delta on exit.
        """
        if not name:
            raise ConfigError("span name must be non-empty")
        return _SpanContext(self, name, accelerator, attrs)

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """Finished spans, in completion order."""
        with self._lock:
            return tuple(self._records)

    # -- analysis ------------------------------------------------------
    def coverage(self) -> float:
        """Fraction of root-span wall time covered by named child spans.

        For every parentless span, computes the union of its direct
        children's intervals clipped to the root, and returns total
        covered time over total root time.  1.0 when roots have no gaps;
        1.0 (vacuously) when there are no root spans with duration.
        """
        records = self.records
        roots = [r for r in records if r.parent_id is None and r.duration_s > 0]
        if not roots:
            return 1.0
        children: dict[int, list[SpanRecord]] = {}
        for r in records:
            if r.parent_id is not None:
                children.setdefault(r.parent_id, []).append(r)
        covered = 0.0
        total = 0.0
        for root in roots:
            total += root.duration_s
            r0, r1 = root.start_s, root.start_s + root.duration_s
            intervals = sorted(
                (max(c.start_s, r0), min(c.start_s + c.duration_s, r1))
                for c in children.get(root.span_id, ())
            )
            cursor = r0
            for lo, hi in intervals:
                if hi <= cursor:
                    continue
                covered += hi - max(lo, cursor)
                cursor = hi
        return covered / total if total > 0 else 1.0

    # -- exports -------------------------------------------------------
    def to_chrome_trace(self) -> dict:
        """Chrome ``trace_event`` JSON-object-format document."""
        events = []
        for r in self.records:
            args = dict(r.attrs)
            if r.counters is not None:
                args["counters"] = dict(r.counters)
            args["span_id"] = r.span_id
            if r.parent_id is not None:
                args["parent_id"] = r.parent_id
            events.append(
                {
                    "name": r.name,
                    "cat": "repro",
                    "ph": "X",
                    "ts": r.start_s * 1e6,
                    "dur": r.duration_s * 1e6,
                    "pid": 0,
                    "tid": r.thread,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | Path) -> Path:
        """Write :meth:`to_chrome_trace` to ``path``; returns the path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.to_chrome_trace()), encoding="utf-8")
        return path


def span_totals(records, name: str, by: str) -> dict:
    """Sum the spans called ``name``, grouped by their ``by`` attribute.

    Returns ``{attribute value: {"spans": n, "duration_s": total, <event>:
    summed delta, ...}}`` in first-seen order; event keys appear only for
    spans opened with an accelerator.
    """
    totals: dict = {}
    for r in records:
        if r.name != name:
            continue
        row = totals.setdefault(r.attrs.get(by), {"spans": 0, "duration_s": 0.0})
        row["spans"] += 1
        row["duration_s"] += r.duration_s
        for key, value in (r.counters or {}).items():
            row[key] = row.get(key, 0) + value
    return totals


def validate_chrome_trace(doc) -> list[str]:
    """Structural schema check for a Chrome trace document.

    Returns a list of problems (empty == valid).  Checks the constraints
    Perfetto's JSON importer relies on: a ``traceEvents`` list of complete
    events, each with string ``name``/``ph`` and numeric, non-negative
    ``ts``/``dur``, integer ``pid``/``tid``, and a dict ``args``.
    """
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"top level must be a JSON object, got {type(doc).__name__}"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents must be a list"]
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        if not isinstance(ev.get("name"), str) or not ev["name"]:
            problems.append(f"{where}: missing/empty name")
        if ev.get("ph") not in ("X", "B", "E", "i", "C", "M"):
            problems.append(f"{where}: unsupported phase {ev.get('ph')!r}")
        for key in ("ts",) + (("dur",) if ev.get("ph") == "X" else ()):
            value = ev.get(key)
            if not isinstance(value, (int, float)) or value < 0:
                problems.append(f"{where}: {key} must be a non-negative number")
        for key in ("pid", "tid"):
            if not isinstance(ev.get(key), int):
                problems.append(f"{where}: {key} must be an integer")
        if "args" in ev and not isinstance(ev["args"], dict):
            problems.append(f"{where}: args must be an object")
    return problems

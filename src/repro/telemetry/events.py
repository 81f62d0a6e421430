"""Structured, machine-parseable event records.

Where spans answer "where did the time go" and metrics answer "how many",
the event log answers "what happened": repairs, rollbacks, NaN aborts,
checkpoint writes, graceful degradation — one timestamped record each,
with the fields a post-mortem needs.  Records carry a monotonic sequence
number (the ordering authority) plus a wall-clock timestamp (for humans);
nothing from this log is ever written into checkpointed state, so the
bit-identical save→load/resume guarantees are untouched.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.errors import ConfigError


@dataclass(frozen=True)
class Event:
    """One structured occurrence."""

    seq: int
    kind: str
    #: Wall-clock UNIX timestamp at emission — export-only, never
    #: checkpointed (determinism contract).
    wall_time_s: float
    fields: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Plain-dict view (stable key order) for JSONL export."""
        return {
            "seq": self.seq,
            "kind": self.kind,
            "wall_time_s": self.wall_time_s,
            **self.fields,
        }


class EventLog:
    """Thread-safe append-only list of :class:`Event` records."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[Event] = []
        self._seq = 0

    def emit(self, kind: str, /, **fields) -> Event:
        """Record one event; returns the finished record.

        Raises :class:`~repro.errors.ConfigError` on a field named
        ``seq``, ``kind`` or ``wall_time_s``: :meth:`Event.as_dict` would
        let it overwrite the record's own key.
        """
        for name in ("seq", "kind", "wall_time_s"):
            if name in fields:
                raise ConfigError(
                    f"event {kind!r}: field {name!r} shadows the record's own key"
                )
        with self._lock:
            self._seq += 1
            event = Event(
                seq=self._seq,
                kind=kind,
                wall_time_s=time.time(),
                fields=fields,
            )
            self._records.append(event)
            return event

    @property
    def records(self) -> tuple[Event, ...]:
        """All events, in emission order."""
        with self._lock:
            return tuple(self._records)

    def of_kind(self, kind: str) -> tuple[Event, ...]:
        """Events matching one kind."""
        return tuple(e for e in self.records if e.kind == kind)

    def write_jsonl(self, path: str | Path) -> Path:
        """Write one compact JSON document per event to ``path``."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        text = "\n".join(
            json.dumps(e.as_dict(), sort_keys=True) for e in self.records
        )
        path.write_text(text + "\n" if text else "", encoding="utf-8")
        return path

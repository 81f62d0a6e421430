"""The opt-in chaos session and its zero-overhead disabled path.

Chaos is **off by default**.  The hook points woven through the serving
layer (worker dispatch/drain, sharded pipeline drain, clock advance) all
route through the module-level accessors here; with no session active
each costs one global read and returns the input unchanged — the same
pattern (and the same <1% overhead budget, enforced by
``benchmarks/bench_chaos_overhead.py``) as :mod:`repro.telemetry`.

A :class:`ChaosSession` holds one compiled :class:`~repro.chaos.plan.ChaosPlan`
and tracks which injections have fired.  Inline injections
(``worker_crash``, ``corrupt_output``) are *consumed*: the first hook
point that matches an armed injection (time reached, target matched)
applies it exactly once.  All apply-time randomness comes from
per-injection derived generators (:meth:`ChaosPlan.rng_for`), so the
thread or hook that happens to consume an injection cannot perturb
replay.  Every application is recorded on ``session.applied`` and
mirrored to telemetry (``chaos_injection`` events,
``repro_chaos_injections_total`` counters) when a telemetry session is
also active.

Enable explicitly::

    from repro import chaos

    plan = chaos.compile_plan(chaos.ChaosProfile(window_s=1e-3), seed=7)
    with chaos.session(plan) as c:
        server.install_chaos(c)
        report = server.run(arrivals)
    print(c.applied)
"""

from __future__ import annotations

import contextlib
import threading

import numpy as np

from repro.chaos.plan import ChaosPlan, SCHEDULED_KINDS
from repro.errors import ChaosError
from repro.telemetry.session import counter as _metric_counter
from repro.telemetry.session import emit_event as _emit_event


class ChaosSession:
    """One enabled chaos scope: a plan plus its consumption state."""

    def __init__(self, plan: ChaosPlan) -> None:
        if not isinstance(plan, ChaosPlan):
            raise ChaosError(
                f"chaos session needs a ChaosPlan, got {type(plan).__name__}"
            )
        self.plan = plan
        #: Chronological record of injections actually applied this run:
        #: ``{"index", "kind", "target", "t_s", "at_s", ...details}``.
        self.applied: list[dict] = []
        self._consumed: set[int] = set()
        self._lock = threading.Lock()
        self._jitter_rng = np.random.default_rng((int(plan.seed), 0xC10C))

    # ------------------------------------------------------------------
    # Inline hook points (called from worker/stage execute paths)
    # ------------------------------------------------------------------
    def crash_check(self, worker_id: int, phase: str, now_s: float) -> str | None:
        """Consume an armed ``worker_crash`` for this worker/phase, if any.

        Returns a reason string the hook point should raise as a
        :class:`~repro.errors.WorkerFault`, or ``None`` to proceed.
        """
        with self._lock:
            for index, injection in enumerate(self.plan.injections):
                if (
                    injection.kind == "worker_crash"
                    and index not in self._consumed
                    and injection.t_s <= now_s
                    and injection.target in (None, worker_id)
                    and injection.params.get("phase", "dispatch") == phase
                ):
                    self._mark(index, injection, now_s, worker=worker_id)
                    return (
                        f"chaos injection #{index} "
                        f"(worker_crash at {phase}, scheduled t={injection.t_s:g})"
                    )
        return None

    def corrupt_output(
        self, worker_id: int, now_s: float, outputs: np.ndarray
    ) -> np.ndarray:
        """Consume an armed ``corrupt_output``/``silent_corrupt``, if any.

        ``corrupt_output`` defaults to the historical NaN poison — one
        derived-stream draw, byte-identical to pre-mode plans — which
        the finite-output gate turns into a
        :class:`~repro.errors.WorkerFault`.  The finite modes (``bias``,
        ``scale``, ``sign_flip``; the ``silent_corrupt`` kind, or
        ``corrupt_output`` with an explicit ``mode``) perturb the same
        deterministic subset of entries with plausible finite values
        that *pass* the finite gate: only the ABFT attestation can catch
        them, which is the point.
        """
        with self._lock:
            for index, injection in enumerate(self.plan.injections):
                if (
                    injection.kind in ("corrupt_output", "silent_corrupt")
                    and index not in self._consumed
                    and injection.t_s <= now_s
                    and injection.target in (None, worker_id)
                ):
                    default = (
                        "nan" if injection.kind == "corrupt_output" else "bias"
                    )
                    mode = injection.params.get("mode", default)
                    rng = self.plan.rng_for(index)
                    # order="C" matters: forward_batch outputs can be
                    # F-ordered views, and a layout-preserving copy would
                    # make reshape(-1) return a *copy* — poisoning it
                    # would silently touch nothing.
                    poisoned = np.array(outputs, copy=True, order="C")
                    flat = poisoned.reshape(-1)
                    n_poison = max(1, flat.size // 8)
                    where = rng.choice(flat.size, size=n_poison, replace=False)
                    if mode == "nan":
                        flat[where] = np.nan
                    else:
                        magnitude = float(
                            injection.params.get("magnitude", 4.0)
                        )
                        if mode == "bias":
                            # Offset scaled to dominate the batch's own
                            # dynamic range, with per-entry signs from
                            # the injection's stream.
                            amp = magnitude * (
                                1.0 + float(np.max(np.abs(flat)))
                            )
                            signs = rng.integers(0, 2, n_poison) * 2 - 1
                            flat[where] += signs * amp
                        elif mode == "scale":
                            flat[where] *= magnitude
                        else:  # sign_flip
                            flat[where] = -flat[where]
                    self._mark(
                        index,
                        injection,
                        now_s,
                        worker=worker_id,
                        poisoned=int(n_poison),
                        mode=mode,
                    )
                    return poisoned
        return outputs

    def jitter(self, t_s: float) -> float:
        """Clock-jitter hook: a seeded offset in [0, clock_jitter_s)."""
        amplitude = self.plan.clock_jitter_s
        if amplitude <= 0.0:
            return 0.0
        return amplitude * float(self._jitter_rng.random())

    # ------------------------------------------------------------------
    # Scheduled injections (driven by install_chaos and scenarios)
    # ------------------------------------------------------------------
    def scheduled_injections(self):
        """``(index, injection)`` pairs the server must schedule as actions."""
        return [
            (index, injection)
            for index, injection in enumerate(self.plan.injections)
            if injection.kind in SCHEDULED_KINDS
        ]

    def mark_applied(self, index: int, at_s: float, **details) -> None:
        """Record (exactly once) that injection ``index`` fired."""
        injection = self.plan.injections[index]
        with self._lock:
            if index in self._consumed:
                raise ChaosError(
                    f"chaos injection #{index} ({injection.kind}) applied twice"
                )
            self._mark(index, injection, at_s, **details)

    def _mark(self, index, injection, at_s, **details) -> None:
        # Callers hold self._lock (or are single-threaded action hooks).
        self._consumed.add(index)
        record = {
            "index": int(index),
            "kind": injection.kind,
            "target": injection.target,
            "t_s": float(injection.t_s),
            "at_s": float(at_s),
        }
        record.update(details)
        self.applied.append(record)
        # "kind" would collide with the event kind itself; re-key it.
        payload = {
            "injection_kind" if k == "kind" else k: v for k, v in record.items()
        }
        _emit_event("chaos_injection", **payload)
        _metric_counter(
            "repro_chaos_injections_total",
            "Chaos injections applied, by kind",
            kind=injection.kind,
        ).inc()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def applied_counts(self) -> dict[str, int]:
        """Applied-injection count per kind."""
        out: dict[str, int] = {}
        for record in self.applied:
            out[record["kind"]] = out.get(record["kind"], 0) + 1
        return out

    def pending(self) -> list[int]:
        """Indices of injections that never fired (e.g. past run end)."""
        return [
            index
            for index in range(len(self.plan.injections))
            if index not in self._consumed
        ]


_lock = threading.Lock()
_active: ChaosSession | None = None


def enable(plan: ChaosPlan) -> ChaosSession:
    """Arm a chaos session for ``plan`` (replacing any active one)."""
    global _active
    with _lock:
        _active = ChaosSession(plan)
        return _active


def disable() -> ChaosSession | None:
    """Disarm chaos; returns the finished session (or None)."""
    global _active
    with _lock:
        finished, _active = _active, None
        return finished


def active() -> ChaosSession | None:
    """The live session, or None while chaos is disabled."""
    return _active


def enabled() -> bool:
    """True while a chaos session is armed."""
    return _active is not None


@contextlib.contextmanager
def session(plan: ChaosPlan):
    """``with chaos.session(plan) as c:`` — arm, run, disarm."""
    c = enable(plan)
    try:
        yield c
    finally:
        with _lock:
            global _active
            if _active is c:
                _active = None


# ---------------------------------------------------------------------------
# Hot-path accessors.  Hook points call these; when chaos is disabled each
# is one global read returning the input unchanged.
# ---------------------------------------------------------------------------
def crash_check(worker_id: int, phase: str, now_s: float) -> str | None:
    """Armed crash for this worker/phase, or None (the common case)."""
    s = _active
    if s is None:
        return None
    return s.crash_check(worker_id, phase, now_s)


def corrupt_output(worker_id: int, now_s: float, outputs):
    """Possibly-poisoned outputs; the input object itself when disabled."""
    s = _active
    if s is None:
        return outputs
    return s.corrupt_output(worker_id, now_s, outputs)

"""Deterministic virtual time for replayable schedulers.

The serving layer (and any future discrete-event runtime component) must
replay bit-identically from a seed, which rules out ``time.monotonic()``
as a scheduling authority.  A :class:`VirtualClock` is the alternative:
a monotonically advancing float the owning event loop moves explicitly.
Nothing here reads the wall clock, so two runs that advance the clock
through the same sequence of instants are bit-identical by construction.

Every clock starts at t = 0.  Chaos jitter rides on the same contract:
an optional ``jitter_fn`` (installed with :meth:`VirtualClock.set_jitter`,
normally by ``TridentServer.install_chaos``) perturbs *forward* jumps by
a non-negative offset drawn from the chaos plan's seeded stream.  Because
the perturbation is itself a pure function of the chaos seed and the
jump sequence, jittered runs stay bit-identical under replay.
"""

from __future__ import annotations

from repro.errors import ServingError


class VirtualClock:
    """Explicitly advanced simulation time (seconds, monotone)."""

    __slots__ = ("_now_s", "_jitter_fn")

    def __init__(self) -> None:
        self._now_s = 0.0
        self._jitter_fn = None

    def now(self) -> float:
        """Current virtual time [s]."""
        return self._now_s

    def set_jitter(self, jitter_fn) -> None:
        """Install (or clear, with ``None``) a jitter hook.

        ``jitter_fn(t_s)`` is called on every strictly-forward jump and
        must return a non-negative offset added to the target instant.
        Negative returns are clamped to zero: jitter may delay events,
        never reorder them into the past.
        """
        self._jitter_fn = jitter_fn

    def advance(self, dt_s: float) -> float:
        """Move forward by ``dt_s`` (must be >= 0); returns the new time."""
        if dt_s < 0:
            raise ServingError(f"cannot advance by negative dt {dt_s}")
        return self.advance_to(self._now_s + float(dt_s))

    def advance_to(self, t_s: float) -> float:
        """Jump to absolute time ``t_s`` (must not move backwards)."""
        if t_s < self._now_s:
            raise ServingError(
                f"cannot rewind clock from {self._now_s} to {t_s}"
            )
        if self._jitter_fn is not None and t_s > self._now_s:
            t_s += max(0.0, float(self._jitter_fn(t_s)))
        self._now_s = float(t_s)
        return self._now_s

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"VirtualClock(t={self._now_s!r})"

"""Compiled chaos schedules.

A :class:`ChaosPlan` is the *entire* chaos a run will experience,
decided ahead of time: a seed, an optional clock-jitter amplitude, and a
time-sorted tuple of :class:`Injection` records.  Nothing is drawn at
apply time from shared state — each injection that needs randomness
derives its own generator from ``(plan.seed, injection_index)``, so the
order in which hook points consume injections (or the thread that
happens to execute a batch) cannot perturb replay.  Two runs driven by
the same workload seed and the same plan are bit-identical.

Plans are in-memory data, compiled from a profile and a seed (or built
by hand); nothing writes them to disk.  A soak cell replays by building
its plan again: the flake matrix records each cell's ``(scenario,
seed)`` and the injection counts it applied, every cell derives its
plan from exactly those two (chaos seed ``10_000 + seed`` for the serve,
shard, resume and train cells; the fleet and sdc plans follow from the
scenario built at that seed), so ``repro soak --scenarios S --seed-base
N --seeds 1`` reruns cell ``(S, N)`` under the same chaos.

:func:`compile_plan` is the standard generator: given a
:class:`ChaosProfile` (how much of each failure kind, over which window,
against which workers/stages) and a chaos seed, it draws the schedule.
Hand-built plans are equally valid — the dataclasses validate kinds,
times, and parameters on construction.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.errors import ChaosError

#: Every injection kind the hook points understand.  ``worker_crash`` and
#: ``corrupt_output`` are consumed inline by worker execute hooks;
#: ``stuck_burst``/``drift_burst``/``breaker_storm``/``sabotage`` become
#: scheduled server actions; ``checkpoint_corrupt``/``ledger_tear`` are
#: file injections applied by the soak scenarios between process "lives".
INJECTION_KINDS = (
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

#: Kinds wired into the server event loop via ``install_chaos``.
SCHEDULED_KINDS = ("stuck_burst", "drift_burst", "breaker_storm", "sabotage")

#: Valid ``phase`` parameter values for ``worker_crash``.
CRASH_PHASES = ("dispatch", "drain")

#: Valid ``mode`` parameter values for output corruption.  ``nan`` is
#: the historical poison (caught by the finite-output gate and the
#: default for ``corrupt_output``, so pre-existing plans replay
#: bit-identically); the finite modes produce plausible-but-wrong
#: numbers that sail through the finite gate — exactly the silent data
#: corruption the ABFT attestation exists to catch.  ``silent_corrupt``
#: defaults to ``bias``.
CORRUPT_MODES = ("nan", "bias", "scale", "sign_flip")


@dataclasses.dataclass(frozen=True)
class Injection:
    """One timed fault: *what* happens, *when*, and *to which target*.

    ``target`` is a worker id for serving injections (``None`` matches
    any worker at the hook point) and is unused for file injections.
    ``params`` carries kind-specific knobs — e.g. ``phase`` for crashes,
    ``fraction``/``stuck_level`` for stuck bursts, ``stage`` for
    pipeline-stage bursts.
    """

    t_s: float
    kind: str
    target: int | None = None
    params: dict = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in INJECTION_KINDS:
            raise ChaosError(
                f"unknown injection kind {self.kind!r}; expected one of "
                f"{INJECTION_KINDS}"
            )
        if not self.t_s >= 0.0:
            raise ChaosError(f"injection time must be >= 0, got {self.t_s}")
        if self.kind == "worker_crash":
            phase = self.params.get("phase", "dispatch")
            if phase not in CRASH_PHASES:
                raise ChaosError(
                    f"worker_crash phase must be one of {CRASH_PHASES}, "
                    f"got {phase!r}"
                )
        if self.kind in ("corrupt_output", "silent_corrupt"):
            default = "nan" if self.kind == "corrupt_output" else "bias"
            mode = self.params.get("mode", default)
            if mode not in CORRUPT_MODES:
                raise ChaosError(
                    f"{self.kind} mode must be one of {CORRUPT_MODES}, "
                    f"got {mode!r}"
                )
            if self.kind == "silent_corrupt" and mode == "nan":
                raise ChaosError(
                    "silent_corrupt must stay finite (NaN poison is "
                    "corrupt_output's job); pick a finite mode"
                )
            magnitude = self.params.get("magnitude", 4.0)
            if not float(magnitude) > 0:
                raise ChaosError(
                    f"corruption magnitude must be positive, got {magnitude}"
                )


@dataclasses.dataclass(frozen=True)
class ChaosPlan:
    """A seed plus the full time-sorted injection schedule for one run."""

    seed: int
    injections: tuple[Injection, ...] = ()
    clock_jitter_s: float = 0.0

    def __post_init__(self) -> None:
        if self.clock_jitter_s < 0:
            raise ChaosError(
                f"clock jitter must be >= 0, got {self.clock_jitter_s}"
            )
        object.__setattr__(
            self,
            "injections",
            tuple(
                sorted(self.injections, key=lambda inj: (inj.t_s, inj.kind))
            ),
        )

    def counts(self) -> dict[str, int]:
        """Injection count per kind (for reports and audits)."""
        out: dict[str, int] = {}
        for injection in self.injections:
            out[injection.kind] = out.get(injection.kind, 0) + 1
        return out

    def rng_for(self, index: int) -> np.random.Generator:
        """The derived generator injection ``index`` must draw from.

        Keyed on ``(seed, index)`` so every injection owns an
        independent stream regardless of consumption order.
        """
        if not 0 <= index < len(self.injections):
            raise ChaosError(
                f"injection index {index} out of range "
                f"[0, {len(self.injections)})"
            )
        return np.random.default_rng((int(self.seed), int(index)))


@dataclasses.dataclass(frozen=True)
class ChaosProfile:
    """Knobs for :func:`compile_plan`: how much chaos, where, over when.

    ``workers`` are the serving worker ids injections may target;
    ``stages`` (pipeline stage indices) routes stuck bursts at sharded
    stages instead of whole workers when non-empty.
    """

    window_s: float
    workers: tuple[int, ...] = (0,)
    stages: tuple[int, ...] = ()
    crashes: int = 2
    corruptions: int = 1
    silent_corruptions: int = 0
    stuck_bursts: int = 1
    drift_bursts: int = 0
    breaker_storms: int = 1
    stuck_fraction: float = 0.02
    stuck_level: int | None = None
    drift_age_s: float = 1e7
    clock_jitter_s: float = 0.0
    corrupt_magnitude: float = 4.0

    def __post_init__(self) -> None:
        if not self.window_s > 0:
            raise ChaosError(f"window must be positive, got {self.window_s}")
        if not self.workers:
            raise ChaosError("profile needs at least one target worker id")
        if not self.corrupt_magnitude > 0:
            raise ChaosError(
                f"corrupt magnitude must be positive, "
                f"got {self.corrupt_magnitude}"
            )
        for name in (
            "crashes",
            "corruptions",
            "silent_corruptions",
            "stuck_bursts",
            "drift_bursts",
            "breaker_storms",
        ):
            if getattr(self, name) < 0:
                raise ChaosError(f"{name} must be >= 0")
        if not 0.0 < self.stuck_fraction <= 1.0:
            raise ChaosError(
                f"stuck fraction must be in (0, 1], got {self.stuck_fraction}"
            )


def compile_plan(profile: ChaosProfile, seed: int) -> ChaosPlan:
    """Draw a full schedule from ``profile`` under chaos seed ``seed``.

    All randomness (times, targets, crash phases) comes from a single
    generator keyed on the seed, so the *plan itself* is reproducible;
    apply-time randomness then comes from per-injection derived streams
    (:meth:`ChaosPlan.rng_for`).
    """
    rng = np.random.default_rng(int(seed))
    window = float(profile.window_s)
    injections: list[Injection] = []

    def draw_t() -> float:
        # Keep injections inside (5%, 95%) of the window so they land
        # while the workload is actually running.
        return float(rng.uniform(0.05 * window, 0.95 * window))

    def draw_worker() -> int:
        return int(rng.choice(profile.workers))

    for _ in range(profile.crashes):
        phase = CRASH_PHASES[int(rng.integers(len(CRASH_PHASES)))]
        injections.append(
            Injection(draw_t(), "worker_crash", draw_worker(), {"phase": phase})
        )
    for _ in range(profile.corruptions):
        injections.append(
            Injection(draw_t(), "corrupt_output", draw_worker(), {})
        )
    # Drawn after the legacy kinds and only when requested, so profiles
    # predating silent_corrupt compile to bit-identical plans.
    finite_modes = [m for m in CORRUPT_MODES if m != "nan"]
    for _ in range(profile.silent_corruptions):
        mode = finite_modes[int(rng.integers(len(finite_modes)))]
        injections.append(
            Injection(
                draw_t(),
                "silent_corrupt",
                draw_worker(),
                {"mode": mode, "magnitude": float(profile.corrupt_magnitude)},
            )
        )
    for _ in range(profile.stuck_bursts):
        params = {
            "fraction": float(profile.stuck_fraction),
            "stuck_level": profile.stuck_level,
        }
        if profile.stages:
            params["stage"] = int(rng.choice(profile.stages))
        injections.append(
            Injection(draw_t(), "stuck_burst", draw_worker(), params)
        )
    for _ in range(profile.drift_bursts):
        injections.append(
            Injection(
                draw_t(),
                "drift_burst",
                draw_worker(),
                {"age_s": float(profile.drift_age_s)},
            )
        )
    for _ in range(profile.breaker_storms):
        injections.append(Injection(draw_t(), "breaker_storm", None, {}))

    return ChaosPlan(
        seed=int(seed),
        injections=tuple(injections),
        clock_jitter_s=float(profile.clock_jitter_s),
    )

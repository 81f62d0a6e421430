"""Seeded diurnal + bursty multi-tenant arrival-trace generation.

The fleet control plane is exercised against an open-loop trace shaped
like real edge-serving traffic: a diurnal sinusoid (trough at the start
and end of the horizon, peak in the middle), multiplicative burst
windows stacked on top, and a tenant mix in which each arrival carries a
tenant name, priority tier, deadline policy, and traffic class
(``infer`` or ``train``).

Rates are expressed as *multiples of one worker's sustainable full-batch
rate* (``unit_rate_hz``), so the same config scales from a 2-worker
smoke run to a several-hundred-worker fleet without retuning: a
``base_rate_x`` of 2.0 means the mean offered load equals two workers'
worth of capacity.

Arrivals are drawn by thinning a homogeneous Poisson process at the
envelope rate — the standard exact sampler for a non-homogeneous Poisson
process — from a single seeded generator, so a (config, seed,
unit_rate) triple always produces the identical request list, which is
what the fleet replay gate leans on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving.request import InferenceRequest
from repro.serving.workload import requests_from_draws


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's traffic contract."""

    name: str
    #: Relative share of arrivals (normalized across tenants).
    weight: float
    #: Priority tier every request from this tenant carries.
    priority: int = 0
    #: Fraction of this tenant's requests carrying a hard deadline.
    deadline_fraction: float = 0.9
    #: Traffic class — degraded mode freezes ``"train"`` before brownout.
    kind: str = "infer"

    def __post_init__(self) -> None:
        if not self.name:
            raise ServingError("tenant needs a non-empty name")
        if not 0.0 < self.weight < math.inf:
            raise ServingError(
                f"tenant {self.name}: weight must be positive and finite, "
                f"got {self.weight}"
            )
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ServingError(
                f"tenant {self.name}: deadline fraction must be in [0, 1]"
            )
        if self.kind not in ("infer", "train"):
            raise ServingError(
                f"tenant {self.name}: kind must be 'infer' or 'train', "
                f"got {self.kind!r}"
            )


@dataclass(frozen=True)
class Burst:
    """A multiplicative surge window on top of the diurnal curve."""

    start_s: float
    duration_s: float
    gain: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.start_s < math.inf and 0.0 < self.duration_s < math.inf):
            raise ServingError(
                "burst must start at a finite time >= 0 and last a finite "
                f"positive duration, got {self.start_s} and {self.duration_s}"
            )
        if not 1.0 <= self.gain < math.inf:
            raise ServingError(f"burst gain must be finite and >= 1, got {self.gain}")

    @property
    def end_s(self) -> float:
        """Instant the burst window closes [s]."""
        return self.start_s + self.duration_s

    def active(self, t_s: float) -> bool:
        """Whether ``t_s`` falls inside the half-open burst window."""
        return self.start_s <= t_s < self.end_s


DEFAULT_TENANTS = (
    TenantSpec("free", weight=0.55, priority=0, deadline_fraction=0.9),
    TenantSpec("pro", weight=0.30, priority=1, deadline_fraction=0.95),
    TenantSpec(
        "train", weight=0.10, priority=0, deadline_fraction=0.0, kind="train"
    ),
    TenantSpec("enterprise", weight=0.05, priority=2, deadline_fraction=1.0),
)


@dataclass(frozen=True)
class TraceConfig:
    """Shape of one diurnal + burst multi-tenant trace.

    All times are virtual seconds; all rates are multiples of
    ``unit_rate_hz`` (one worker's sustainable full-batch throughput),
    resolved at synthesis time.
    """

    duration_s: float
    #: Mean offered load, in worker-equivalents.
    base_rate_x: float
    #: Diurnal modulation depth in [0, 1): rate spans
    #: ``base * (1 - amp)`` (trough) to ``base * (1 + amp)`` (peak).
    diurnal_amplitude: float = 0.8
    #: Diurnal period; defaults to ``duration_s`` (one full day-cycle,
    #: trough at both ends, peak mid-horizon).
    period_s: float | None = None
    bursts: tuple[Burst, ...] = ()
    tenants: tuple[TenantSpec, ...] = DEFAULT_TENANTS
    seed: int = 0
    #: Hard cap on synthesized arrivals (guards a mistyped rate).
    max_requests: int = 2_000_000

    def __post_init__(self) -> None:
        if not 0.0 < self.duration_s < math.inf:
            raise ServingError(
                f"trace duration must be positive and finite, got {self.duration_s}"
            )
        if not 0.0 < self.base_rate_x < math.inf:
            raise ServingError(
                f"base rate must be positive and finite, got {self.base_rate_x}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ServingError(
                f"diurnal amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}"
            )
        if self.period_s is not None and not 0.0 < self.period_s < math.inf:
            raise ServingError(
                f"diurnal period must be positive and finite, got {self.period_s}"
            )
        if not self.tenants:
            raise ServingError("trace needs at least one tenant")
        # The total synthesize_trace normalizes the mix by: finite weights
        # can still overflow it, and an infinite total makes the mix NaN.
        with np.errstate(over="ignore"):
            total = np.array([t.weight for t in self.tenants], dtype=float).sum()
        if not total < math.inf:
            raise ServingError(f"tenant weights must have a finite sum, got {total}")
        if self.max_requests < 1:
            raise ServingError(f"max_requests must be >= 1, got {self.max_requests}")
        for burst in self.bursts:
            if burst.start_s >= self.duration_s:
                raise ServingError(
                    f"burst at {burst.start_s:g}s starts past the trace end"
                )

    # -- rate envelope -------------------------------------------------
    def rate_x(self, t_s: float) -> float:
        """Offered load at ``t_s`` in worker-equivalents."""
        period = self.period_s if self.period_s is not None else self.duration_s
        diurnal = 1.0 - self.diurnal_amplitude * math.cos(
            2.0 * math.pi * t_s / period
        )
        gain = 1.0
        for burst in self.bursts:
            if burst.active(t_s):
                gain *= burst.gain
        return self.base_rate_x * diurnal * gain

    def peak_rate_x(self) -> float:
        """Upper envelope of :meth:`rate_x` (the thinning bound).

        Its burst factor is the largest product of gains active together.
        Every burst active at some instant is still active at the latest
        start among them, and every gain is >= 1, so the products at the
        burst starts cover every instant.  Without overlap this is the
        largest single gain.
        """
        gain = 1.0
        for burst in self.bursts:
            together = 1.0
            for other in self.bursts:
                if other.active(burst.start_s):
                    together *= other.gain
            gain = max(gain, together)
        return self.base_rate_x * (1.0 + self.diurnal_amplitude) * gain

    def peak_window(self) -> tuple[float, float]:
        """The window the smoke gate grades p99 over: the first burst,
        or the middle fifth of the horizon when no burst is configured."""
        if self.bursts:
            burst = self.bursts[0]
            return burst.start_s, min(burst.end_s, self.duration_s)
        return 0.4 * self.duration_s, 0.6 * self.duration_s


def synthesize_trace(
    config: TraceConfig, unit_rate_hz: float, n_in: int, slo_latency_s: float
) -> list[InferenceRequest]:
    """Draw the full arrival list for one trace.

    ``unit_rate_hz`` converts worker-equivalents to requests/s; ``n_in``
    sizes the input vectors; ``slo_latency_s`` is the latency budget
    deadlines are derived from (``arrival + slo``).

    Each thinning candidate takes one scalar ``exponential`` gap and one
    scalar ``random()`` coin; each accepted one then takes one row of
    draws (:func:`~repro.serving.workload.requests_from_draws`).
    """
    if not 0.0 < unit_rate_hz < math.inf:
        raise ServingError("unit rate must be positive and finite")
    rng = np.random.default_rng(config.seed)
    weights = np.array([t.weight for t in config.tenants], dtype=float)
    weights /= weights.sum()
    envelope_hz = config.peak_rate_x() * unit_rate_hz
    gap_s = 1.0 / envelope_hz
    duration_s = config.duration_s
    rate_x = config.rate_x
    exponential, random = rng.exponential, rng.random
    draws = np.empty((min(1024, config.max_requests), 2 + n_in))
    times: list[float] = []
    t = 0.0
    while True:
        t += exponential(gap_s)
        if t >= duration_s:
            break
        # Thinning: accept with probability rate(t) / envelope.
        if random() * envelope_hz > rate_x(t) * unit_rate_hz:
            continue
        n = len(times)
        if n == len(draws):
            grown = np.empty((min(2 * n, config.max_requests), draws.shape[1]))
            grown[:n] = draws
            draws = grown
        random(out=draws[n])
        times.append(t)
        if len(times) >= config.max_requests:
            raise ServingError(
                f"trace exceeded max_requests={config.max_requests}; "
                "lower base_rate_x or duration_s"
            )
    return requests_from_draws(
        times,
        draws[: len(times)],
        weights,
        [tenant.deadline_fraction for tenant in config.tenants],
        slo_latency_s,
        [
            {"priority": tenant.priority, "tenant": tenant.name, "kind": tenant.kind}
            for tenant in config.tenants
        ],
    )

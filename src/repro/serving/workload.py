"""Synthetic open-loop serving workloads and the ``repro serve`` gate.

The canonical workload is a three-phase Poisson arrival process —
**warm** (comfortably under capacity), **burst** (2x the sustainable
rate, forcing priority-aware shedding), **drain** (back under capacity)
— with one accelerator forced into PCM degradation mid-run so the
breaker's trip / repair / restore arc is exercised under live traffic.

Everything is generated from one seeded :class:`numpy.random.Generator`
and served on the virtual clock, so a given seed replays to a
bit-identical decision log.  :func:`serve_gate` is the ``repro serve
--smoke`` CI gate: the shared :mod:`repro.chaos.audit` invariants over a
run and its replay, plus this scenario's own checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving.request import InferenceRequest
from repro.serving.server import (
    ServeReport,
    ServerConfig,
    ServeRun,
    TridentServer,
    serve_run,
)
from repro.serving.worker import AcceleratorWorker, remap_manager
from repro.sharding.pipeline import single_chip_pipeline


@dataclass(frozen=True)
class Phase:
    """One arrival-process phase."""

    name: str
    n_requests: int
    #: Arrival rate as a multiple of the cluster's sustainable rate.
    rate_multiplier: float

    def __post_init__(self) -> None:
        if self.n_requests < 0:
            raise ServingError(f"{self.name}: n_requests must be >= 0")
        if not 0.0 < self.rate_multiplier < math.inf:
            raise ServingError(
                f"{self.name}: rate multiplier must be positive and finite, "
                f"got {self.rate_multiplier}"
            )


def three_phases(n_requests: int, burst: float = 2.0) -> tuple[Phase, ...]:
    """Warm, burst and drain, ``n_requests`` each; ``burst`` is the burst
    phase's rate multiplier."""
    return (
        Phase("warm", n_requests, 0.6),
        Phase("burst", n_requests, burst),
        Phase("drain", n_requests, 0.35),
    )


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the synthetic serving run."""

    dims: tuple[int, ...] = (12, 16, 4)
    n_workers: int = 2
    seed: int = 7
    phases: tuple[Phase, ...] = three_phases(400)
    #: P(priority = 0 / 1 / 2) for each arrival.
    priority_probs: tuple[float, ...] = (0.97, 0.025, 0.005)
    #: Fraction of requests carrying a hard deadline (rest best-effort).
    deadline_fraction: float = 0.9
    #: Stuck-cell fraction injected into the degraded worker mid-run
    #: (0.0 schedules no forced degradation).
    degrade_fraction: float = 0.08
    #: Which phase the forced degradation lands in (by name).
    degrade_phase: str = "drain"
    server: ServerConfig = ServerConfig(breaker_cooldown_s=5e-6, seed=7)

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ServingError(f"dims must be >= 2 positive widths, got {self.dims}")
        if self.n_workers < 1:
            raise ServingError(f"n_workers must be >= 1, got {self.n_workers}")
        if not all(0.0 <= p < math.inf for p in self.priority_probs):
            raise ServingError(
                "priority probabilities must be finite and non-negative, "
                f"got {self.priority_probs}"
            )
        if not abs(sum(self.priority_probs) - 1.0) <= 1e-9:
            raise ServingError("priority probabilities must sum to 1")
        if not 0.0 <= self.deadline_fraction <= 1.0:
            raise ServingError("deadline fraction must be in [0, 1]")
        if not any(p.name == self.degrade_phase for p in self.phases):
            raise ServingError(
                f"degrade phase {self.degrade_phase!r} is not a phase name"
            )


# ----------------------------------------------------------------------
# Fleet construction
# ----------------------------------------------------------------------
def serving_chip(dims: tuple[int, ...], seed: int):
    """The serving presets' chip: a :func:`~repro.scenarios.small_chip`
    with four spare rows per bank, mapped for ``dims``, not yet
    programmed."""
    from repro.scenarios import small_chip

    return small_chip(dims, seed, spare_rows=4)


def build_worker(
    worker_id: int, dims: tuple[int, ...], seed: int
) -> AcceleratorWorker:
    """One mapped, programmed, repairable single-chip worker."""
    from repro.scenarios import seeded_weights

    acc = serving_chip(dims, seed)
    manager = remap_manager(acc)
    manager.deploy(seeded_weights(dims, seed))
    return AcceleratorWorker(worker_id, single_chip_pipeline(acc), [[manager]])


def sustainable_rate_hz(workers: list[AcceleratorWorker], max_batch: int) -> float:
    """Aggregate full-batch throughput of the fleet [requests/s]."""
    return sum(
        max_batch / worker.service_time_s(max_batch) for worker in workers
    )


# ----------------------------------------------------------------------
# Arrival synthesis
# ----------------------------------------------------------------------
def categorical(probs, u: np.ndarray) -> np.ndarray:
    """The categories ``Generator.choice(len(probs), p=probs)`` draws
    from the doubles ``u``.

    ``choice`` builds ``cdf = p.cumsum(); cdf /= cdf[-1]`` from the
    float64 ``p`` and returns ``cdf.searchsorted(random(), side="right")``
    for one ``random()`` double.  This builds the same CDF once and
    searches it for every double of ``u``.  ``choice`` also re-checks
    ``p`` on every call; the config records check their probabilities
    once, at construction.
    """
    cdf = np.asarray(probs, dtype=np.float64).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


def requests_from_draws(
    times: list[float],
    draws: np.ndarray,
    probs,
    deadline_fractions,
    slo_s: float,
    classes: list[dict],
) -> list[InferenceRequest]:
    """The requests arriving at ``times``, each drawn from its row of
    ``draws``.

    Row ``i`` holds the ``2 + n_in`` doubles request ``i`` took with one
    ``random(out=draws[i])`` call: the double ``choice(p=probs)`` would
    have read for its class, its deadline coin, then the ``n_in`` doubles
    ``uniform(-1, 1, n_in)`` would have read.  Each of those takes
    exactly one 64-bit generator output per double, so the row holds the
    bits of the three calls it replaces.  A request of class ``k``
    carries the fields ``classes[k]`` and the deadline ``t + slo_s`` when
    its coin is below ``deadline_fractions[k]``.  Its input is ``2u - 1``,
    computed in place: ``uniform`` computes ``-1 + 2u``, and ``2u`` is
    exact, so both round once, the same way.  ``draws`` is then
    read-only, and each request's ``x`` is one of its rows.
    """
    categories = categorical(probs, draws[:, 0])
    fractions = np.array(deadline_fractions, dtype=np.float64)
    has_deadline = (draws[:, 1] < fractions[categories]).tolist()
    draws[:, 2:] *= 2.0
    draws[:, 2:] -= 1.0
    draws.flags.writeable = False
    return [
        InferenceRequest(
            request_id=i,
            x=x,
            arrival_s=t,
            deadline_s=t + slo_s if deadline else None,
            **classes[k],
        )
        for i, (t, k, deadline, x) in enumerate(
            zip(times, categories.tolist(), has_deadline, draws[:, 2:])
        )
    ]


def synthesize_arrivals(
    config: WorkloadConfig,
    rate_hz: float,
    rng: np.random.Generator,
) -> tuple[list[InferenceRequest], dict[str, tuple[float, float]]]:
    """Poisson arrivals for every phase; returns (requests, phase windows).

    Each request takes one scalar ``exponential`` gap, then one row of
    draws (:func:`requests_from_draws`).
    """
    draws = np.empty((sum(p.n_requests for p in config.phases), 2 + config.dims[0]))
    times: list[float] = []
    windows: dict[str, tuple[float, float]] = {}
    exponential, random = rng.exponential, rng.random
    t = 0.0
    for phase in config.phases:
        start = t
        gap_s = 1.0 / (rate_hz * phase.rate_multiplier)
        for _ in range(phase.n_requests):
            t += exponential(gap_s)
            random(out=draws[len(times)])
            times.append(t)
        windows[phase.name] = (start, t)
    n_priorities = len(config.priority_probs)
    requests = requests_from_draws(
        times,
        draws,
        config.priority_probs,
        [config.deadline_fraction] * n_priorities,
        config.server.slo_latency_s,
        [{"priority": k} for k in range(n_priorities)],
    )
    return requests, windows


# ----------------------------------------------------------------------
# The run itself
# ----------------------------------------------------------------------
def run_serve_workload(
    config: WorkloadConfig | None = None,
    *,
    chaos_plan=None,
) -> ServeRun:
    """Build the fleet, synthesize arrivals, serve to completion.

    The first worker is forced into PCM degradation a quarter of the way
    into ``degrade_phase`` (stuck-cell injection + readback refresh), so
    its batches start failing, its breaker trips, and the half-open
    repair path has to win the worker back under live traffic.
    ``chaos_plan`` (a plan, or a callable of the arrival span) serves
    the run under chaos (see :func:`~repro.serving.server.serve_run`).
    """
    config = config or WorkloadConfig()
    workers = [
        build_worker(i, config.dims, config.seed + 101 * i)
        for i in range(config.n_workers)
    ]
    server = TridentServer(workers, config=config.server)
    rate = sustainable_rate_hz(workers, config.server.max_batch)
    rng = np.random.default_rng(config.seed)
    arrivals, windows = synthesize_arrivals(config, rate, rng)

    if config.degrade_fraction > 0.0:
        start, end = windows[config.degrade_phase]
        fraction = config.degrade_fraction

        def force_degradation(srv: TridentServer) -> None:
            srv.workers[0].degrade(fraction, stuck_level=254)

        server.schedule_action(
            start + 0.25 * (end - start), "force_degradation", force_degradation
        )
    return serve_run(server, arrivals, chaos_plan)


# ----------------------------------------------------------------------
# Smoke gate
# ----------------------------------------------------------------------
def shed_rate_by_priority(report: ServeReport) -> dict[int, float]:
    """Per-priority shed fraction over all submitted requests."""
    submitted: dict[int, int] = {}
    for completion in report.completed:
        p = completion.request.priority
        submitted[p] = submitted.get(p, 0) + 1
    shed: dict[int, int] = {}
    for rejection in report.shed:
        p = rejection.request.priority
        submitted[p] = submitted.get(p, 0) + 1
        shed[p] = shed.get(p, 0) + 1
    return {
        p: shed.get(p, 0) / total for p, total in sorted(submitted.items())
    }


def serve_gate(run: ServeRun, replay: ServeRun):
    """The ``repro serve --smoke`` verdict on a run and its replay.

    The shared audit (conservation, structured sheds, atomic batches,
    finite outputs, charged repairs, bit-identical replay) plus the
    serve scenario's own checks: completion, latency, priority-aware
    backpressure, the breaker arc and retries.
    """
    from repro.chaos.audit import audit_serve_run, record_breaker_arc

    result = audit_serve_run(run, replay=replay)
    report = run.report
    p99 = report.latency_quantile_s(0.99)
    rates = shed_rate_by_priority(report)
    high = [rate for p, rate in rates.items() if p > 0]
    result.record(
        "completion_rate",
        report.completion_rate >= 0.99,
        f"{report.completion_rate * 100:.2f}% of admitted (>= 99%)",
    )
    result.record(
        "p99_within_slo",
        p99 <= report.slo_latency_s,
        f"p99 {p99 * 1e6:.2f} us vs SLO {report.slo_latency_s * 1e6:.2f} us",
    )
    result.record(
        "overload_shed", len(report.shed) > 0, f"{len(report.shed)} shed"
    )
    result.record(
        "shed_skews_low_priority",
        not report.shed or (0 in rates and (not high or rates[0] >= max(high))),
        ", ".join(f"p{p}={rate * 100:.1f}%" for p, rate in rates.items()),
    )
    record_breaker_arc(result, report)
    result.record(
        "retries_exercised",
        report.retries_scheduled > 0,
        f"{report.retries_scheduled} scheduled",
    )
    return result

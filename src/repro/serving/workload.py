"""Synthetic open-loop serving workloads and the smoke-gate checks.

The canonical workload is a three-phase Poisson arrival process —
**warm** (comfortably under capacity), **burst** (2x the sustainable
rate, forcing priority-aware shedding), **drain** (back under capacity)
— with one accelerator forced into PCM degradation mid-run so the
breaker's trip / repair / restore arc is exercised under live traffic.

Everything is generated from one seeded :class:`numpy.random.Generator`
and served on the virtual clock, so a given seed replays to a
bit-identical decision log; :func:`smoke_checks` turns that plus the
robustness invariants into the pass/fail list the ``repro serve
--smoke`` CI gate prints.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ServingError
from repro.serving.request import InferenceRequest, ShedReason
from repro.serving.server import ServeReport, ServerConfig, TridentServer
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
        if self.rate_multiplier <= 0:
            raise ServingError(f"{self.name}: rate multiplier must be positive")


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the synthetic serving run."""

    dims: tuple[int, ...] = (12, 16, 4)
    n_workers: int = 2
    seed: int = 7
    phases: tuple[Phase, ...] = (
        Phase("warm", 400, 0.6),
        Phase("burst", 400, 2.0),
        Phase("drain", 400, 0.35),
    )
    #: P(priority = 0 / 1 / 2) for each arrival.
    priority_probs: tuple[float, ...] = (0.97, 0.025, 0.005)
    #: Fraction of requests carrying a hard deadline (rest best-effort).
    deadline_fraction: float = 0.9
    #: Stuck-cell fraction injected into the degraded worker mid-run.
    degrade_fraction: float = 0.08
    #: Which phase the forced degradation lands in (by name).
    degrade_phase: str = "drain"
    server: ServerConfig = ServerConfig(
        max_queue_depth=64,
        max_batch=16,
        slo_latency_s=1e-5,
        max_retries=2,
        retry_backoff_s=5e-7,
        retry_jitter_s=1e-7,
        breaker_failure_threshold=3,
        breaker_cooldown_s=5e-6,
        seed=7,
    )

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ServingError(f"dims must be >= 2 positive widths, got {self.dims}")
        if self.n_workers < 1:
            raise ServingError(f"n_workers must be >= 1, got {self.n_workers}")
        if abs(sum(self.priority_probs) - 1.0) > 1e-9:
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
    """The serving presets' chip: mapped for ``dims``, not yet programmed.

    Banks sized to the widest layer (one tile per layer), four spare
    rows per bank, a program-verify writer, and no convergence floor so
    readback alone decides health.
    """
    from repro.arch import TridentAccelerator, TridentConfig
    from repro.devices.program_verify import ProgramVerifyConfig

    rows = max(max(dims), 2)
    config = TridentConfig(
        bank_rows=rows, bank_cols=rows, spare_rows=4, convergence_floor=0.0
    )
    acc = TridentAccelerator(
        config=config, seed=seed, program_verify=ProgramVerifyConfig()
    )
    acc.map_mlp(list(dims))
    return acc


def build_worker(
    worker_id: int, dims: tuple[int, ...], seed: int
) -> AcceleratorWorker:
    """One mapped, programmed, repairable single-chip worker."""
    acc = serving_chip(dims, seed)
    rng = np.random.default_rng(seed + 1)
    weights = [
        rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
        for i in range(len(dims) - 1)
    ]
    manager = remap_manager(acc)
    manager.deploy([w.copy() for w in weights])
    return AcceleratorWorker(worker_id, single_chip_pipeline(acc), [[manager]])


def sustainable_rate_hz(workers: list[AcceleratorWorker], max_batch: int) -> float:
    """Aggregate full-batch throughput of the fleet [requests/s]."""
    return sum(
        max_batch / worker.service_time_s(max_batch) for worker in workers
    )


# ----------------------------------------------------------------------
# Arrival synthesis
# ----------------------------------------------------------------------
def synthesize_arrivals(
    config: WorkloadConfig,
    rate_hz: float,
    rng: np.random.Generator,
) -> tuple[list[InferenceRequest], dict[str, tuple[float, float]]]:
    """Poisson arrivals for every phase; returns (requests, phase windows)."""
    requests: list[InferenceRequest] = []
    windows: dict[str, tuple[float, float]] = {}
    t = 0.0
    request_id = 0
    n_in = config.dims[0]
    slo = config.server.slo_latency_s
    for phase in config.phases:
        start = t
        lam = rate_hz * phase.rate_multiplier
        for _ in range(phase.n_requests):
            t += float(rng.exponential(1.0 / lam))
            priority = int(
                rng.choice(len(config.priority_probs), p=config.priority_probs)
            )
            deadline = (
                t + slo if rng.random() < config.deadline_fraction else None
            )
            requests.append(
                InferenceRequest(
                    request_id=request_id,
                    x=rng.uniform(-1.0, 1.0, n_in),
                    arrival_s=t,
                    deadline_s=deadline,
                    priority=priority,
                )
            )
            request_id += 1
        windows[phase.name] = (start, t)
    return requests, windows


# ----------------------------------------------------------------------
# The run itself
# ----------------------------------------------------------------------
def run_serve_workload(
    config: WorkloadConfig | None = None,
) -> tuple[ServeReport, TridentServer]:
    """Build the fleet, synthesize arrivals, serve to completion.

    The first worker is forced into PCM degradation a quarter of the way
    into ``degrade_phase`` (stuck-cell injection + readback refresh), so
    its batches start failing, its breaker trips, and the half-open
    repair path has to win the worker back under live traffic.
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

    start, end = windows[config.degrade_phase]
    degrade_at = start + 0.25 * (end - start)
    fraction = config.degrade_fraction

    def force_degradation(srv: TridentServer) -> None:
        srv.workers[0].degrade(fraction, stuck_level=254)

    server.schedule_action(degrade_at, "force_degradation", force_degradation)
    report = server.run(arrivals)
    return report, server


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


def smoke_checks(
    report: ServeReport, replay: ServeReport
) -> list[tuple[str, bool]]:
    """The ``repro serve --smoke`` pass/fail list."""
    transitions = [(t["to"], t["reason"]) for t in report.breaker_transitions]
    tripped = any(to == "open" for to, _ in transitions)
    restored = any(
        to == "closed" and reason == "probe_succeeded"
        for to, reason in transitions
    )
    rates = shed_rate_by_priority(report)
    high = [rate for p, rate in rates.items() if p > 0]
    priority_skewed = not report.shed or (
        0 in rates and (not high or rates[0] >= max(high))
    )
    reasons_ok = all(
        isinstance(r.reason, ShedReason) and r.detail for r in report.shed
    )
    return [
        ("request conservation (no silent drops)", report.conservation_ok()),
        (">= 99% of admitted requests completed", report.completion_rate >= 0.99),
        ("p99 admitted latency within SLO",
         report.latency_quantile_s(0.99) <= report.slo_latency_s),
        ("overload shed requests (backpressure engaged)", len(report.shed) > 0),
        ("shedding skewed away from high priority", priority_skewed),
        ("every shed carries a structured reason", reasons_ok),
        ("breaker tripped on degradation", tripped),
        ("breaker restored via half-open probe", restored),
        ("retries exercised", report.retries_scheduled > 0),
        ("replay is bit-identical", replay.decisions == report.decisions),
    ]

"""End-to-end fleet runs: scenario presets, the runner, and the fleet gate.

A fleet run wires the whole control plane together: a
:class:`~repro.fleet.pool.WorkerPool` bootstraps the initial fleet, a
:class:`~repro.serving.server.TridentServer` serves a seeded diurnal +
burst multi-tenant trace (:mod:`repro.fleet.trace`), an always-on
:class:`~repro.telemetry.rollup.ServingRollup` feeds the
:class:`~repro.fleet.controller.FleetController`, and an optional
:class:`~repro.chaos.plan.ChaosPlan` injects faults mid-run.  The
*uncontrolled* variant of the same run — static initial fleet, no
controller — is the baseline the smoke gate compares against: it must
demonstrably miss the p99 SLO at peak where the controlled run meets it.

The peak-window p99 treats a shed request as infinite latency, so the
gate cannot be gamed by shedding the burst away: the controlled run
passes only if at least 99% of burst-window arrivals complete on time.
"""

from __future__ import annotations

import dataclasses
import math

from repro.errors import ServingError
from repro.fleet.controller import ControllerConfig, FleetController
from repro.fleet.pool import WorkerPool
from repro.fleet.trace import Burst, TraceConfig, synthesize_trace
from repro.serving.server import (
    ServeReport,
    ServerConfig,
    ServeRun,
    TridentServer,
    serve_run,
)
from repro.telemetry.rollup import ServingRollup

#: Where the smoke scenario's breaker storm lands, as a fraction of the
#: trace horizon: after the burst window (~0.38-0.46) but still inside
#: the diurnal peak region, so the storm — not the burst — drives the
#: degraded-mode episode while the burst drives the p99 gate.
STORM_AT_FRACTION = 0.55


@dataclasses.dataclass(frozen=True)
class FleetScenario:
    """One fully-specified fleet run (trace + server + controller)."""

    name: str
    trace: TraceConfig
    server: ServerConfig
    controller: ControllerConfig
    dims: tuple[int, ...] = (12, 16, 4)
    initial_workers: int = 2
    seed: int = 11

    def __post_init__(self) -> None:
        if self.initial_workers < self.controller.min_workers:
            raise ServingError(
                f"initial fleet ({self.initial_workers}) below the "
                f"controller's min_workers ({self.controller.min_workers})"
            )


def _server_config(seed: int, max_queue_depth: int = 4096) -> ServerConfig:
    # The cooldown is long enough (3 controller ticks) that a breaker storm
    # opens a real capacity hole the degraded ladder has to ride out.
    return ServerConfig(
        max_queue_depth=max_queue_depth, breaker_cooldown_s=3e-5, seed=seed
    )


def smoke_scenario(seed: int = 11) -> FleetScenario:
    """The CI gate: 2 -> ~8 workers, one burst, one mid-peak storm."""
    duration = 1e-3
    return FleetScenario(
        name="smoke",
        dims=(12, 16, 4),
        initial_workers=2,
        seed=seed,
        trace=TraceConfig(
            duration_s=duration,
            base_rate_x=1.5,
            diurnal_amplitude=0.8,
            bursts=(Burst(0.38 * duration, 0.08 * duration, 1.7),),
            seed=seed,
        ),
        server=_server_config(seed),
        controller=ControllerConfig(
            interval_s=5e-6,
            window_s=1.5e-5,
            slo_latency_s=1e-5,
            min_workers=2,
            max_workers=8,
            warmup_s=2e-6,
            power_budget_w=0.25,
        ),
    )


def standard_scenario(seed: int = 11) -> FleetScenario:
    """A mid-size run for local exploration (4 -> ~32 workers)."""
    duration = 6e-4
    return FleetScenario(
        name="standard",
        dims=(12, 16, 4),
        initial_workers=4,
        seed=seed,
        trace=TraceConfig(
            duration_s=duration,
            base_rate_x=6.0,
            diurnal_amplitude=0.8,
            bursts=(Burst(0.38 * duration, 0.08 * duration, 2.0),),
            seed=seed,
        ),
        server=_server_config(seed),
        controller=ControllerConfig(
            interval_s=6e-6,
            window_s=1.8e-5,
            slo_latency_s=1e-5,
            min_workers=4,
            max_workers=32,
            warmup_s=3e-6,
            power_budget_w=1.0,
        ),
    )


def large_scenario(seed: int = 11) -> FleetScenario:
    """The hundreds-of-workers run the tentpole is sized for."""
    duration = 2.5e-4
    return FleetScenario(
        name="large",
        dims=(12, 16, 4),
        initial_workers=48,
        seed=seed,
        trace=TraceConfig(
            duration_s=duration,
            base_rate_x=64.0,
            diurnal_amplitude=0.8,
            bursts=(Burst(0.38 * duration, 0.08 * duration, 1.5),),
            seed=seed,
        ),
        server=_server_config(seed, max_queue_depth=16384),
        controller=ControllerConfig(
            interval_s=5e-6,
            window_s=1.5e-5,
            slo_latency_s=1e-5,
            min_workers=48,
            max_workers=256,
            warmup_s=2.5e-6,
            power_budget_w=8.0,
        ),
    )


SCENARIOS = {
    "smoke": smoke_scenario,
    "standard": standard_scenario,
    "large": large_scenario,
}


def smoke_chaos_plan(scenario: FleetScenario):
    """A fleet-wide breaker-storm volley, mid-diurnal-peak.

    Hand-built (not drawn from a profile) so the smoke gate's timing is
    exact.  Three back-to-back storms one controller tick apart keep
    re-tripping every breaker — including replacement workers the
    controller commissions mid-storm — so the capacity hole outlasts
    the degraded-mode enter window and the ladder has to engage; a
    single storm is repaired by commissioning before two bad ticks
    accumulate.
    """
    from repro.chaos.plan import ChaosPlan, Injection

    storm_at = STORM_AT_FRACTION * scenario.trace.duration_s
    step = 1.2 * scenario.controller.interval_s
    return ChaosPlan(
        seed=scenario.seed,
        injections=tuple(
            Injection(storm_at + i * step, "breaker_storm", None)
            for i in range(3)
        ),
    )


# ----------------------------------------------------------------------
# The run itself
# ----------------------------------------------------------------------
@dataclasses.dataclass(kw_only=True)
class FleetRunResult(ServeRun):
    """Everything one fleet run produced: the served run plus the
    control plane that shaped it."""

    scenario: FleetScenario
    pool: WorkerPool
    #: None for uncontrolled (static-knob baseline) runs.
    controller: FleetController | None
    unit_rate_hz: float
    n_requests: int

    def as_dict(self) -> dict:
        """JSON-ready summary: fleet counts, controller report, serve stats."""
        doc = {
            "scenario": self.scenario.name,
            "requests": self.n_requests,
            "unit_rate_hz": self.unit_rate_hz,
            "fleet": self.pool.counts(),
            "chaos_applied": (
                0 if self.session is None else len(self.session.applied)
            ),
            "serve": self.report.as_dict(),
        }
        if self.controller is not None:
            doc["controller"] = self.controller.report()
        return doc


def run_fleet_workload(
    scenario: FleetScenario,
    controlled: bool = True,
    chaos_plan=None,
) -> FleetRunResult:
    """Build the fleet, synthesize the trace, serve to completion.

    ``controlled=False`` runs the identical trace and chaos on the
    static initial fleet with no controller — the baseline the smoke
    gate uses to show the control plane earns its keep.
    """
    pool = WorkerPool(scenario.dims, scenario.seed)
    workers = pool.bootstrap(scenario.initial_workers)
    rollup = ServingRollup(scenario.controller.window_s)
    server = TridentServer(workers, config=scenario.server, rollup=rollup)
    pool.bind(server)

    unit_rate = pool.unit_rate_hz(scenario.server.max_batch)
    arrivals = synthesize_trace(
        scenario.trace,
        unit_rate,
        scenario.dims[0],
        scenario.controller.slo_latency_s,
    )

    controller = None
    if controlled:
        controller = FleetController(server, pool, rollup, scenario.controller)
        controller.install(start_s=scenario.controller.interval_s)

    return FleetRunResult(
        **vars(serve_run(server, arrivals, chaos_plan)),
        scenario=scenario,
        pool=pool,
        controller=controller,
        unit_rate_hz=unit_rate,
        n_requests=len(arrivals),
    )


# ----------------------------------------------------------------------
# Gate metrics
# ----------------------------------------------------------------------
def window_p99_latency_s(
    report: ServeReport, start_s: float, end_s: float
) -> float:
    """p99 latency over requests *arriving* in ``[start_s, end_s)``.

    A shed request contributes infinite latency — it never met its
    target — so this metric is finite only when at least 99% of the
    window's arrivals actually completed.  0.0 when the window is empty.
    """
    latencies: list[float] = []
    for completion in report.completed:
        if start_s <= completion.request.arrival_s < end_s:
            latencies.append(completion.latency_s)
    for rejection in report.shed:
        if start_s <= rejection.request.arrival_s < end_s:
            latencies.append(math.inf)
    if not latencies:
        return 0.0
    latencies.sort()
    index = min(
        len(latencies) - 1, max(0, int(round(0.99 * (len(latencies) - 1))))
    )
    return latencies[index]


def peak_fleet_size(result: FleetRunResult) -> int:
    """Largest commissioned-and-not-yet-decommissioned roster the run saw."""
    size = result.scenario.initial_workers
    peak = size
    for decision in result.report.decisions:
        if decision["kind"] == "commission":
            size += 1
            peak = max(peak, size)
        elif decision["kind"] == "decommission":
            size -= 1
    return peak


# ----------------------------------------------------------------------
# Smoke gate
# ----------------------------------------------------------------------
def fleet_gate(scenario: FleetScenario, chaos_plan=None):
    """The ``repro fleet --smoke`` verdict; returns (audit, run, baseline).

    A controlled run, its replay and a static-knob baseline of the same
    trace and chaos.  The shared fleet audit covers conservation,
    checkpointed decommissions, the settled lifecycle, logged
    actuations, the stopped controller and replay; the gate adds the
    scenario's control-plane outcomes.
    """
    from repro.chaos.audit import audit_fleet_run

    run = run_fleet_workload(scenario, controlled=True, chaos_plan=chaos_plan)
    replay = run_fleet_workload(scenario, controlled=True, chaos_plan=chaos_plan)
    baseline = run_fleet_workload(
        scenario, controlled=False, chaos_plan=chaos_plan
    )
    result = audit_fleet_run(run, replay=replay)
    controller = run.controller
    slo = scenario.controller.slo_latency_s
    peak = scenario.trace.peak_window()
    peak_p99 = window_p99_latency_s(run.report, *peak)
    baseline_p99 = window_p99_latency_s(baseline.report, *peak)
    peak_size = peak_fleet_size(run)
    n_decommissioned = len(run.pool.ids_in("decommissioned"))
    applied = {} if run.session is None else run.session.applied_counts()
    result.record(
        "burst_absorbed",
        peak_p99 <= slo,
        f"peak-window p99 {peak_p99 * 1e6:.2f} us vs SLO {slo * 1e6:.2f} us",
    )
    result.record(
        "baseline_misses_slo",
        baseline_p99 > slo,
        f"static fleet peak-window p99 {baseline_p99 * 1e6:.2f} us",
    )
    result.record(
        "scaled_up",
        controller.scale_up_events > 0
        and peak_size > scenario.initial_workers,
        f"{controller.scale_up_events} events, peak {peak_size} workers",
    )
    result.record(
        "scaled_down",
        controller.scale_down_events > 0 and n_decommissioned > 0,
        f"{controller.scale_down_events} events, "
        f"{n_decommissioned} decommissioned",
    )
    result.record(
        "degraded_entered_once",
        controller.degraded_entries == 1,
        f"{controller.degraded_entries} entries",
    )
    result.record(
        "degraded_exited_once",
        controller.degraded_exits == 1,
        f"{controller.degraded_exits} exits",
    )
    result.record(
        "storm_applied",
        applied.get("breaker_storm", 0) > 0,
        f"{applied.get('breaker_storm', 0)} breaker storms",
    )
    result.record(
        "actuated",
        len(controller.actuations) > 0,
        f"{len(controller.actuations)} actuations",
    )
    return result, run, baseline

"""The SDC-defense workload behind ``repro integrity --smoke``.

A deliberately under-capacity single-phase Poisson serving run (no
admission pressure — the point is the *attestation* arc, not shedding)
executed in five scenarios, each audited by :mod:`repro.chaos.audit`
(:func:`integrity_gate` records its own checks into the same result):

1. **Clean seed matrix** — checks enabled, no chaos, several seeds:
   every batch is attested, zero trips.  This is the false-positive
   gate the noise-calibrated thresholds are accountable to.
2. **Parity** — the same run with checks disabled must produce
   bit-identical outputs and decisions: attestation observes, it never
   perturbs.
3. **Replay** — checks-enabled runs replay bit-identically, clean and
   under chaos (calibration and checksum programming draw from seeded
   streams only).
4. **Injected SDC** — a crash-free chaos plan of ``silent_corrupt``
   injections (finite bias/scale/sign-flip corruption that sails
   through the serving layer's non-finite gate).  Every injection must
   trip the checksum, recover via re-execution (one-shot chaos does
   not repeat), and show up attested in the audit (``sdc_attested``).
5. **Escalation** — persistent analog corruption
   (:meth:`~repro.arch.weight_bank.WeightBank.upset_cells` — realized
   levels drift with no stuck-cell signature, so worker health stays
   green).  Re-execution reproduces the bad sums, the digital spare
   confirms the data path is wrong, and the batch escalates as an
   :class:`~repro.errors.IntegrityFault`: breaker trips, rollup
   records the SDC rate, and the half-open repair window scrubs the
   data tiles from the digital shadow before recalibrating.

All serving/chaos imports live inside functions: ``repro.serving.worker``
imports this package for :func:`~repro.integrity.checker.attest_batch`,
so module-level imports here would be circular.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import ClassVar

import numpy as np

from repro.errors import IntegrityError


@dataclasses.dataclass(frozen=True)
class IntegrityWorkloadConfig:
    """Shape of one attestation workload run.

    The seed and the request count are settable; the model, fleet and
    fault sizes are class constants.
    """

    seed: int = 7
    n_requests: int = 160

    dims: ClassVar[tuple[int, ...]] = (12, 16, 4)
    n_workers: ClassVar[int] = 2
    #: Arrival rate as a multiple of the fleet's sustainable rate —
    #: kept under 1.0 so the run exercises attestation, not shedding.
    rate_multiplier: ClassVar[float] = 0.6
    #: ``silent_corrupt`` injections compiled into the chaos scenario.
    silent_corruptions: ClassVar[int] = 2
    corrupt_magnitude: ClassVar[float] = 4.0
    #: Realized-level upsets per data tile in the escalation scenario.
    upset_cells: ClassVar[int] = 48
    upset_delta: ClassVar[float] = 0.6

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise IntegrityError(f"n_requests must be >= 1, got {self.n_requests}")


def build_integrity_worker(
    worker_id: int,
    dims: tuple[int, ...],
    seed: int,
    *,
    with_integrity: bool = True,
):
    """The serving preset's single-chip worker plus an ABFT checker.

    Reuses :func:`repro.serving.workload.build_worker` unchanged —
    checksum rows are allocated on spare PEs *after* ``deploy``
    finished programming the data tiles, so a checked and an unchecked
    worker consume identical write-noise draws for the data path (the
    parity smoke check depends on this).
    """
    from repro.serving.workload import build_worker

    worker = build_worker(worker_id, dims, seed)
    if with_integrity:
        from repro.integrity.checker import PipelineChecker

        worker.integrity = PipelineChecker(worker.pipeline, seed=seed)
    return worker


def synthesize_integrity_arrivals(
    config: IntegrityWorkloadConfig, rate_hz: float, rng: np.random.Generator
):
    """Single-phase best-effort Poisson arrivals (no deadlines: a batch
    held up by an escalation + peer retry must still settle, not shed)."""
    from repro.serving.request import InferenceRequest

    requests = []
    t = 0.0
    lam = rate_hz * config.rate_multiplier
    n_in = config.dims[0]
    for request_id in range(config.n_requests):
        t += float(rng.exponential(1.0 / lam))
        requests.append(
            InferenceRequest(
                request_id=request_id,
                x=rng.uniform(-1.0, 1.0, n_in),
                arrival_s=t,
                deadline_s=None,
                priority=0,
            )
        )
    return requests


def make_sdc_plan(config: IntegrityWorkloadConfig, window_s: float):
    """A crash-free chaos plan of only ``silent_corrupt`` injections.

    Everything else is zeroed so the sole way a corrupted batch can be
    caught is the checksum attestation — no crash or NaN gate to hide
    behind.  The window is the *arrival* span scaled down so every
    injection lands while its target worker still has batches to run.
    """
    from repro.chaos.plan import ChaosProfile, compile_plan

    profile = ChaosProfile(
        window_s=0.75 * window_s,
        workers=tuple(range(config.n_workers)),
        crashes=0,
        corruptions=0,
        stuck_bursts=0,
        drift_bursts=0,
        breaker_storms=0,
        silent_corruptions=config.silent_corruptions,
        corrupt_magnitude=config.corrupt_magnitude,
    )
    return compile_plan(profile, 20_000 + config.seed)


def _upset_worker(worker, config: IntegrityWorkloadConfig) -> int:
    """Silently drift realized levels on every data tile of one worker.

    Uses a derived generator so the accelerator's own stream (and hence
    replay) is untouched.  Returns cells perturbed.
    """
    rng = np.random.default_rng((0xABF7, config.seed))
    upset = 0
    acc = worker.acc
    for layer in acc.layers:
        for tile in layer.tiles:
            bank = acc.pes[tile[4]].bank
            upset += bank.upset_cells(
                config.upset_cells, rng, delta=config.upset_delta
            )
    return upset


def run_integrity_workload(
    config: IntegrityWorkloadConfig | None = None,
    *,
    with_integrity: bool = True,
    chaos_plan=None,
    upset_worker: int | None = None,
):
    """Build the checked fleet, serve the workload, return the
    :class:`~repro.serving.server.ServeRun`.

    ``chaos_plan`` (see :func:`make_sdc_plan`) runs the serve under a
    chaos session; pass a *callable* to have it invoked with the
    computed arrival span (``plan = chaos_plan(window_s)``) — callers
    like the soak harness don't know the span before the run.
    ``upset_worker`` schedules a persistent realized-level drift on
    that worker a sixth of the way into the arrivals.
    A :class:`~repro.telemetry.rollup.ServingRollup` sized to cover the
    whole (virtual-time) run is always attached (``run.server.rollup``)
    so the SDC-rate signal is observable afterwards.
    """
    from repro.serving.server import ServerConfig, TridentServer, serve_run
    from repro.serving.workload import sustainable_rate_hz
    from repro.telemetry.rollup import ServingRollup

    config = config or IntegrityWorkloadConfig()
    workers = [
        build_integrity_worker(
            i,
            config.dims,
            config.seed + 101 * i,
            with_integrity=with_integrity,
        )
        for i in range(config.n_workers)
    ]
    # Short quarantine: the escalation scenario needs the half-open probe
    # (where the scrub runs) to land while traffic remains.
    server_config = ServerConfig(breaker_cooldown_s=2e-6, seed=int(config.seed))
    rollup = ServingRollup(window_s=10.0)  # virtual runs last ~1e-4 s
    server = TridentServer(workers, config=server_config, rollup=rollup)
    rate = sustainable_rate_hz(workers, server_config.max_batch)
    rng = np.random.default_rng(config.seed)
    arrivals = synthesize_integrity_arrivals(config, rate, rng)

    if upset_worker is not None:
        target = int(upset_worker)

        def inject(srv) -> None:
            """Scheduled-action hook: drift the target worker's levels."""
            _upset_worker(srv.workers[target], config)

        # Early enough that escalations, the breaker trip, the cooldown,
        # and the scrubbing half-open probe all fit inside the arrivals.
        server.schedule_action(
            0.15 * arrivals[-1].arrival_s, "silent_upset", inject
        )
    return serve_run(server, arrivals, chaos_plan)


# ----------------------------------------------------------------------
# Smoke gate
# ----------------------------------------------------------------------
def record_sdc_checks(result, config: IntegrityWorkloadConfig, run) -> None:
    """Record what silent-corruption chaos must show on a checked run:
    every planned injection landed and tripped the checksum; a run
    without chaos tripped nothing."""
    from repro.chaos.audit import attestation_totals

    totals = attestation_totals(run.workers)
    tripped = totals.get("tripped", 0)
    if run.session is None:
        result.record(
            "sdc_false_positive",
            tripped == 0,
            f"{tripped} trips in {totals.get('checks', 0)} attested batches",
        )
        return
    injected = run.session.applied_counts().get("silent_corrupt", 0)
    result.record(
        "sdc_injection",
        injected == config.silent_corruptions > 0,
        f"{injected}/{config.silent_corruptions} silent corruptions landed",
    )
    result.record(
        "sdc_detection",
        tripped >= injected,
        f"{injected} injected, {tripped} attestation trips",
    )


def integrity_gate(config: IntegrityWorkloadConfig | None = None):
    """The ``repro integrity --smoke`` verdict (an ``AuditResult``).

    The audit covers the injected-SDC run against its replay; the clean
    seed matrix (with the clean replay) and the escalation run fold their
    own audits into one check each.
    """
    from repro.chaos.audit import (
        attestation_totals,
        audit_serve_run,
        record_breaker_arc,
        run_digest,
    )

    config = config or IntegrityWorkloadConfig()
    sdc_plan = functools.partial(make_sdc_plan, config)

    # Injected SDC: every silent_corrupt lands, trips and is attested.
    chaos = run_integrity_workload(config, chaos_plan=sdc_plan)
    result = audit_serve_run(
        chaos, replay=run_integrity_workload(config, chaos_plan=sdc_plan)
    )
    record_sdc_checks(result, config, chaos)

    # Clean seed matrix: every batch attested, zero trips; parity with an
    # unchecked run and a clean replay.
    clean = [
        run_integrity_workload(dataclasses.replace(config, seed=config.seed + k))
        for k in range(3)
    ]
    trips = [attestation_totals(run.workers).get("tripped", 0) for run in clean]
    result.record("zero_false_trips", not any(trips), f"trips per seed {trips}")
    result.record(
        "clean_batches_attested",
        all(
            worker.integrity.counters.checks == worker.batches_executed > 0
            for run in clean
            for worker in run.workers
        ),
        "3-seed matrix",
    )
    result.record_audit(
        "clean_run_audits",
        audit_serve_run(clean[0], replay=run_integrity_workload(config)),
        *(audit_serve_run(run) for run in clean[1:]),
    )
    unchecked = run_integrity_workload(config, with_integrity=False)
    result.record(
        "unchecked_parity",
        run_digest(clean[0].report) == run_digest(unchecked.report),
        "attestation never perturbs decisions or outputs",
    )

    # Escalation: persistent drift -> IntegrityFault -> quarantine ->
    # scrub -> restore.
    esc = run_integrity_workload(config, upset_worker=0)
    escalated = attestation_totals(esc.workers).get("escalated", 0)
    result.record(
        "escalated", escalated > 0, f"{escalated} batches to peer retry"
    )
    record_breaker_arc(result, esc.report, worker=0)
    end = max((record["t"] for record in esc.report.decisions), default=0.0)
    stats = esc.server.rollup.window_stats(end, 1e-5)
    result.record(
        "sdc_rate_in_rollup",
        stats.sdc_count > 0
        and stats.sdc_by_worker.get(0, 0) > 0
        and stats.sdc_rate() > 0.0,
        f"{stats.sdc_count} SDC events, rate {stats.sdc_rate():.3g}",
    )
    result.record_audit("escalation_run_audit", audit_serve_run(esc))
    return result


__all__ = [
    "IntegrityWorkloadConfig",
    "build_integrity_worker",
    "integrity_gate",
    "make_sdc_plan",
    "record_sdc_checks",
    "run_integrity_workload",
    "synthesize_integrity_arrivals",
]

"""The SDC-defense workload behind ``repro integrity --smoke``.

A deliberately under-capacity single-phase Poisson serving run (no
admission pressure — the point is the *attestation* arc, not shedding)
executed in five scenarios:

1. **Clean seed matrix** — checks enabled, no chaos, several seeds:
   every batch is attested, zero trips.  This is the false-positive
   gate the noise-calibrated thresholds are accountable to.
2. **Parity** — the same run with checks disabled must produce
   bit-identical outputs and decisions: attestation observes, it never
   perturbs.
3. **Replay** — two checks-enabled runs are bit-identical (calibration
   and checksum programming draw from seeded streams only).
4. **Injected SDC** — a crash-free chaos plan of ``silent_corrupt``
   injections (finite bias/scale/sign-flip corruption that sails
   through the serving layer's non-finite gate).  Every injection must
   trip the checksum, recover via re-execution (one-shot chaos does
   not repeat), and show up attested in the post-run audit.
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

import numpy as np

from repro.errors import IntegrityError
from repro.integrity.abft import IntegrityConfig


@dataclasses.dataclass(frozen=True)
class IntegrityWorkloadConfig:
    """Shape of one attestation workload run."""

    dims: tuple[int, ...] = (12, 16, 4)
    n_workers: int = 2
    seed: int = 7
    n_requests: int = 160
    #: Arrival rate as a multiple of the fleet's sustainable rate —
    #: kept under 1.0 so the run exercises attestation, not shedding.
    rate_multiplier: float = 0.6
    #: ``silent_corrupt`` injections compiled into the chaos scenario.
    silent_corruptions: int = 2
    corrupt_magnitude: float = 4.0
    #: Realized-level upsets per data tile in the escalation scenario.
    upset_cells: int = 48
    upset_delta: float = 0.6
    integrity: IntegrityConfig = IntegrityConfig()

    def __post_init__(self) -> None:
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise IntegrityError(
                f"dims must be >= 2 positive widths, got {self.dims}"
            )
        if self.n_workers < 1:
            raise IntegrityError(f"n_workers must be >= 1, got {self.n_workers}")
        if self.n_requests < 1:
            raise IntegrityError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.rate_multiplier <= 0:
            raise IntegrityError("rate multiplier must be positive")
        if self.silent_corruptions < 0:
            raise IntegrityError("silent_corruptions must be >= 0")
        if self.upset_cells < 1:
            raise IntegrityError("upset_cells must be >= 1")
        if not 0.0 < self.upset_delta <= 2.0:
            raise IntegrityError("upset_delta must be in (0, 2]")


@dataclasses.dataclass
class IntegrityRunResult:
    """Everything one attestation workload run produced."""

    report: object
    server: object
    workers: list
    rollup: object
    session: object
    pre_accounting: dict
    #: Arrival span of the run (chaos windows are sized from this).
    window_s: float = 0.0

    def counters_total(self) -> dict:
        """Attestation counters summed across workers."""
        total: dict[str, int] = {}
        for worker in self.workers:
            if worker.integrity is None:
                continue
            for key, value in worker.integrity.counters.as_dict().items():
                total[key] = total.get(key, 0) + value
        return total


def _server_config(seed: int):
    from repro.serving.server import ServerConfig

    return ServerConfig(
        max_queue_depth=64,
        max_batch=16,
        slo_latency_s=1e-5,
        max_retries=2,
        retry_backoff_s=5e-7,
        retry_jitter_s=1e-7,
        breaker_failure_threshold=3,
        # Short quarantine: the escalation scenario needs the half-open
        # probe (where the scrub runs) to land while traffic remains.
        breaker_cooldown_s=2e-6,
        seed=int(seed),
    )


def build_integrity_worker(
    worker_id: int,
    dims: tuple[int, ...],
    seed: int,
    *,
    with_integrity: bool = True,
    integrity_config: IntegrityConfig | None = None,
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

        worker.integrity = PipelineChecker(
            worker.pipeline, config=integrity_config, seed=seed
        )
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
) -> IntegrityRunResult:
    """Build the checked fleet, serve the workload, return run artifacts.

    ``chaos_plan`` (see :func:`make_sdc_plan`) runs the serve under a
    chaos session; pass a *callable* to have it invoked with the
    computed arrival span (``plan = chaos_plan(window_s)``) — callers
    like the soak harness don't know the span before the run.
    ``upset_worker`` schedules a persistent realized-level drift on
    that worker a sixth of the way into the arrivals.
    A :class:`~repro.telemetry.rollup.ServingRollup` sized to cover the
    whole (virtual-time) run is always attached so the SDC-rate signal
    is observable afterwards.
    """
    from repro.chaos.audit import capture_accounting
    from repro.chaos.session import session as chaos_scope
    from repro.serving.server import TridentServer
    from repro.serving.workload import sustainable_rate_hz
    from repro.telemetry.rollup import ServingRollup

    config = config or IntegrityWorkloadConfig()
    workers = [
        build_integrity_worker(
            i,
            config.dims,
            config.seed + 101 * i,
            with_integrity=with_integrity,
            integrity_config=config.integrity,
        )
        for i in range(config.n_workers)
    ]
    server_config = _server_config(config.seed)
    rollup = ServingRollup(window_s=10.0)  # virtual runs last ~1e-4 s
    server = TridentServer(workers, config=server_config, rollup=rollup)
    rate = sustainable_rate_hz(workers, server_config.max_batch)
    rng = np.random.default_rng(config.seed)
    arrivals = synthesize_integrity_arrivals(config, rate, rng)
    window_s = arrivals[-1].arrival_s
    if callable(chaos_plan):
        chaos_plan = chaos_plan(window_s)

    if upset_worker is not None:
        target = int(upset_worker)

        def inject(srv) -> None:
            """Scheduled-action hook: drift the target worker's levels."""
            _upset_worker(srv.workers[target], config)

        # Early enough that escalations, the breaker trip, the cooldown,
        # and the scrubbing half-open probe all fit inside the arrivals.
        server.schedule_action(0.15 * window_s, "silent_upset", inject)

    pre = capture_accounting(workers)
    if chaos_plan is None:
        report = server.run(arrivals)
        session = None
    else:
        with chaos_scope(chaos_plan) as session:
            server.install_chaos(session)
            report = server.run(arrivals)
    return IntegrityRunResult(
        report=report,
        server=server,
        workers=workers,
        rollup=rollup,
        session=session,
        pre_accounting=pre,
        window_s=window_s,
    )


# ----------------------------------------------------------------------
# Smoke gate
# ----------------------------------------------------------------------
def _run_digest(report) -> tuple:
    """Hashable (decisions, output bytes) fingerprint of one run."""
    outputs = tuple(
        (c.request.request_id, np.asarray(c.output).tobytes())
        for c in report.completed
    )
    return (tuple(repr(d) for d in report.decisions), outputs)


def _audit(result: IntegrityRunResult, replay=None):
    from repro.chaos.audit import audit_serve_run

    return audit_serve_run(
        result.report,
        workers=result.workers,
        pre_accounting=result.pre_accounting,
        replay=replay,
        session=result.session,
    )


def smoke_checks(
    config: IntegrityWorkloadConfig | None = None,
) -> list[tuple[str, bool]]:
    """The ``repro integrity --smoke`` pass/fail list."""
    config = config or IntegrityWorkloadConfig()
    checks: list[tuple[str, bool]] = []

    # 1. Clean seed matrix: every batch attested, zero trips, audit holds.
    clean_runs = []
    for offset in range(3):
        cfg = dataclasses.replace(config, seed=config.seed + offset)
        clean_runs.append((cfg, run_integrity_workload(cfg)))
    attested_all = all(
        worker.integrity.counters.checks == worker.batches_executed > 0
        for _, run in clean_runs
        for worker in run.workers
    )
    checks.append(("every clean batch attested (3-seed matrix)", attested_all))
    checks.append(
        (
            "zero false trips across clean seed matrix",
            all(
                run.counters_total().get("tripped", 0) == 0
                for _, run in clean_runs
            ),
        )
    )
    checks.append(
        ("clean-run audits pass", all(_audit(run).ok for _, run in clean_runs))
    )

    # 2. Parity: checks enabled vs disabled is bit-identical.
    baseline = run_integrity_workload(config, with_integrity=False)
    checks.append(
        (
            "attestation never perturbs outputs (parity with unchecked run)",
            _run_digest(clean_runs[0][1].report)
            == _run_digest(baseline.report),
        )
    )

    # 3. Replay: two checks-enabled runs are bit-identical.
    replay = run_integrity_workload(config)
    checks.append(
        (
            "bit-identical replay with checks enabled",
            _run_digest(clean_runs[0][1].report) == _run_digest(replay.report),
        )
    )

    # 4. Injected SDC: every silent_corrupt trips and is attested.  The
    # arrival span is seed-deterministic, so the clean run's span sizes
    # the chaos window for both the run and its replay.
    span = clean_runs[0][1].window_s
    chaos_run = run_integrity_workload(
        config, chaos_plan=make_sdc_plan(config, span)
    )
    chaos_replay = run_integrity_workload(
        config, chaos_plan=make_sdc_plan(config, span)
    )
    applied = (
        chaos_run.session.applied_counts().get("silent_corrupt", 0)
        if chaos_run.session is not None
        else 0
    )
    chaos_counters = chaos_run.counters_total()
    checks.append(
        (
            "all injected silent corruptions landed",
            applied == config.silent_corruptions > 0,
        )
    )
    checks.append(
        (
            "injected SDC detected by checksum",
            chaos_counters.get("tripped", 0) >= applied,
        )
    )
    chaos_audit = _audit(chaos_run, replay=chaos_replay.report)
    checks.append(
        (
            "no corrupted batch settled unverified (audit)",
            chaos_audit.ok
            and any(name == "sdc_attested" for name, _, _ in chaos_audit.checks),
        )
    )

    # 5. Escalation: persistent drift -> IntegrityFault -> quarantine ->
    #    scrub -> restore.
    esc = run_integrity_workload(config, upset_worker=0)
    esc_counters = esc.counters_total()
    checks.append(
        (
            "persistent corruption escalated to peer retry",
            esc_counters.get("escalated", 0) > 0,
        )
    )
    transitions = [
        (t.get("worker"), t["to"], t["reason"])
        for t in esc.report.breaker_transitions
    ]
    checks.append(
        (
            "escalations tripped the worker breaker",
            any(w == 0 and to == "open" for w, to, _ in transitions),
        )
    )
    checks.append(
        (
            "quarantined worker scrubbed and restored",
            any(
                w == 0 and to == "closed" and reason == "probe_succeeded"
                for w, to, reason in transitions
            ),
        )
    )
    end = max(
        (record["t"] for record in esc.report.decisions), default=0.0
    )
    stats = esc.rollup.window_stats(end, 1e-5)
    checks.append(
        (
            "SDC rate surfaced in the serving rollup",
            stats.sdc_count > 0
            and stats.sdc_by_worker.get(0, 0) > 0
            and stats.sdc_rate() > 0.0,
        )
    )
    checks.append(("escalation-run audit passes", _audit(esc).ok))
    checks.append(
        (
            "escalation conserved + requests all settled",
            esc.report.conservation_ok()
            and all(
                worker.integrity.counters.conserved() for worker in esc.workers
            ),
        )
    )
    return checks


__all__ = [
    "IntegrityRunResult",
    "IntegrityWorkloadConfig",
    "build_integrity_worker",
    "make_sdc_plan",
    "run_integrity_workload",
    "smoke_checks",
    "synthesize_integrity_arrivals",
]

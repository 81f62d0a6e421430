"""Post-mortem invariant auditing for chaos runs.

A run is only evidence of robustness if the *system-level* contracts
held while the faults landed.  This module is the one implementation of
those contracts.  :func:`audit_serve_run` checks a
:class:`~repro.serving.server.ServeRun` (its report, workers, chaos
session and pre-run accounting, optionally against a replay) for the
stack-wide invariants:

1. **Conservation** — every submitted request terminated exactly once
   (completed xor shed), chaos or not.
2. **Structured sheds** — every rejected request carries a
   :class:`~repro.serving.ShedReason` plus a human-readable detail, and
   every shed decision in the log names its reason.
3. **Atomic batches** — each dispatched batch appears exactly once
   downstream, whole: either one ``complete`` or one ``batch_failed``
   with the same request set.  No partial outputs.
4. **Finite outputs** — nothing non-finite reached a requester (the
   integrity gate turned every corruption into a retried fault).
5. **Repairs charged** — repair/refresh work during the run shows up in
   the energy accounting (``bank_writes`` strictly increased whenever a
   repair or refresh fired); recovery is never free.
6. **Bit-identical replay** — a second run under the same workload seed
   and chaos plan reproduces the decision log and every output byte
   (:func:`run_digest` is the same contract as one hash).
7. **Integrity** (when workers carry ABFT checkers) — attestation
   counters are conserved (every trip resolved to exactly one ladder
   outcome) and every applied ``silent_corrupt`` injection has a
   matching attestation incident: no corrupted batch settled unverified.

Each check lands in an :class:`AuditResult` as ``(name, ok, detail)``;
``result.ok`` is the conjunction.  :func:`audit_fleet_run` adds the
control-plane contracts on top.  Every ``--smoke`` serving gate and
every serving soak cell is a scenario run plus one of these two audits;
a gate records only its scenario's own checks into the same result.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import numpy as np

from repro.serving.request import ShedReason

_SHED_REASONS = {reason.value for reason in ShedReason}


@dataclasses.dataclass
class AuditResult:
    """Outcome of one post-mortem audit: named checks + verdict."""

    checks: list[tuple[str, bool, str]] = dataclasses.field(default_factory=list)

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        """Append one named check."""
        self.checks.append((name, bool(ok), detail))

    @property
    def ok(self) -> bool:
        """True when every check passed."""
        return all(ok for _, ok, _ in self.checks)

    def record_audit(self, name: str, *audits: "AuditResult") -> None:
        """Fold other runs' audits into one named check."""
        failed = [f for audit in audits for f in audit.failed()]
        self.record(name, not failed, "; ".join(failed))

    def failed(self) -> list[str]:
        """Names of failed checks (with details when present)."""
        return [
            f"{name}: {detail}" if detail else name
            for name, ok, detail in self.checks
            if not ok
        ]

    def as_dict(self) -> dict:
        """JSON-safe form for the flake matrix."""
        return {
            "ok": self.ok,
            "checks": [
                {"name": name, "ok": ok, "detail": detail}
                for name, ok, detail in self.checks
            ],
        }


# ---------------------------------------------------------------------------
# Accounting baselines (captured before the run, diffed after)
# ---------------------------------------------------------------------------
def capture_accounting(workers) -> dict:
    """Snapshot repair/energy tallies before a run (see :func:`audit_serve_run`)."""
    bank_writes = 0
    repairs = 0
    refreshes = 0
    for worker in workers:
        for acc in worker.accelerators:
            bank_writes += int(acc.counters.bank_writes)
        for manager in worker.managers:
            log = manager.log
            repairs += int(log.retries + log.row_remaps + log.migrations)
            refreshes += int(log.refreshes)
    return {
        "bank_writes": bank_writes,
        "repairs": repairs,
        "refreshes": refreshes,
    }


# ---------------------------------------------------------------------------
# Individual checks
# ---------------------------------------------------------------------------
def _check_conservation(result, report) -> None:
    result.record(
        "request_conservation",
        report.conservation_ok(),
        f"submitted={report.submitted} completed={len(report.completed)} "
        f"shed={len(report.shed)}",
    )


def _check_structured_sheds(result, report) -> None:
    bad = [
        rejection.request.request_id
        for rejection in report.shed
        if not isinstance(rejection.reason, ShedReason) or not rejection.detail
    ]
    bad_decisions = [
        record["seq"]
        for record in report.decisions
        if record["kind"] == "shed"
        and record.get("reason") not in _SHED_REASONS
    ]
    result.record(
        "structured_shed_reasons",
        not bad and not bad_decisions,
        f"unreasoned requests={bad[:5]} decisions={bad_decisions[:5]}"
        if (bad or bad_decisions)
        else "",
    )


def _check_atomic_batches(result, report) -> None:
    def batches(kind):
        return sorted(
            tuple(sorted(record["requests"]))
            for record in report.decisions
            if record["kind"] == kind
        )

    dispatched = batches("dispatch")
    settled = sorted(batches("complete") + batches("batch_failed"))
    result.record(
        "atomic_batches",
        dispatched == settled,
        f"{len(dispatched)} dispatched vs {len(settled)} settled whole"
        if dispatched != settled
        else "",
    )


def _check_finite_outputs(result, report) -> None:
    bad = [
        completion.request.request_id
        for completion in report.completed
        if not np.all(np.isfinite(completion.output))
    ]
    result.record(
        "finite_outputs",
        not bad,
        f"non-finite outputs reached requests {bad[:5]}" if bad else "",
    )


def _check_repairs_charged(result, workers, pre: dict) -> None:
    post = capture_accounting(workers)
    recovery_events = (post["repairs"] - pre["repairs"]) + (
        post["refreshes"] - pre["refreshes"]
    )
    writes_delta = post["bank_writes"] - pre["bank_writes"]
    ok = recovery_events == 0 or writes_delta > 0
    result.record(
        "repairs_charged",
        ok,
        f"{recovery_events} recovery events but bank_writes delta "
        f"{writes_delta}" if not ok else "",
    )


def _worker_checkers(workers):
    for worker in workers:
        if worker.integrity is not None:
            yield worker, worker.integrity


def attestation_totals(workers) -> dict[str, int]:
    """ABFT attestation counters summed over the checked workers."""
    total: dict[str, int] = {}
    for _, checker in _worker_checkers(workers):
        for key, value in checker.counters.as_dict().items():
            total[key] = total.get(key, 0) + value
    return total


def _check_integrity(result, workers, session) -> None:
    """The `integrity` section: conserved counters + attested corruption.

    Two contracts: (a) every attestation trip resolved to exactly one
    ladder outcome (re-exec recovery, spare-confirmed false alarm, or
    escalation) on every checker; (b) when a chaos session injected
    ``silent_corrupt``, each applied injection has a matching incident —
    no finitely-corrupted batch settled unverified.
    """
    checkers = list(_worker_checkers(workers))
    unconserved = [
        worker.worker_id
        for worker, checker in checkers
        if not checker.counters.conserved()
    ]
    result.record(
        "integrity_conserved",
        not unconserved,
        f"workers {unconserved[:5]} have unbalanced attestation counters"
        if unconserved
        else ", ".join(
            f"{k}={v}" for k, v in sorted(attestation_totals(workers).items())
        ),
    )
    if session is None:
        return
    applied = [
        record
        for record in session.applied
        if record["kind"] == "silent_corrupt"
    ]
    if not applied:
        return
    incident_keys = {
        (incident["worker"], incident["t"])
        for _, checker in checkers
        for incident in checker.incidents
    }
    unattested = [
        record["index"]
        for record in applied
        if (record["worker"], record["at_s"]) not in incident_keys
    ]
    result.record(
        "sdc_attested",
        not unattested,
        f"silent_corrupt injections {unattested[:5]} settled with no "
        "matching attestation incident"
        if unattested
        else f"{len(applied)} injections, all attested",
    )


def run_digest(report) -> str:
    """Replay digest of one serving run: SHA-256 over the decision log
    plus every completed output's bytes, in completion order."""
    h = hashlib.sha256()
    h.update(
        json.dumps(report.decisions, sort_keys=True, default=str).encode("utf-8")
    )
    for completion in report.completed:
        h.update(np.ascontiguousarray(np.asarray(completion.output)).tobytes())
    return h.hexdigest()


def _check_replay(result, report, replay) -> None:
    ours, theirs = run_digest(report), run_digest(replay)
    result.record(
        "bit_identical_replay",
        ours == theirs,
        f"run digest {ours[:16]} vs replay {theirs[:16]}" if ours != theirs else "",
    )


def record_breaker_arc(result, report, worker=None) -> None:
    """Record the breaker arc a fault scenario must show: a server breaker
    (``worker``'s, when given) tripped open, and a half-open probe closed
    it again."""
    arc = [
        (t["to"], t["reason"])
        for t in report.breaker_transitions
        if worker is None or t.get("worker") == worker
    ]
    where = "" if worker is None else f" (worker {worker})"
    result.record(
        "breaker_tripped",
        any(to == "open" for to, _ in arc),
        f"a server breaker opened{where}",
    )
    result.record(
        "breaker_restored",
        ("closed", "probe_succeeded") in arc,
        f"a half-open probe closed it{where}",
    )


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------
def audit_serve_run(run, *, replay=None) -> AuditResult:
    """Run the full invariant suite over one serving run.

    ``run`` is a :class:`~repro.serving.server.ServeRun`.  Its
    ``pre_accounting`` (from :func:`capture_accounting`, taken *before*
    the run) enables the repairs-charged check, checked workers enable
    the integrity section, and its chaos ``session`` adds an
    informational record of applied chaos.  ``replay`` (a second run
    record from an identically seeded run) enables the bit-identity
    check.
    """
    report = run.report
    result = AuditResult()
    _check_conservation(result, report)
    _check_structured_sheds(result, report)
    _check_atomic_batches(result, report)
    _check_finite_outputs(result, report)
    if run.pre_accounting is not None:
        _check_repairs_charged(result, run.workers, run.pre_accounting)
    if any(_worker_checkers(run.workers)):
        _check_integrity(result, run.workers, run.session)
    if replay is not None:
        _check_replay(result, report, replay.report)
    if run.session is not None:
        applied = run.session.applied_counts()
        result.record(
            "chaos_applied",
            True,
            ", ".join(f"{k}={v}" for k, v in sorted(applied.items())) or "none",
        )
    return result


def audit_fleet_run(run, *, replay=None) -> AuditResult:
    """Invariant suite for a fleet control-plane run.

    Runs every :func:`audit_serve_run` check, then layers the
    control-plane contracts on top: exactly the decommissioned workers
    checkpointed their bank state before leaving the roster, no worker
    was stranded mid-lifecycle, and, for a controlled run, the
    degraded-mode ladder balanced its entries and exits and converged
    back to nominal, every controller actuation landed in the decision
    log, and the controller stopped at drain.  ``run``/``replay`` are
    :class:`~repro.fleet.workload.FleetRunResult` objects.
    """
    result = audit_serve_run(run, replay=replay)
    pool = run.pool
    decommissioned = pool.ids_in("decommissioned")
    checkpointed = sorted(pool.checkpoint_digests)
    result.record(
        "decommissions_checkpointed",
        checkpointed == decommissioned,
        f"decommissioned {decommissioned[:5]} vs checkpointed "
        f"{checkpointed[:5]}"
        if checkpointed != decommissioned
        else f"{len(decommissioned)} decommissioned, each checkpointed",
    )
    counts = pool.counts()
    settled = counts["warming"] == 0 and counts["draining"] == 0
    result.record(
        "fleet_lifecycle_settled",
        settled,
        f"run ended with {counts['warming']} warming / "
        f"{counts['draining']} draining workers" if not settled else "",
    )
    controller = run.controller
    if controller is not None:
        from repro.fleet.controller import LADDER

        balanced = (
            controller.degraded_entries == controller.degraded_exits
            and LADDER[controller.rung] == "nominal"
        )
        result.record(
            "degraded_mode_converged",
            balanced,
            f"entries={controller.degraded_entries} "
            f"exits={controller.degraded_exits} "
            f"final={LADDER[controller.rung]}",
        )
        logged = sum(
            1
            for record in run.report.decisions
            if record["kind"] == "controller"
        )
        result.record(
            "actuations_logged",
            logged == len(controller.actuations),
            f"{len(controller.actuations)} actuations, {logged} decision "
            "records",
        )
        result.record(
            "controller_stopped",
            controller.stopped,
            "stopped at drain" if controller.stopped else "still ticking",
        )
    return result

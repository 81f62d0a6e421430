"""Output attestation and the SDC escalation ladder.

:class:`PipelineChecker` gives every part accelerator of a
:class:`~repro.sharding.pipeline.ShardedPipeline` its own
:class:`~repro.integrity.abft.ChecksumUnit`; a single chip is the
one-stage, one-part pipeline, so every serving worker is attested the
same way.  :func:`attest_batch` runs the ladder over the checker's
``verify`` / ``digital_ok`` / ``reexecute`` / ``rewrite_and_recalibrate``:

1. **Verify.**  Analog checksum residuals against calibrated
   thresholds.  Clean → done (the overwhelmingly common path: one
   checksum-row MVM per layer, benched < 5% of the forward).
2. **Re-execute once.**  Transients (and consumed one-shot chaos
   injections) don't repeat; a clean second pass settles the batch and
   counts as ``reexec_recovered``.
3. **Digital-spare cross-check.**  The control unit's weight shadow
   recomputes the checksum exactly.  If the *digital* check passes, the
   data path is fine and the analog checksum row itself is the faulty
   element — a false alarm, accepted as ``spare_confirmed`` (and worth a
   rewrite at the next repair sweep).
4. **Escalate.**  Both passes dirty and the spare agrees the output is
   wrong: raise :class:`~repro.errors.IntegrityFault` (a retryable
   ``WorkerFault``) so the server retries the batch on a *peer* worker,
   the breaker records the failure, and the rollup's SDC-rate signal
   feeds fleet quarantine.

Counter conservation — ``tripped == reexec_recovered + spare_confirmed
+ escalated`` and ``checks >= tripped`` — is a post-run audit invariant
(:func:`repro.chaos.audit.audit_serve_run`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro import telemetry
from repro.errors import IntegrityError, IntegrityFault
from repro.integrity.abft import ChecksumUnit, IntegrityConfig


@dataclasses.dataclass
class IntegrityCounters:
    """Attestation outcome tallies (conserved; audited post-run)."""

    checks: int = 0
    tripped: int = 0
    reexec_recovered: int = 0
    spare_confirmed: int = 0
    escalated: int = 0

    def conserved(self) -> bool:
        """Every trip resolved to exactly one ladder outcome."""
        return (
            self.tripped
            == self.reexec_recovered + self.spare_confirmed + self.escalated
            and self.checks >= self.tripped
        )

    def as_dict(self) -> dict:
        """JSON-safe counter snapshot."""
        return dataclasses.asdict(self)


class PipelineChecker:
    """ABFT attestation for every part of a pipeline.

    One :class:`ChecksumUnit` per part accelerator, seeded ``seed + part
    ordinal`` (stage-major, as :func:`~repro.sharding.build_pipeline`
    seeds the parts), so calibration draws are independent but
    replay-stable and a single chip calibrates with ``seed`` itself.
    ``verify`` checks hidden layers from their recordings and maps the
    worker's final outputs back onto the last stage's row-sharded column
    ranges.
    """

    def __init__(
        self, pipeline, config: IntegrityConfig | None = None, seed: int = 0
    ) -> None:
        self.config = config or IntegrityConfig()
        self.pipeline = pipeline
        #: Per stage, one unit per part.
        self.units: list[list[ChecksumUnit]] = []
        ordinal = 0
        for stage in pipeline.stages:
            row = []
            for part in stage.parts:
                unit = ChecksumUnit(part, self.config, seed=seed + ordinal)
                ordinal += 1
                unit.calibrate()
                row.append(unit)
            self.units.append(row)
        self.counters = IntegrityCounters()
        #: Escalated/recovered SDC incidents, for the post-run audit.
        self.incidents: list[dict] = []

    def _final_slices(self):
        """(unit, col0, col1) per part of the last stage."""
        stage_units = self.units[-1]
        parts = self.pipeline.stages[-1].parts
        col = 0
        for part, unit in zip(parts, stage_units):
            width = part.layers[-1].out_dim
            yield unit, col, col + width
            col += width

    def verify(self, outputs: np.ndarray):
        """Checksum violations across every stage/part of the pipeline."""
        violations = []
        for s, row in enumerate(self.units[:-1]):
            for p, unit in enumerate(row):
                violations.extend(unit.violations(stage=s, part=p))
        last = len(self.units) - 1
        for p, (unit, c0, c1) in enumerate(self._final_slices()):
            violations.extend(
                unit.violations(outputs[:, c0:c1], stage=last, part=p)
            )
        return violations

    def digital_ok(self, outputs: np.ndarray) -> bool:
        """Exact digital-shadow verdict over every stage/part."""
        return all(
            unit.digital_ok(None) for row in self.units[:-1] for unit in row
        ) and all(
            unit.digital_ok(outputs[:, c0:c1])
            for unit, c0, c1 in self._final_slices()
        )

    def reexecute(self, xs: np.ndarray) -> np.ndarray:
        """Replay the batch through all stages for the rung-2 check."""
        value = xs
        for stage in self.pipeline.stages:
            value = stage.forward_batch(value, record=True)
        return value

    def rewrite_and_recalibrate(self) -> None:
        """Re-track every part's checksum rows after a repair sweep."""
        for row in self.units:
            for unit in row:
                unit.rewrite()
                unit.calibrate()


def attest_batch(
    checker,
    xs: np.ndarray,
    outputs: np.ndarray,
    *,
    worker_id: int,
    now_s: float,
    managers=(),
) -> np.ndarray:
    """Run the escalation ladder over one executed batch.

    Returns the attested outputs (the re-executed batch when rung 2
    recovered) or raises :class:`~repro.errors.IntegrityFault`.  Every
    fault manager in ``managers`` gets escalations charged to its repair
    log so worker health reflects SDC history.
    """
    counters = checker.counters
    with telemetry.trace_span("integrity_check", worker=worker_id):
        counters.checks += 1
        violations = checker.verify(outputs)
        if not violations:
            return outputs
        counters.tripped += 1
        telemetry.counter(
            "repro_sdc_detected_total",
            "ABFT checksum violations detected",
        ).inc()
        detail = [v.as_dict() for v in violations]
        telemetry.emit_event(
            "sdc_detected", worker=worker_id, t_s=now_s, violations=detail
        )

        # Rung 2: transients don't repeat — re-execute once and re-verify.
        retried = checker.reexecute(xs)
        if not checker.verify(retried):
            counters.reexec_recovered += 1
            checker.incidents.append(
                {
                    "t": now_s,
                    "worker": worker_id,
                    "action": "reexec_recovered",
                    "violations": detail,
                }
            )
            return retried

        # Rung 3: the digital spare arbitrates — if the exact shadow
        # checksum passes, the analog checksum row is the broken part,
        # not the data path.
        if checker.digital_ok(retried):
            counters.spare_confirmed += 1
            checker.incidents.append(
                {
                    "t": now_s,
                    "worker": worker_id,
                    "action": "spare_confirmed",
                    "violations": detail,
                }
            )
            return retried

        # Rung 4: corrupt beyond local recovery — fail the batch over to
        # a peer and feed every health signal.
        counters.escalated += 1
        telemetry.counter(
            "repro_sdc_escalations_total",
            "SDC incidents escalated to peer retry",
        ).inc()
        checker.incidents.append(
            {
                "t": now_s,
                "worker": worker_id,
                "action": "escalated",
                "violations": detail,
            }
        )
        for manager in managers:
            manager.note_sdc()
        raise IntegrityFault(
            f"worker {worker_id}: batch failed ABFT attestation after "
            f"re-execution and digital cross-check "
            f"({len(detail)} layer violation(s))"
        )


__all__ = [
    "IntegrityCounters",
    "IntegrityError",
    "IntegrityFault",
    "PipelineChecker",
    "attest_batch",
]

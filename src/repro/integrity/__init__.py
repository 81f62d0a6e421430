"""Algorithm-based fault tolerance (ABFT) for the photonic data path.

The analog MVM fails *finitely*: drift, stuck cells, and readout
corruption produce plausible-but-wrong numbers that sail through the
serving layer's finite-output gate.  This package closes that hole with
the Huang–Abraham checksum construction adapted to the PCM-MRR banks:

- :class:`~repro.integrity.abft.ChecksumUnit` programs each mapped
  layer's column-sum row onto dedicated checksum PEs (bank-column
  aligned, outside the layer's data tiles) and calibrates per-layer
  **noise-aware thresholds** — an analytic quantization bound plus a
  margin over the worst residual of a seeded calibration pass on the
  realized banks — so clean runs never trip.
- :class:`~repro.integrity.checker.PipelineChecker` gives every part
  accelerator of a serving worker its own checksum unit (a single chip
  is the one-stage, one-part case) and attests every executed batch via
  :func:`~repro.integrity.checker.attest_batch`'s escalation ladder:
  verify → re-execute once → digital-spare cross-check → retryable
  :class:`~repro.errors.IntegrityFault` that feeds breaker, rollup
  SDC-rate, and fleet quarantine.
- :func:`~repro.integrity.workload.run_integrity_workload` and
  :func:`~repro.integrity.workload.smoke_checks` back the
  ``repro integrity --smoke`` CI gate: injected ``silent_corrupt``
  chaos is provably caught (none settles unverified, per the audit),
  clean seeds never trip, and checked runs replay bit-identically.
"""

from repro.errors import IntegrityError, IntegrityFault
from repro.integrity.abft import ChecksumUnit, IntegrityConfig, Violation
from repro.integrity.checker import (
    IntegrityCounters,
    PipelineChecker,
    attest_batch,
)
from repro.integrity.workload import (
    IntegrityWorkloadConfig,
    build_integrity_worker,
    make_sdc_plan,
    run_integrity_workload,
    smoke_checks,
)

__all__ = [
    "ChecksumUnit",
    "IntegrityConfig",
    "IntegrityCounters",
    "IntegrityError",
    "IntegrityFault",
    "IntegrityWorkloadConfig",
    "PipelineChecker",
    "Violation",
    "attest_batch",
    "build_integrity_worker",
    "make_sdc_plan",
    "run_integrity_workload",
    "smoke_checks",
]

"""Exception hierarchy for the Trident reproduction library."""

from __future__ import annotations

import dataclasses
import math


class ReproError(Exception):
    """Base class for all library-specific errors."""


class ConfigError(ReproError):
    """An invalid configuration value or combination of values."""


def require_finite_fields(record: object) -> None:
    """Raise :class:`ConfigError` if a dataclass field holds a NaN or
    infinite float.

    Parameter records call this first in ``__post_init__``: a NaN passes
    every ``value <= 0`` range check and then poisons each cost computed
    from it.
    """
    for f in dataclasses.fields(record):
        value = getattr(record, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(
                f"{type(record).__name__}.{f.name} must be finite, got {value}"
            )


class DeviceError(ReproError):
    """A photonic/electronic device was used outside its operating envelope."""


class ProgrammingError(DeviceError):
    """A PCM cell or weight bank was programmed with an out-of-range value."""


class FaultError(ProgrammingError):
    """Invalid fault injection or fault-map operation.

    Subclasses :class:`ProgrammingError` only as a deprecation-compatible
    alias: fault injection historically raised ``ProgrammingError``, so
    existing ``except ProgrammingError`` sites keep working.  New code
    should catch ``FaultError`` — injection is a wear/fault problem, not a
    programming-range problem.
    """


class RepairError(ReproError):
    """A repair action could not be carried out (no spare rows/PEs left,
    or the repair budget is exhausted)."""


class EnduranceExceededError(DeviceError):
    """A PCM cell exceeded its rated switching endurance."""


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or applied: corrupt or
    truncated file, schema/hash mismatch, or a snapshot incompatible with
    the accelerator it is being loaded into."""


class ServingError(ReproError):
    """An invalid serving-layer configuration or scheduling operation."""


class WorkerFault(ServingError):
    """A serving worker's accelerator is too degraded to trust its
    outputs: the batch it was executing failed and its requests must be
    retried elsewhere or shed.  Raised by
    :meth:`repro.serving.AcceleratorWorker.execute`; the server converts
    it into retry/shed decisions — it never escapes the serving loop."""


class IntegrityError(ReproError):
    """An invalid integrity (ABFT) configuration or an operation that
    needs state the checker does not have: attaching checksum tiles
    without PE headroom, verifying before calibration, or verifying a
    forward pass that was not recorded."""


class IntegrityFault(WorkerFault):
    """A worker's output failed its ABFT checksum attestation and the
    escalation ladder (re-execute, digital-spare cross-check) could not
    clear it: the batch carried silent data corruption and must be
    retried on a peer.  Subclasses :class:`WorkerFault` so the server's
    breaker/retry machinery handles it unchanged; the distinct type is
    what feeds the rollup's SDC-rate signal."""


class ChaosError(ReproError):
    """An invalid chaos plan, injection, or soak-harness configuration —
    or (from the soak self-audit) an intentionally unhandled injected
    fault proving the gate can fail."""


class MappingError(ReproError):
    """A neural-network layer could not be mapped onto the hardware."""


class ShardingError(MappingError):
    """A model could not be split across multiple accelerators: no
    feasible cut points under the per-shard capacity, an invalid explicit
    cut, or a stage/weight specification that disagrees with the plan.
    Subclasses :class:`MappingError` — sharding is mapping, scaled out."""


class ShapeError(ReproError):
    """Tensor shapes are inconsistent with the layer/graph definition."""


class ScheduleError(ReproError):
    """The dataflow scheduler produced or received an invalid schedule."""


class WriteConvergenceWarning(UserWarning):
    """A program-and-verify write left more cells unconverged than the
    bank's configured convergence floor allows."""

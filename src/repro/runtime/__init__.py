"""Crash-safe runtime: checkpoint/restore and resilient training.

Everything a deployment needs to survive its process dying or its
training diverging: a pickle-free, hash-verified, atomically-written
checkpoint format for the accelerator's *entire* physically realized
state (:mod:`repro.runtime.checkpoint`), and a training harness that
checkpoints on a cadence, detects divergence, rolls back, backs off the
learning rate, and repairs faults before retrying
(:mod:`repro.runtime.resilient`).
"""

from repro.runtime.clock import VirtualClock
from repro.runtime.checkpoint import (
    SCHEMA_VERSION,
    CheckpointStore,
    decode_state,
    describe_checkpoint,
    encode_state,
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.runtime.resilient import (
    ResilientTrainer,
    RunIncident,
    RunReport,
)

__all__ = [
    "SCHEMA_VERSION",
    "CheckpointStore",
    "decode_state",
    "describe_checkpoint",
    "encode_state",
    "load_checkpoint",
    "save_checkpoint",
    "state_digest",
    "ResilientTrainer",
    "RunIncident",
    "RunReport",
    "VirtualClock",
]

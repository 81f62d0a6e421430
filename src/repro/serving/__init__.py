"""Fault-aware request serving over the batched execution engine.

``repro.serving`` turns the functional accelerator into a *server*:
requests with deadlines and priorities enter a bounded admission queue,
are coalesced into SLO-sized micro-batches priced by the dataflow cost
model, and dispatch to accelerator workers whose health (program-verify
readback + the fault-repair log) drives per-worker circuit breakers.
Overload sheds by priority with structured reasons, failures retry with
jittered exponential backoff, and the whole loop runs on a seeded
virtual clock so any run replays bit-identically.

Every worker is one :class:`AcceleratorWorker`: an ordered list of
stages, each a list of programmed accelerators plus their fault
managers.  A single chip is the one-stage, one-part case
(:func:`build_worker`); a model sharded across chips is the multi-stage
case (:func:`build_sharded_worker`, whose result is also known as
:class:`ShardedWorker`), with per-stage breakers and overlapped stages.
"""

from repro.serving.batcher import MicroBatcher
from repro.serving.breaker import BreakerState, CircuitBreaker
from repro.serving.queue import AdmissionQueue
from repro.serving.request import (
    CompletedRequest,
    InferenceRequest,
    RejectedRequest,
    ShedReason,
)
from repro.serving.server import (
    ServeReport,
    ServerConfig,
    ServeRun,
    TridentServer,
    serve_run,
)
from repro.serving.shard_workload import (
    ShardWorkloadConfig,
    makespan_s,
    run_shard_workload,
    shard_gate,
)
from repro.serving.sharded import ShardedWorker, build_sharded_worker
from repro.serving.worker import AcceleratorWorker
from repro.serving.workload import (
    Phase,
    WorkloadConfig,
    build_worker,
    run_serve_workload,
    serve_gate,
    shed_rate_by_priority,
    sustainable_rate_hz,
    synthesize_arrivals,
)

__all__ = [
    "AcceleratorWorker",
    "AdmissionQueue",
    "BreakerState",
    "CircuitBreaker",
    "CompletedRequest",
    "InferenceRequest",
    "MicroBatcher",
    "Phase",
    "RejectedRequest",
    "ServeReport",
    "ServeRun",
    "ServerConfig",
    "ShardWorkloadConfig",
    "ShardedWorker",
    "ShedReason",
    "TridentServer",
    "WorkloadConfig",
    "build_sharded_worker",
    "build_worker",
    "makespan_s",
    "run_serve_workload",
    "run_shard_workload",
    "serve_gate",
    "serve_run",
    "shard_gate",
    "shed_rate_by_priority",
    "sustainable_rate_hz",
    "synthesize_arrivals",
]

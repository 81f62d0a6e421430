"""Request and outcome types for the serving layer.

Every request submitted to the server terminates in exactly one of two
structured outcomes: a :class:`CompletedRequest` carrying the output and
its latency, or a :class:`RejectedRequest` carrying a :class:`ShedReason`.
Nothing is ever silently dropped and no serving decision surfaces as an
unhandled exception — the conservation invariant the property tests
enforce (`submitted == completed + shed`, per request id).
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

import numpy as np


class ShedReason(enum.Enum):
    """Why a request was rejected instead of served."""

    #: Admission queue at capacity and the request did not outrank anyone.
    QUEUE_FULL = "queue_full"
    #: Evicted from a full queue by a newly arrived higher-priority request.
    PRIORITY_EVICTED = "priority_evicted"
    #: Admission-time estimate says the deadline cannot possibly be met.
    DEADLINE_UNREACHABLE = "deadline_unreachable"
    #: Queued, but the deadline expired (or became hopeless) before dispatch.
    DEADLINE_EXPIRED = "deadline_expired"
    #: Failed on degraded workers more times than the retry budget allows.
    RETRIES_EXHAUSTED = "retries_exhausted"
    #: No worker can ever take traffic again (all breakers dead at drain).
    NO_WORKER = "no_worker"
    #: Refused by a degraded-mode policy (admission priority floor or a
    #: frozen traffic class) installed by the fleet controller.
    DEGRADED_SHED = "degraded_shed"


class InferenceRequest(NamedTuple):
    """One inference sample plus its service constraints.

    A read-only named tuple, like the two outcome records below: arrival
    synthesis builds one per request, and a named tuple builds in under
    half the time of a frozen dataclass.  Derive a changed copy with
    ``_replace``.
    """

    request_id: int
    #: (n_in,) input vector for the mapped network.
    x: np.ndarray
    #: Virtual arrival time [s].
    arrival_s: float
    #: Absolute completion deadline [s]; None means best-effort.
    deadline_s: float | None = None
    #: Larger values outrank smaller ones for admission and dispatch.
    priority: int = 0
    #: Originating tenant ("" for single-tenant workloads).  The fleet
    #: controller's rebalancing boost keys on this.
    tenant: str = ""
    #: Traffic class: ``"infer"`` or ``"train"``.  Degraded mode can
    #: freeze whole classes (training first).
    kind: str = "infer"

    def slack_s(self, now_s: float) -> float:
        """Time remaining until the deadline (inf for best-effort)."""
        if self.deadline_s is None:
            return math.inf
        return self.deadline_s - now_s


class CompletedRequest(NamedTuple):
    """A served request: output plus where/when it ran.

    A read-only named tuple: the server builds one per served request,
    and a positional tuple builds several times faster than a dataclass.
    """

    request: InferenceRequest
    #: (n_out,) output vector from the worker's ``forward_batch``.
    output: np.ndarray
    worker_id: int
    dispatch_s: float
    finish_s: float
    #: Total execution attempts (1 = served first try).
    attempts: int

    @property
    def latency_s(self) -> float:
        """Arrival-to-completion latency [s]."""
        return self.finish_s - self.request.arrival_s

    @property
    def deadline_met(self) -> bool:
        """True when the request finished before its deadline (or had none)."""
        deadline = self.request.deadline_s
        return deadline is None or self.finish_s <= deadline


class RejectedRequest(NamedTuple):
    """A shed request: always carries the reason and the decision time."""

    request: InferenceRequest
    reason: ShedReason
    shed_s: float
    #: Execution attempts made before shedding (0 = shed pre-dispatch).
    attempts: int = 0
    #: Human-readable amplification of the reason.
    detail: str = ""

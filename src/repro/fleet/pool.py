"""Worker lifecycle management: clone-commission, warm-up, drain, retire.

A fleet of hundreds of workers cannot afford the full build path (map +
program-verify deploy, ~40x the cost) per commission.  The pool builds
**one** template worker the expensive way, snapshots its accelerator
``state_dict`` (bit-exact: weights, PCM cell state, RNG streams), and
commissions every subsequent worker by cloning that snapshot onto a
fresh accelerator — clone outputs are bit-identical to the template's,
so fleet size never perturbs per-request results.

Lifecycle (tracked per worker id)::

    COLD --commission--> WARMING --(warm-up elapses)--> ACTIVE
         ACTIVE --begin_drain--> DRAINING --(idle)--> DECOMMISSIONED

Decommission checkpoints the worker's bank state as a digest before the
worker leaves the roster — drained capacity is *conserved*, auditable
state, not vanished hardware — and the server refuses to remove a
worker with in-flight batches, so the request-conservation audit holds
across any scale-up/drain schedule.
"""

from __future__ import annotations

import bisect
import hashlib

import numpy as np

from repro.errors import ServingError
from repro.serving.worker import AcceleratorWorker, remap_manager
from repro.serving.workload import build_worker, serving_chip
from repro.sharding.pipeline import single_chip_pipeline

#: Lifecycle states a pooled worker moves through.
WORKER_STATES = ("warming", "active", "draining", "decommissioned")


def state_digest(state: dict) -> str:
    """Deterministic SHA-256 of an accelerator ``state_dict``."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(str(obj.dtype).encode())
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, dict):
            for key in sorted(obj, key=str):
                h.update(str(key).encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    feed(state)
    return h.hexdigest()


class WorkerPool:
    """Builds, tracks, and retires the fleet's workers."""

    def __init__(self, dims: tuple[int, ...], seed: int) -> None:
        self.dims = tuple(dims)
        self.seed = int(seed)
        self._template_state: dict | None = None
        self._template_worker: AcceleratorWorker | None = None
        self._next_id = 0
        self.server = None
        #: worker id -> lifecycle state (one of :data:`WORKER_STATES`).
        self.states: dict[int, str] = {}
        #: lifecycle state -> its worker ids, ascending.  The controller
        #: reads these views every tick; workers change state only at
        #: scaling events.
        self._ids: dict[str, list[int]] = {state: [] for state in WORKER_STATES}
        #: worker id -> instant it may first take traffic.
        self.ready_s: dict[int, float] = {}
        #: worker id -> bank-state checkpoint digest at decommission.
        self.checkpoint_digests: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def make_worker(self, worker_id: int) -> AcceleratorWorker:
        """Build (first call) or clone (every later call) one worker."""
        if self._template_state is None:
            worker = build_worker(worker_id, self.dims, self.seed)
            self._template_state = worker.acc.state_dict()
            self._template_worker = worker
            return worker
        return self._clone(worker_id)

    def _clone(self, worker_id: int) -> AcceleratorWorker:
        acc = serving_chip(self.dims, self.seed)
        acc.load_state_dict(self._template_state)
        return AcceleratorWorker(
            worker_id, single_chip_pipeline(acc), [[remap_manager(acc)]]
        )

    def bootstrap(self, n_workers: int) -> list[AcceleratorWorker]:
        """The initial fleet (already warm); call before the server exists."""
        if n_workers < 1:
            raise ServingError(f"need at least one worker, got {n_workers}")
        if self._next_id != 0:
            raise ServingError("bootstrap must run before any commission")
        workers = []
        for _ in range(n_workers):
            wid = self._next_id
            self._next_id += 1
            workers.append(self.make_worker(wid))
            self._set_state(wid, "active")
            self.ready_s[wid] = 0.0
        return workers

    def bind(self, server) -> None:
        """Attach the server the lifecycle methods actuate against."""
        self.server = server

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _require_server(self):
        if self.server is None:
            raise ServingError("pool is not bound to a server")
        return self.server

    def commission(self, warmup_s: float) -> int:
        """Clone a new worker onto the roster; returns its id.

        The worker enters WARMING and takes no traffic until the warm-up
        delay elapses — modeling program-load + calibration time, and the
        hysteresis half that stops scale-up from thrashing.
        """
        server = self._require_server()
        wid = self._next_id
        self._next_id += 1
        worker = self.make_worker(wid)
        now = server.clock.now()
        ready = now + max(0.0, float(warmup_s))
        server.add_worker(worker, warm_at_s=ready)
        self._set_state(wid, "warming" if ready > now else "active")
        self.ready_s[wid] = ready
        return wid

    def refresh(self, now_s: float) -> list[int]:
        """Promote WARMING workers whose warm-up has elapsed; returns them."""
        warming = self._ids["warming"]
        if not warming:
            return []
        promoted = [wid for wid in warming if self.ready_s.get(wid, 0.0) <= now_s]
        for wid in promoted:
            self._set_state(wid, "active")
        return promoted

    def begin_drain(self, worker_id: int) -> None:
        """ACTIVE/WARMING -> DRAINING: no new dispatches from here on."""
        server = self._require_server()
        state = self.states.get(worker_id)
        if state in (None, "decommissioned"):
            raise ServingError(f"cannot drain worker {worker_id} ({state})")
        if state == "draining":
            return
        server.begin_drain(worker_id)
        self._set_state(worker_id, "draining")

    def try_decommission(self, worker_id: int) -> bool:
        """Retire a DRAINING worker once idle; checkpoints its bank state.

        Returns True when the worker actually left the roster this call.
        In-flight batches keep it DRAINING — graceful drain never abandons
        dispatched work.
        """
        server = self._require_server()
        if self.states.get(worker_id) != "draining":
            return False
        if not server.worker_idle(worker_id):
            return False
        worker = server.remove_worker(worker_id)
        digest = state_digest(worker.acc.state_dict())
        self.checkpoint_digests[worker_id] = digest
        self._set_state(worker_id, "decommissioned")
        server.record_decision(
            "checkpoint_worker", worker=worker_id, digest=digest[:16]
        )
        return True

    def _set_state(self, worker_id: int, state: str) -> None:
        before = self.states.get(worker_id)
        if before is not None:
            self._ids[before].remove(worker_id)
        self.states[worker_id] = state
        bisect.insort(self._ids[state], worker_id)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def ids_in(self, state: str) -> list[int]:
        """Worker ids currently in ``state``, ascending."""
        ids = self._ids.get(state)
        if ids is None:
            raise ServingError(f"unknown worker state {state!r}")
        return list(ids)

    def counts(self) -> dict[str, int]:
        """Lifecycle-state histogram."""
        return {state: len(ids) for state, ids in self._ids.items()}

    def unit_rate_hz(self, max_batch: int) -> float:
        """One worker's sustainable full-batch rate (template cost model)."""
        worker = self._probe_worker()
        return max_batch / worker.service_time_s(max_batch)

    def _probe_worker(self) -> AcceleratorWorker:
        if self._template_worker is not None:
            return self._template_worker
        raise ServingError("pool has no workers to probe")

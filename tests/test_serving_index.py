"""Readiness-index oracle: the indexed serving loop against a full scan.

:class:`ScanningServer` restores the scanning bodies of
``_serving_workers``, ``_min_service_s``, ``_estimate_completion_s`` and
``_dispatch_all``: every call rebuilds the serving set, and every
dispatch pass walks every worker and asks the batcher once per free
worker.  A Hypothesis property serves generated scenarios through both
servers and requires the same decisions, breaker transitions, sheds and
completions, bit for bit.  The indexed side also checks, at every
admission, its cached earliest-free instant against the O(workers) scan
(:class:`CheckedServer`).

The scenarios mix two single-chip price classes with a three-stage
overlapped pipeline, whose ingest wake-ups free it before its batch
finishes.  They schedule degradations, direct breaker trips, batch-knob
retunes, commissions with and without a warm-up, drains and
decommissions.  Arrivals share instants, carry priorities 0-2 and
deadlines that are absent, tight, loose or on the hopeless boundary.
"""

from __future__ import annotations

import copy
import functools
import heapq
import math

import numpy as np
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from repro.arch.config import TridentConfig
from repro.devices.program_verify import ProgramVerifyConfig
from repro.serving import (
    AcceleratorWorker,
    BreakerState,
    InferenceRequest,
    ServerConfig,
    ShedReason,
    TridentServer,
    build_sharded_worker,
    build_worker,
)
from repro.serving.server import _metric_gauge, _metric_histogram
from repro.sharding import plan_pipeline


def worker_free_s(server, worker_id: int, now_s: float) -> float:
    """Instant the worker can ingest a new batch (``now_s`` if idle)."""
    busy_until = server._busy_until[worker_id]
    return now_s if busy_until is None else busy_until


class ScanningServer(TridentServer):
    """The serving loop without a readiness index: a full scan per call."""

    def _serving_workers(self) -> list[AcceleratorWorker]:
        """Workers that could take a batch right now.

        Excludes hard-open breakers, draining workers, and workers still
        inside their warm-up window — capacity estimates must price only
        what dispatch would actually use.
        """
        now = self.clock.now()
        return [
            w
            for w in self.workers
            if self.breakers[w.worker_id].state is not BreakerState.OPEN
            and w.worker_id not in self.draining
            and self._warm_at.get(w.worker_id, now) <= now
        ]

    def _min_service_s(self) -> float:
        """Fastest possible single-request service time right now."""
        serving = self._serving_workers() or self.workers
        return min(w.service_time_s(1) for w in serving)

    def _estimate_completion_s(self, now_s: float) -> float:
        """Conservative finish estimate for a request admitted at ``now_s``.

        Prices the backlog with the cost model: everything queued ahead
        plus this request, in full batches, spread across workers the
        breakers currently allow, starting when the earliest of those
        workers frees up.
        """
        serving = self._serving_workers()
        if not serving:
            return float("inf")
        max_batch = self.batcher.max_batch
        full_batch_s = max(w.service_time_s(max_batch) for w in serving)
        earliest_free = min(
            worker_free_s(self, w.worker_id, now_s) for w in serving
        )
        batches = -(-(len(self.queue) + 1) // max_batch)
        drain_s = batches * full_batch_s / len(serving)
        return max(now_s, earliest_free) + drain_s

    def _dispatch_all(self) -> None:
        now = self.clock.now()
        min_service = self._min_service_s()
        for hopeless in self.queue.drop_hopeless(now, min_service):
            self._record_shed(
                hopeless,
                ShedReason.DEADLINE_EXPIRED,
                "deadline unreachable even dispatching now",
            )
        for worker in self.workers:
            if not len(self.queue):
                break
            wid = worker.worker_id
            if wid in self.draining:
                continue
            warm_at = self._warm_at.get(wid)
            if warm_at is not None:
                if warm_at > now:
                    continue
                del self._warm_at[wid]
            busy_until = self._busy_until[wid]
            if busy_until is not None and busy_until > now:
                continue
            breaker = self.breakers[wid]
            was_open = breaker.state is BreakerState.OPEN
            if not breaker.allow(now):
                continue
            if breaker.state is BreakerState.HALF_OPEN:
                if was_open:
                    # Entering half-open: the quarantine window is when
                    # maintenance runs — one repair sweep per window.
                    self._probe_repair(worker)
                if wid in self._half_open_probed:
                    continue  # one probe at a time
                size = 1  # risk one request on an unproven worker
                self._half_open_probed.add(wid)
            else:
                if not self.batcher.should_dispatch(
                    self.queue, now, self._next_refill_s(),
                    worker.service_time_s,
                ):
                    continue
                size = self.batcher.size_batch(self.queue)
            batch = tuple(self.queue.pop_batch(size))
            ingest_free, finish = worker.dispatch_times_s(now, len(batch))
            self._busy_until[wid] = ingest_free
            self._event_seq += 1
            heapq.heappush(
                self._completions,
                (finish, self._event_seq, wid, batch, now),
            )
            if ingest_free < finish:
                # Overlapped worker: wake the loop when its first stage
                # frees so the next batch can enter before this one exits.
                self._event_seq += 1
                heapq.heappush(
                    self._ingest_events, (ingest_free, self._event_seq)
                )
            self._decide(
                "dispatch",
                worker=wid,
                requests=[r.request_id for r in batch],
                batch=len(batch),
                probe=breaker.state is BreakerState.HALF_OPEN,
            )
            _metric_histogram(
                "repro_serve_batch_occupancy",
                "Dispatched micro-batch size / max_batch",
                buckets=(0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0),
            ).observe(len(batch) / self.batcher.max_batch)
            if self.rollup is not None:
                self.rollup.record_queue_depth(now, len(self.queue))
            _metric_gauge(
                "repro_serve_queue_depth", "Admission-queue depth"
            ).set(len(self.queue))


class CheckedServer(TridentServer):
    """The indexed server, checking its earliest-free cache per admission."""

    def _estimate_completion_s(self, now_s: float) -> float:
        serving = self._serving_workers()
        if serving:
            cached = self._earliest_free_s(serving)
            busy = [self._busy_until[w.worker_id] for w in serving]
            assert cached == (-math.inf if None in busy else min(busy))
            # The O(workers) scan the estimate used to run.
            scan = min(worker_free_s(self, w.worker_id, now_s) for w in serving)
            assert max(now_s, cached) == max(now_s, scan)
        return super()._estimate_completion_s(now_s)


# ---------------------------------------------------------------------------
# Workers: built once per (kind, id), deep-copied for every server
# ---------------------------------------------------------------------------
N_IN = 8
SHARD = TridentConfig(n_pes=8, bank_rows=8, bank_cols=8)
SHARD_DIMS = [N_IN, 32, 32, 8]
EXACT_VERIFY = ProgramVerifyConfig(write_std_levels=0.0, read_std_levels=0.0)
#: Two single-chip price classes and a three-stage overlapped pipeline.
KINDS = ("small", "deep", "sharded")
#: Arrival and action instants are multiples of this, so many coincide.
TICK = 2.5e-7


@functools.lru_cache(maxsize=None)
def template(kind: str, worker_id: int) -> AcceleratorWorker:
    if kind == "small":
        return build_worker(worker_id, (N_IN, 4), seed=3 + worker_id)
    if kind == "deep":
        return build_worker(worker_id, (N_IN, 12, 4), seed=3 + worker_id)
    rng = np.random.default_rng(worker_id)
    weights = [
        rng.normal(0.0, 0.6, (n_out, n_in))
        for n_in, n_out in zip(SHARD_DIMS[:-1], SHARD_DIMS[1:])
    ]
    return build_sharded_worker(
        worker_id, plan_pipeline(SHARD_DIMS, SHARD), weights, config=SHARD,
        seed=worker_id, program_verify=EXACT_VERIFY, with_managers=True,
        spare_pes=8, stage_cooldown_s=2e-6,
    )


def fresh(kind: str, worker_id: int) -> AcceleratorWorker:
    return copy.deepcopy(template(kind, worker_id))


def solo_s(kind: str) -> float:
    """A kind's single-request price: the hopeless-boundary unit."""
    return template(kind, 0).service_time_s(1)


# ---------------------------------------------------------------------------
# Scenarios
# ---------------------------------------------------------------------------
arrival_specs = st.lists(
    st.tuples(
        st.integers(0, 60),                      # arrival tick
        st.integers(0, 2),                       # priority
        st.sampled_from(["none", "tight", "loose", "boundary"]),
        st.sampled_from(KINDS),                  # boundary price / slack unit
        st.integers(0, 8),                       # ticks of extra slack
    ),
    min_size=1,
    max_size=40,
)

action_specs = st.lists(
    st.tuples(
        st.integers(0, 70),                      # action tick
        st.sampled_from(
            ["degrade", "trip", "retune", "add", "drain", "remove",
             "decommission"]
        ),
        st.integers(0, 7),                       # target roster slot
        st.integers(0, 8),                       # argument
        st.sampled_from(KINDS),                  # kind of a commissioned worker
    ),
    max_size=8,
)

scenarios = st.fixed_dictionaries(
    {
        "kinds": st.lists(st.sampled_from(KINDS), min_size=1, max_size=4),
        "arrivals": arrival_specs,
        "actions": action_specs,
        "config": st.fixed_dictionaries(
            {
                "max_queue_depth": st.integers(2, 10),
                "max_batch": st.integers(1, 4),
                "slo_latency_s": st.sampled_from([2e-6, 5e-6, 2e-5]),
                "max_retries": st.integers(0, 2),
                "breaker_failure_threshold": st.integers(1, 3),
                "breaker_cooldown_s": st.sampled_from([2e-6, 5e-6]),
                "seed": st.integers(0, 2**16),
            }
        ),
    }
)


def arrivals(specs) -> list[InferenceRequest]:
    out = []
    for rid, (tick, priority, deadline, unit, extra) in enumerate(specs):
        t = tick * TICK
        deadline_s = {
            "none": None,
            "tight": t + (1 + extra / 4) * solo_s(unit),
            "loose": t + (4 + extra) * solo_s(unit),
            # Exactly one solo dispatch of slack, ``extra`` ticks later.
            "boundary": (t + extra * TICK) + solo_s(unit),
        }[deadline]
        x = np.random.default_rng(rid).uniform(-1.0, 1.0, N_IN)
        out.append(InferenceRequest(rid, x, t, deadline_s, priority))
    return out


def make_action(op: str, slot: int, arg: int, kind: str, new_id: int):
    def target(server):
        return server.workers[slot % len(server.workers)].worker_id

    def remove_if_idle(server, wid):
        if (
            wid in server.breakers
            and len(server.workers) > 1
            and server.worker_idle(wid)
        ):
            server.remove_worker(wid)

    def action(server):
        now = server.clock.now()
        wid = target(server)
        if op == "degrade":
            worker = next(w for w in server.workers if w.worker_id == wid)
            worker.degrade(0.05 * (1 + arg), stuck_level=254)
        elif op == "trip":
            server.breakers[wid].trip(now, "test_trip")
        elif op == "retune":
            server.batcher.max_batch = 1 + arg % 4
        elif op == "add":
            warm = now + arg * TICK if arg % 3 else None
            server.add_worker(fresh(kind, new_id), warm_at_s=warm)
        elif op == "drain":
            server.begin_drain(wid)
        elif op == "remove":
            remove_if_idle(server, wid)
        else:  # decommission: drain now, remove once idle ``arg`` ticks on
            server.begin_drain(wid)
            server.schedule_action(
                now + (1 + arg) * TICK, f"remove_{wid}",
                lambda srv: remove_if_idle(srv, wid),
            )

    return action


def serve(cls, scenario):
    workers = [fresh(kind, i) for i, kind in enumerate(scenario["kinds"])]
    server = cls(workers, config=ServerConfig(**scenario["config"]))
    for index, (tick, op, slot, arg, kind) in enumerate(scenario["actions"]):
        server.schedule_action(
            tick * TICK, f"{op}#{index}",
            make_action(op, slot, arg, kind, new_id=100 + index),
        )
    return server.run(arrivals(scenario["arrivals"]))


def assert_same_run(indexed, scanned) -> None:
    assert indexed.decisions == scanned.decisions
    assert indexed.breaker_transitions == scanned.breaker_transitions
    assert indexed.retries_scheduled == scanned.retries_scheduled
    assert indexed.admitted_ids == scanned.admitted_ids

    def sheds(report):
        return [
            (r.request.request_id, r.reason, r.shed_s, r.attempts, r.detail)
            for r in report.shed
        ]

    assert sheds(indexed) == sheds(scanned)
    assert len(indexed.completed) == len(scanned.completed)
    for a, b in zip(indexed.completed, scanned.completed):
        assert (
            a.request.request_id, a.worker_id, a.dispatch_s, a.finish_s,
            a.attempts,
        ) == (
            b.request.request_id, b.worker_id, b.dispatch_s, b.finish_s,
            b.attempts,
        )
        assert np.array_equal(a.output, b.output)


def pinned(kinds, requests, actions, max_batch=4):
    """A hand-built scenario with fixed knobs."""
    config = {
        "max_queue_depth": 10, "max_batch": max_batch,
        "slo_latency_s": 2e-5, "max_retries": 0,
        "breaker_failure_threshold": 3, "breaker_cooldown_s": 2e-6,
        "seed": 0,
    }
    return {
        "kinds": kinds, "arrivals": requests, "actions": actions,
        "config": config,
    }


BEST_EFFORT = ("none", "small", 0)
#: One scenario per cache transition that random search reaches only
#: sometimes; each fails the property if that transition is lost.
PINNED = [
    # Worker 1 is tripped at t=0.  At 2 us (a no-op retune wakes the
    # loop on its probe instant) worker 0 answers "wait" for the
    # best-effort head, worker 1 half-opens and probes that head, and
    # worker 2, of worker 0's class, must be asked afresh: the new head's
    # deadline cannot wait for the refill at 10 us.
    pinned(
        ["small"] * 3,
        [(2, 2, *BEST_EFFORT), (2, 0, "loose", "small", 0),
         (40, 0, *BEST_EFFORT)],
        [(0, "trip", 1, 0, "small"), (8, "retune", 0, 3, "small")],
    ),
    # The first deadline prices a full batch at max_batch 4.  After the
    # retune to 1, a deadline exactly one solo dispatch away is
    # admissible only if the full-batch price follows the live cap.
    pinned(
        ["small"],
        [(2, 0, "loose", "small", 0), (12, 0, "boundary", "small", 0)],
        [(3, "retune", 0, 0, "small")],
    ),
    # The small worker waits for the refill; a pipeline commissioned
    # warm at once cannot, so it must join the free list (in its own
    # price class) and take the head.
    pinned(
        ["small"],
        [(0, 0, "tight", "small", 6), (2, 0, *BEST_EFFORT)],
        [(1, "add", 0, 0, "sharded")],
    ),
    # A drained (then a removed) idle worker must leave the free list
    # before the full batch at 0.5 us.
    pinned(
        ["small"] * 2, [(0, 0, *BEST_EFFORT), (2, 0, *BEST_EFFORT)],
        [(1, "drain", 0, 0, "small")], max_batch=2,
    ),
    pinned(
        ["small"] * 2, [(0, 0, *BEST_EFFORT), (2, 0, *BEST_EFFORT)],
        [(1, "remove", 0, 0, "small")], max_batch=2,
    ),
    # Tripping worker 1 halves the serving set, which puts the second
    # request's boundary deadline out of reach.
    pinned(
        ["small"] * 2, [(0, 0, *BEST_EFFORT), (2, 0, "boundary", "small", 0)],
        [(1, "trip", 1, 0, "small")],
    ),
    # The second request arrives while the first is in service: the
    # busy worker must leave the free list and rejoin it when it frees.
    pinned(
        ["small"], [(0, 0, *BEST_EFFORT), (1, 0, *BEST_EFFORT)], [],
        max_batch=1,
    ),
    # A worker warming until 0.5 us joins the serving set then, which
    # makes the boundary deadline at 0.75 us admissible.
    pinned(
        ["small"], [(3, 0, "boundary", "small", 0)],
        [(1, "add", 0, 1, "small")],
    ),
    # The tight request is priced against the busy worker and shed, so
    # the completion at 1 us dispatches nothing: the earliest-free
    # instant it clears must not outlive it into the 2 us admission.
    pinned(
        ["small"],
        [(0, 0, *BEST_EFFORT), (1, 0, "tight", "small", 0),
         (8, 0, "loose", "small", 0)],
        [], max_batch=1,
    ),
    # As above, but an idle worker ends its warm-up at 0.5 us while the
    # first is still busy: the serving set grows, the earliest-free
    # instant drops to "now", and the 0.75 us admission must see it.
    pinned(
        ["small"],
        [(0, 0, *BEST_EFFORT), (1, 0, "tight", "small", 0),
         (3, 0, "loose", "small", 0)],
        [(0, "add", 0, 2, "small")], max_batch=1,
    ),
]


def with_pinned(test):
    for scenario in reversed(PINNED):
        test = example(scenario)(test)
    return test


@settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    # The explain phase traces every line, deep copies included: minutes.
    phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink],
)
@given(scenarios)
@with_pinned
def test_index_matches_full_scan(hang_guard, scenario):
    with hang_guard(20):
        indexed = serve(CheckedServer, scenario)
        scanned = serve(ScanningServer, scenario)
    assert_same_run(indexed, scanned)

"""Property-based tests (hypothesis) on serving-layer invariants.

The invariants under test, per ISSUE acceptance criteria:

- **Conservation** — no admitted (or submitted) request is ever silently
  dropped: every request terminates exactly once, as a completion or a
  structured rejection.
- **Structured shedding** — every shed request carries a reason and
  human-readable detail.
- **Bounded retries** — no request is attempted more than
  ``max_retries + 1`` times.
- **Determinism** — replaying the same seed and arrival schedule yields
  a bit-identical admit/shed/dispatch decision sequence and outputs.
- **Admission bookkeeping** — ``admitted_ids`` holds exactly the
  first-time admissions, and only an admitted request is ever retried.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    InferenceRequest,
    ServerConfig,
    ShedReason,
    TridentServer,
    build_worker,
)

DIMS = (6, 4)

request_specs = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=5e-6),        # inter-arrival gap
        st.integers(min_value=0, max_value=2),           # priority
        st.one_of(st.none(), st.floats(1e-7, 2e-5)),     # deadline slack
    ),
    min_size=1,
    max_size=25,
)

server_knobs = st.fixed_dictionaries(
    {
        "max_queue_depth": st.integers(1, 6),
        "max_batch": st.integers(1, 4),
        "max_retries": st.integers(0, 2),
        "seed": st.integers(0, 2**16),
    }
)


def build_arrivals(specs):
    arrivals, t = [], 0.0
    rng = np.random.default_rng(0)
    for rid, (gap, priority, slack) in enumerate(specs):
        t += gap
        arrivals.append(
            InferenceRequest(
                request_id=rid,
                x=rng.uniform(-1, 1, DIMS[0]),
                arrival_s=t,
                deadline_s=None if slack is None else t + slack,
                priority=priority,
            )
        )
    return arrivals


def run_once(specs, knobs, degrade):
    worker = build_worker(0, DIMS, seed=11)
    config = ServerConfig(
        slo_latency_s=1e-5,
        breaker_failure_threshold=2,
        breaker_cooldown_s=1e-6,
        **knobs,
    )
    server = TridentServer([worker], config=config)
    arrivals = build_arrivals(specs)
    if degrade and arrivals:
        mid = arrivals[len(arrivals) // 2].arrival_s
        server.schedule_action(
            mid, "degrade", lambda s: s.workers[0].degrade(0.25, stuck_level=254)
        )
    return server.run(arrivals), server


class TestServingInvariants:
    @settings(max_examples=20, deadline=None)
    @given(specs=request_specs, knobs=server_knobs, degrade=st.booleans())
    def test_no_request_silently_dropped(self, specs, knobs, degrade):
        report, _ = run_once(specs, knobs, degrade)
        assert report.conservation_ok()
        completed = {c.request.request_id for c in report.completed}
        shed = {r.request.request_id for r in report.shed}
        assert completed | shed == {r.request_id for r in build_arrivals(specs)}
        assert not completed & shed

    @settings(max_examples=20, deadline=None)
    @given(specs=request_specs, knobs=server_knobs, degrade=st.booleans())
    def test_shed_requests_carry_reasons(self, specs, knobs, degrade):
        report, _ = run_once(specs, knobs, degrade)
        for rejection in report.shed:
            assert isinstance(rejection.reason, ShedReason)
            assert rejection.detail
            assert rejection.shed_s >= rejection.request.arrival_s

    @settings(max_examples=20, deadline=None)
    @given(specs=request_specs, knobs=server_knobs)
    def test_retries_never_exceed_budget(self, specs, knobs):
        # Always degrade so failures (and therefore retries) actually occur.
        report, server = run_once(specs, knobs, degrade=True)
        budget = server.config.max_retries + 1
        for completion in report.completed:
            assert 1 <= completion.attempts <= budget
        for rejection in report.shed:
            assert 0 <= rejection.attempts <= budget

    @settings(max_examples=20, deadline=None)
    @given(specs=request_specs, knobs=server_knobs)
    def test_admitted_ids_are_first_admissions(self, specs, knobs):
        # Degrade so batches fail and requests come back as retries.
        report, _ = run_once(specs, knobs, degrade=True)
        first_admits = set()
        for decision in report.decisions:
            if decision["kind"] == "admit" and not decision["retry"]:
                first_admits.add(decision["request"])
            elif decision["kind"] == "retry":
                assert decision["request"] in first_admits
        assert report.admitted_ids == first_admits

    @settings(max_examples=10, deadline=None)
    @given(specs=request_specs, knobs=server_knobs, degrade=st.booleans())
    def test_same_seed_replays_identical_decisions(self, specs, knobs, degrade):
        first, _ = run_once(specs, knobs, degrade)
        second, _ = run_once(specs, knobs, degrade)
        assert first.decisions == second.decisions
        assert first.breaker_transitions == second.breaker_transitions
        for a, b in zip(first.completed, second.completed):
            assert a.request.request_id == b.request.request_id
            assert a.attempts == b.attempts
            assert np.array_equal(a.output, b.output)

    @settings(max_examples=10, deadline=None)
    @given(specs=request_specs, knobs=server_knobs)
    def test_deadline_met_flag_is_honest(self, specs, knobs):
        report, _ = run_once(specs, knobs, degrade=False)
        for completion in report.completed:
            deadline = completion.request.deadline_s
            expected = deadline is None or completion.finish_s <= deadline
            assert completion.deadline_met == expected

"""ServingRollup against a brute-force recomputation, call by call.

The rollup keeps every aggregate incrementally: updated when a sample is
recorded, reversed when it ages out of the window.  The machine below
feeds it ``record_*`` calls at non-decreasing virtual times, lets time
pass and now and then switches the SLO target, and keeps the raw samples
itself.  After every step it reads ``window_stats`` at the current
instant and target: the whole :class:`RollupStats` must equal one
rebuilt from the samples with t in (now - window, now].
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.telemetry.rollup import RollupStats, ServingRollup

_STEP = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 2.0)
_TENANT = st.sampled_from(["", "a", "b"])
_REASON = st.sampled_from(["queue_full", "deadline_expired", "degraded_shed"])
#: SLO targets; a switch always moves to another one.  Latencies fall on
#: each target (``latency <= slo`` meets its boundary) and in every gap
#: between them (a switch regrades samples already recorded): only the
#: side of each target matters, so these seven values cover every case.
_TARGETS = (0.5, 1.0, 2.0)
_LATENCY = st.sampled_from([0.25, 0.5, 0.75, 1.0, 1.5, 2.0, 4.0])
#: Watts on a dyadic grid: the rollup's running sum, with expired
#: samples subtracted, then equals a fresh sum exactly, so the mean
#: compares with ``==``.
_WATTS = st.integers(0, 64).map(lambda k: k / 4)


class RollupMachine(RuleBasedStateMachine):
    """The incremental rollup against its samples, read by read."""

    @initialize(window=st.sampled_from([1.0, 2.5]) | st.floats(0.1, 4.0))
    def start(self, window):
        self.rollup = ServingRollup(window)
        self.window = float(window)
        self.slo = 1.0
        self.now = 0.0
        self.completions = []  # (t, latency, deadline_met, tenant)
        self.sheds = []  # (t, reason, tenant)
        self.queue = []  # (t, depth)
        self.power = []  # (t, watts)
        self.sdc = []  # (t, worker_id)

    def advance(self, step):
        self.now += step
        return self.now

    @rule(step=_STEP, latency=_LATENCY, met=st.booleans(), tenant=_TENANT)
    def record_completion(self, step, latency, met, tenant):
        t = self.advance(step)
        self.rollup.record_completion(t, latency, met, tenant)
        self.completions.append((t, latency, met, tenant))

    @rule(step=_STEP, reason=_REASON, tenant=_TENANT)
    def record_shed(self, step, reason, tenant):
        t = self.advance(step)
        self.rollup.record_shed(t, reason, tenant)
        self.sheds.append((t, reason, tenant))

    @rule(step=_STEP, depth=st.integers(0, 9))
    def record_queue_depth(self, step, depth):
        t = self.advance(step)
        self.rollup.record_queue_depth(t, depth)
        self.queue.append((t, depth))

    @rule(step=_STEP, watts=_WATTS)
    def record_power(self, step, watts):
        t = self.advance(step)
        self.rollup.record_power(t, watts)
        self.power.append((t, watts))

    @rule(step=_STEP, worker=st.integers(0, 2))
    def record_sdc(self, step, worker):
        t = self.advance(step)
        self.rollup.record_sdc(t, worker)
        self.sdc.append((t, worker))

    @rule(step=_STEP)
    def wait(self, step):
        self.advance(step)

    @rule(step=_STEP, shift=st.integers(1, len(_TARGETS) - 1))
    def switch_slo(self, step, shift):
        self.advance(step)
        index = _TARGETS.index(self.slo) + shift
        self.slo = _TARGETS[index % len(_TARGETS)]

    @invariant()
    def window_stats(self):
        now, slo = self.now, self.slo
        stats = self.rollup.window_stats(now, slo)
        horizon = now - self.window

        def live(samples):
            return [sample for sample in samples if sample[0] > horizon]

        completions, sheds = live(self.completions), live(self.sheds)
        queue, power, sdc = live(self.queue), live(self.power), live(self.sdc)
        met = sum(1 for _, latency, ok, _ in completions if ok and latency <= slo)
        organic = sum(1 for _, reason, _ in sheds if reason != "degraded_shed")
        terminated = len(completions) + organic
        shed_by_tenant = Counter(tenant for _, _, tenant in sheds)
        assert stats == RollupStats(
            window_s=self.window,
            completions=len(completions),
            sheds=len(sheds),
            attainment=met / terminated if terminated else 1.0,
            shed_by_tenant=dict(shed_by_tenant),
            terminated_by_tenant=dict(
                Counter(tenant for *_, tenant in completions) + shed_by_tenant
            ),
            last_queue_depth=queue[-1][1] if queue else 0,
            mean_power_w=sum(w for _, w in power) / len(power) if power else 0.0,
            sdc_count=len(sdc),
            sdc_by_worker=dict(Counter(worker for _, worker in sdc)),
        )


TestRollupModel = RollupMachine.TestCase
TestRollupModel.settings = settings(
    max_examples=100, stateful_step_count=60, deadline=None
)

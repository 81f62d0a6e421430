"""The CI timing gates: five bars, one timer.

Run with ``PYTHONPATH=src python -m pytest -q -rP
benchmarks/test_timing_gates.py``; each gate prints one reading line,
which ``-rP`` shows for a passing gate too.  The bars:

- **batch scaling**: one B=256 ``forward_batch`` on a 64-48-10 MLP tiled
  over 16x16 banks reproduces 256 single-sample batches (identical
  outputs on noise-free hardware, identical event counters) and beats
  them by at least 5x;
- **disabled telemetry**: the hooks one pass runs with no session (a span
  per pass and per layer, two counters) cost under 2% of the pass
  (docs/ARCHITECTURE.md §10);
- **disabled chaos**: the hooks one ``AcceleratorWorker.execute`` runs
  with no chaos session (two crash checks, the corruption hook and the
  always-on ``isfinite`` integrity check) cost under 1% of the pass
  (§13);
- **fleet control loop**: the controller's decision loop costs under 1%
  of a controlled smoke run's wall (§14);
- **integrity**: a clean ``attest_batch`` costs under 5% of the pass it
  attests, and the recorded pass it needs is at most 10% slower than the
  plain one (§15).

Every gate but the fleet's times its sides with :func:`alternate` and
grades the median of the per-round ratios: the two loops of a round run
back to back, so a change in machine speed hits both, while the best
loops of two sides can come from rounds with different machine speeds.
The fleet gate grades the best of three runs on the ratio itself,
because both of its sides come from the same run.
"""

import contextlib
import gc
import statistics
import time
from typing import Callable, ContextManager, NamedTuple

import numpy as np
import pytest

from repro import telemetry
from repro.arch import TridentAccelerator
from repro.chaos.session import corrupt_output, crash_check, enabled as chaos_enabled
from repro.fleet import run_fleet_workload, smoke_scenario
from repro.integrity.checker import attest_batch
from repro.integrity.workload import build_integrity_worker

DIMS = [64, 48, 10]
BATCH = 256
#: B=256 passes per timed loop on the 64-48-10 chip (about 35 ms).
PASSES = 100
#: Calls of a hook sequence per timed loop.
HOOK_CALLS = 10_000
#: Timed loops per side.
ROUNDS = 9

MIN_SPEEDUP = 5.0
MAX_TELEMETRY_OVERHEAD = 0.02
MAX_CHAOS_OVERHEAD = 0.01
MAX_LOOP_RATIO = 0.01
MAX_ATTEST_OVERHEAD = 0.05
MAX_RECORD_OVERHEAD = 0.10


class Side(NamedTuple):
    """One timed side: ``calls`` calls of ``fn`` per loop, each loop inside
    a fresh ``within()`` context."""

    fn: Callable[[], object]
    calls: int
    within: Callable[[], ContextManager] = contextlib.nullcontext


class Ratio(NamedTuple):
    """Median, lowest and highest of the per-round ratios of two sides."""

    median: float
    low: float
    high: float


class Timing(NamedTuple):
    """What :func:`alternate` measured."""

    #: Per side, each round's time per call [s].
    loops: dict[str, list[float]]

    def best(self, side: str) -> float:
        """The side's best time per call [s]."""
        return min(self.loops[side])

    def ratio(self, side: str, reference: str) -> Ratio:
        """``side`` over ``reference``, round by round."""
        ratios = sorted(a / b for a, b in zip(self.loops[side], self.loops[reference]))
        return Ratio(statistics.median(ratios), ratios[0], ratios[-1])


def alternate(**sides: Side) -> Timing:
    """Time one loop per side per round, the sides taking turns, for
    ``ROUNDS`` rounds.

    Each loop starts with one untimed call inside its context, so a loop
    times its own side's steady state: a fresh session's instruments are
    made, and the allocator holds what this side last freed rather than
    paying page faults for what the other side left.
    """
    loops: dict[str, list[float]] = {name: [] for name in sides}
    for _ in range(ROUNDS):
        for name, side in sides.items():
            with side.within():
                side.fn()
                t0 = time.perf_counter()
                for _ in range(side.calls):
                    side.fn()
                loops[name].append((time.perf_counter() - t0) / side.calls)
    return Timing(loops)


@pytest.fixture(scope="module")
def chip():
    """The mapped 64-48-10 chip and the B=256 batch of the three
    small-chip gates."""
    rng = np.random.default_rng(0)
    acc = TridentAccelerator()
    acc.map_mlp(DIMS)
    acc.set_weights([rng.uniform(-1, 1, (o, i)) for i, o in zip(DIMS[:-1], DIMS[1:])])
    xs = np.random.default_rng(1).uniform(-1, 1, (BATCH, DIMS[0]))
    return acc, xs


def _single_sample_batches(acc: TridentAccelerator, xs: np.ndarray) -> np.ndarray:
    return np.concatenate([acc.forward_batch(x[None]) for x in xs])


def test_batch_scaling(chip):
    acc, xs = chip
    assert any(len(layer.tiles) > 1 for layer in acc.layers), (
        "the bar is multi-tile streaming; enlarge DIMS if banks grew"
    )
    before = acc.counters.snapshot()
    out_batch = acc.forward_batch(xs)
    middle = acc.counters.snapshot()
    out_sample = _single_sample_batches(acc, xs)
    np.testing.assert_allclose(out_batch, out_sample, rtol=0, atol=1e-12)
    assert middle.diff(before) == acc.counters.diff(middle)

    t = alternate(
        batch=Side(lambda: acc.forward_batch(xs), PASSES),
        samples=Side(lambda: _single_sample_batches(acc, xs), 1),
    )
    speedup = t.ratio("samples", "batch")
    print(
        f"batch scaling: B={BATCH} pass {t.best('batch') * 1e3:.3f} ms, {BATCH} "
        f"single-sample batches {t.best('samples') * 1e3:.2f} ms: "
        f"{speedup.median:.1f}x (bar >= {MIN_SPEEDUP:g}x; rounds "
        f"{speedup.low:.1f}x to {speedup.high:.1f}x)"
    )
    assert speedup.median >= MIN_SPEEDUP


def test_disabled_telemetry(chip):
    acc, xs = chip
    assert not telemetry.enabled()
    spans = 1 + len(acc.layers)

    def hooks():
        for _ in range(spans):
            with telemetry.trace_span("gate"):
                pass
        telemetry.counter("gate_total").inc()
        telemetry.counter("gate_total").inc()

    def forward():
        acc.forward_batch(xs)

    t = alternate(
        plain=Side(forward, PASSES),
        live=Side(forward, PASSES, within=telemetry.session),
        hooks=Side(hooks, HOOK_CALLS),
    )
    assert not telemetry.enabled()
    cost, live = t.ratio("hooks", "plain"), t.ratio("live", "plain")
    print(
        f"disabled telemetry: {spans} spans + 2 counters {t.best('hooks') * 1e6:.2f} us "
        f"per {t.best('plain') * 1e3:.3f} ms pass: {cost.median:.3%} (bar "
        f"{MAX_TELEMETRY_OVERHEAD:.0%}; rounds {cost.low:.3%} to {cost.high:.3%}); "
        f"live session {live.median - 1:+.1%} (informational; rounds "
        f"{live.low - 1:+.1%} to {live.high - 1:+.1%})"
    )
    assert cost.median < MAX_TELEMETRY_OVERHEAD


def test_disabled_chaos(chip):
    acc, xs = chip
    assert not chaos_enabled()
    outputs = acc.forward_batch(xs)

    def hooks():
        crash_check(0, "dispatch", 0.0)
        corrupt_output(0, 0.0, outputs)
        crash_check(0, "drain", 0.0)
        np.isfinite(outputs).all()

    t = alternate(
        plain=Side(lambda: acc.forward_batch(xs), PASSES),
        hooks=Side(hooks, HOOK_CALLS),
    )
    cost = t.ratio("hooks", "plain")
    print(
        f"disabled chaos: 2 crash checks + corrupt_output + isfinite "
        f"{t.best('hooks') * 1e6:.2f} us per {t.best('plain') * 1e3:.3f} ms pass: "
        f"{cost.median:.3%} (bar {MAX_CHAOS_OVERHEAD:.0%}; rounds {cost.low:.3%} "
        f"to {cost.high:.3%})"
    )
    assert cost.median < MAX_CHAOS_OVERHEAD


def test_fleet_control_loop():
    gc.collect()  # the earlier gates' garbage, so no trial's tick collects it
    trials = []
    for _ in range(3):
        t0 = time.perf_counter()
        result = run_fleet_workload(smoke_scenario(seed=0), controlled=True)
        trials.append((result.controller.wall_s / (time.perf_counter() - t0), result))
    ratio, result = min(trials, key=lambda trial: trial[0])
    controller = result.controller
    print(
        f"fleet control loop: {controller.wall_s * 1e3:.2f} ms over "
        f"{controller.ticks} ticks "
        f"({controller.wall_s / max(controller.ticks, 1) * 1e6:.1f} us/tick): "
        f"{ratio:.3%} of the run (bar {MAX_LOOP_RATIO:.0%}; best of 3, worst "
        f"{max(r for r, _ in trials):.3%}); provisioning "
        f"{controller.provision_wall_s * 1e3:.2f} ms over "
        f"{controller.scale_up_events} up / {controller.scale_down_events} down"
    )
    assert ratio < MAX_LOOP_RATIO
    # The graded run must be a real controlled run.
    assert controller.stopped
    assert controller.scale_up_events > 0
    assert result.report.conservation_ok()


def test_integrity():
    dims, seed = (768, 768, 768), 7
    worker = build_integrity_worker(0, dims, seed, with_integrity=True)
    checker, acc = worker.integrity, worker.acc
    xs = np.random.default_rng(seed + 1).uniform(-1, 1, (BATCH, dims[0]))
    outputs = acc.forward_batch(xs, record=True)

    t = alternate(
        plain=Side(lambda: acc.forward_batch(xs), 2),
        record=Side(lambda: acc.forward_batch(xs, record=True), 2),
        attest=Side(
            lambda: attest_batch(checker, xs, outputs, worker_id=0, now_s=0.0), 50
        ),
    )
    # A trip would time the re-execute and digital-spare rungs, not the
    # clean check the budget is for.
    assert checker.counters.checks > 0
    assert checker.counters.tripped == 0
    attest, record = t.ratio("attest", "plain"), t.ratio("record", "plain")
    print(
        f"integrity: attest_batch {t.best('attest') * 1e6:.1f} us per "
        f"{t.best('plain') * 1e3:.2f} ms pass: {attest.median:.2%} (bar "
        f"{MAX_ATTEST_OVERHEAD:.0%}; rounds {attest.low:.2%} to {attest.high:.2%}); "
        f"recorded pass {record.median - 1:+.2%} (bar +{MAX_RECORD_OVERHEAD:.0%}; "
        f"rounds {record.low - 1:+.2%} to {record.high - 1:+.2%})"
    )
    assert attest.median < MAX_ATTEST_OVERHEAD
    assert record.median - 1 < MAX_RECORD_OVERHEAD

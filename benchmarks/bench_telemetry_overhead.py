"""Disabled-telemetry overhead gate on the batched forward path.

The telemetry hooks woven through ``forward_batch`` are always compiled
in; the contract (docs/ARCHITECTURE.md §10) is that with no active
session each hook costs one module-global read returning a shared no-op.
This bench holds that to < 2% of a batched forward pass: it
microbenchmarks the disabled hook primitives directly (a tight loop is
the only way to resolve sub-microsecond costs), counts the hook sites
one pass actually executes, and requires

    hooks_per_pass x cost_per_hook  <  2% x forward_batch wall time.

The enabled-session cost is measured too and recorded in the report as
an informational line — enabling tracing is allowed to cost something;
*shipping it disabled* is what must stay free.  Both sides of that ratio
are timed the same way, as the best of five loops of ``LOOP_PASSES``
passes, the untraced and traced loops alternating so that a change in
machine load hits both: a single ~0.5 ms pass is too noisy to compare.
"""

import time

import numpy as np

from repro import telemetry
from repro.arch import TridentAccelerator

DIMS = [64, 48, 10]
BATCH = 256
MAX_DISABLED_OVERHEAD = 0.02
MICRO_ITERS = 100_000
LOOP_PASSES = 200


def _mapped_accelerator(seed: int = 0) -> TridentAccelerator:
    rng = np.random.default_rng(seed)
    acc = TridentAccelerator()
    acc.map_mlp(DIMS)
    acc.set_weights(
        [rng.uniform(-1, 1, (o, i)) for i, o in zip(DIMS[:-1], DIMS[1:])]
    )
    return acc


def _time_once(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _per_call(fn, iters: int = MICRO_ITERS) -> float:
    def loop():
        for _ in range(iters):
            fn()

    return min(_time_once(loop) for _ in range(3)) / iters


def _untraced_and_traced_per_pass(fn) -> tuple[float, float]:
    """Best of five alternating untraced / live-session loops of
    ``LOOP_PASSES`` calls each, per call."""
    def loop():
        for _ in range(LOOP_PASSES):
            fn()

    untraced, traced = [], []
    for _ in range(5):
        untraced.append(_time_once(loop))
        with telemetry.session():
            fn()  # warm up the session's instruments
            traced.append(_time_once(loop))
    return min(untraced) / LOOP_PASSES, min(traced) / LOOP_PASSES


def test_disabled_overhead_under_two_percent(record_report):
    telemetry.disable()
    acc = _mapped_accelerator()
    xs = np.random.default_rng(1).uniform(-1, 1, (BATCH, DIMS[0]))
    acc.forward_batch(xs)  # warmup
    wall_disabled = min(_time_once(lambda: acc.forward_batch(xs)) for _ in range(5))

    # Disabled-path primitive costs.
    def span_hook():
        with telemetry.trace_span("bench"):
            pass

    span_cost = _per_call(span_hook)
    counter_cost = _per_call(lambda: telemetry.counter("bench_total").inc())

    # Hook sites one forward_batch pass executes: the pass-level span,
    # one span per layer, and the batch + sample counters.
    n_layers = len(acc.layers)
    budget = (1 + n_layers) * span_cost + 2 * counter_cost
    ratio = budget / wall_disabled

    # Informational: the same pass with a live session collecting spans,
    # against untraced passes timed the same way.
    loop_disabled, loop_enabled = _untraced_and_traced_per_pass(
        lambda: acc.forward_batch(xs)
    )
    assert not telemetry.enabled()

    record_report(
        "telemetry_overhead",
        "\n".join(
            [
                f"forward_batch (B={BATCH}, dims {DIMS}), telemetry disabled: "
                f"{wall_disabled * 1e3:.2f} ms",
                f"disabled span hook: {span_cost * 1e9:.0f} ns/call, "
                f"disabled counter hook: {counter_cost * 1e9:.0f} ns/call",
                f"hook sites per pass: {1 + n_layers} spans + 2 counters",
                f"disabled-hook cost per pass: {budget * 1e6:.2f} us "
                f"({ratio * 100:.3f}% of the pass; bar "
                f"{MAX_DISABLED_OVERHEAD * 100:.0f}%)",
                f"same pass with a live session: {loop_enabled * 1e3:.3f} ms "
                f"vs {loop_disabled * 1e3:.3f} ms untraced "
                f"({(loop_enabled / loop_disabled - 1) * 100:+.1f}%, best of 5 "
                f"alternating loops of {LOOP_PASSES} passes; informational)",
            ]
        ),
    )
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"disabled telemetry costs {ratio * 100:.2f}% of a batched forward "
        f"pass (bar {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )


def test_disabled_hooks_allocate_nothing_per_call():
    """The no-op fast path returns shared singletons, never fresh objects."""
    telemetry.disable()
    assert telemetry.trace_span("a") is telemetry.trace_span("b")
    assert telemetry.counter("a_total") is telemetry.counter("b_total")
    assert telemetry.gauge("g") is telemetry.histogram("h")

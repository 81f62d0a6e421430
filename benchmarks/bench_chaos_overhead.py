"""Disabled-chaos overhead gate on the batched forward path.

The chaos hook points live in ``AcceleratorWorker.execute`` (the one
serving worker, single chip or pipeline), bracketing the stages'
``forward_batch``: two crash checks, one
output-corruption hook, and the always-on finite-output integrity gate.
The contract (docs/ARCHITECTURE.md §13) is that with no active
:class:`~repro.chaos.session.ChaosSession` each hook costs one
module-global read, so a serving stack that never enables chaos pays
(nearly) nothing for carrying it.  This bench holds the whole
per-batch hook budget — including the integrity gate's ``isfinite``
scan, the one piece that runs real work even with chaos off — to < 1%
of a batched forward pass:

    2 x crash_check + corrupt_output + isfinite(outputs)  <  1% x wall.
"""

import time

import numpy as np

from repro.arch import TridentAccelerator
from repro.chaos.session import corrupt_output, crash_check, disable, enabled

DIMS = [64, 48, 10]
BATCH = 256
MAX_DISABLED_OVERHEAD = 0.01
MICRO_ITERS = 100_000


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


def test_disabled_chaos_under_one_percent(record_report):
    disable()
    assert not enabled()
    acc = _mapped_accelerator()
    xs = np.random.default_rng(1).uniform(-1, 1, (BATCH, DIMS[0]))
    outputs = acc.forward_batch(xs)  # warmup + a realistic output array
    wall = min(_time_once(lambda: acc.forward_batch(xs)) for _ in range(5))

    # Disabled-path primitive costs (tight loops resolve sub-us costs).
    crash_cost = _per_call(lambda: crash_check(0, "dispatch", 0.0))
    corrupt_cost = _per_call(lambda: corrupt_output(0, 0.0, outputs))
    gate_cost = _per_call(
        lambda: np.all(np.isfinite(outputs)), iters=MICRO_ITERS // 10
    )

    # Hook sites one worker.execute runs per batch: crash checks at
    # dispatch and drain, one corruption hook, one integrity gate.
    budget = 2 * crash_cost + corrupt_cost + gate_cost
    ratio = budget / wall

    record_report(
        "chaos_overhead",
        "\n".join(
            [
                f"forward_batch (B={BATCH}, dims {DIMS}), chaos disabled: "
                f"{wall * 1e3:.2f} ms",
                f"disabled crash_check: {crash_cost * 1e9:.0f} ns/call, "
                f"disabled corrupt_output: {corrupt_cost * 1e9:.0f} ns/call",
                f"finite-output integrity gate: {gate_cost * 1e6:.2f} us/batch",
                f"hook budget per batch: {budget * 1e6:.2f} us "
                f"({ratio * 100:.3f}% of the pass; bar "
                f"{MAX_DISABLED_OVERHEAD * 100:.0f}%)",
            ]
        ),
    )
    assert ratio < MAX_DISABLED_OVERHEAD, (
        f"disabled chaos costs {ratio * 100:.2f}% of a batched forward "
        f"pass (bar {MAX_DISABLED_OVERHEAD * 100:.0f}%)"
    )


def test_disabled_hooks_are_identity():
    """With no session, hooks return None / the exact input array."""
    disable()
    outputs = np.ones((4, 3))
    assert crash_check(0, "dispatch", 0.0) is None
    assert crash_check(1, "drain", 1e9) is None
    assert corrupt_output(0, 0.0, outputs) is outputs

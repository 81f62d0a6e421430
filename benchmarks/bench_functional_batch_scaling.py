"""One batch vs single-sample batches on a tiled MLP.

The acceptance bar for the batched execution engine: on a 64 -> 48 -> 10
MLP tiled over 16x16 banks, one ``forward_batch`` of 256 samples must (a)
reproduce the same samples run as 256 single-sample batches — identical
outputs on noise-free hardware and identical event counters always — and
(b) beat them by >= 5x wall-clock.  Timed with ``time.perf_counter`` over
whole untraced passes rather than the pytest-benchmark fixture because the
parity comparison needs both sides run once each against the same
programmed state; each side's event counters are an
``EventCounters.snapshot()`` / ``diff()`` pair around it.
"""

import time

import numpy as np

from repro.arch import TridentAccelerator

DIMS = [64, 48, 10]
BATCH = 256
MIN_SPEEDUP = 5.0


def _mapped_accelerator(seed: int = 0) -> TridentAccelerator:
    rng = np.random.default_rng(seed)
    acc = TridentAccelerator()
    acc.map_mlp(DIMS)
    acc.set_weights(
        [rng.uniform(-1, 1, (o, i)) for i, o in zip(DIMS[:-1], DIMS[1:])]
    )
    return acc


def test_batched_forward_parity_and_speedup(record_report):
    acc = _mapped_accelerator()
    assert any(len(layer.tiles) > 1 for layer in acc.layers), (
        "the bar is multi-tile streaming; enlarge DIMS if banks grew"
    )
    xs = np.random.default_rng(1).uniform(-1, 1, (BATCH, DIMS[0]))

    before = acc.counters.snapshot()
    out_batch = acc.forward_batch(xs)
    middle = acc.counters.snapshot()
    out_sample = _single_sample_batches(acc, xs)
    counters_batch = middle.diff(before)
    counters_sample = acc.counters.diff(middle)

    np.testing.assert_allclose(out_batch, out_sample, rtol=0, atol=1e-12)
    assert counters_batch == counters_sample

    # Re-time over fresh passes so first-call warmup does not flatter
    # either side; take the best of a few repeats each.
    wall_batch = min(_time_once(acc.forward_batch, xs) for _ in range(3))
    wall_sample = min(
        _time_once(lambda b: _single_sample_batches(acc, b), xs) for _ in range(3)
    )
    speedup = wall_sample / wall_batch

    record_report(
        "functional_batch_scaling",
        "\n".join(
            [
                f"forward_batch (B={BATCH}): {wall_batch * 1e3:.3f} ms, "
                f"counters {counters_batch.as_dict()}",
                f"forward_batch (B=1) x{BATCH}: {wall_sample * 1e3:.3f} ms, "
                f"counters {counters_sample.as_dict()}",
                f"speedup (best-of-3): {speedup:.1f}x",
            ]
        ),
    )
    assert speedup >= MIN_SPEEDUP, (
        f"batched path only {speedup:.1f}x faster (bar: {MIN_SPEEDUP}x)"
    )


def _single_sample_batches(acc: TridentAccelerator, xs: np.ndarray) -> np.ndarray:
    return np.concatenate([acc.forward_batch(x[None]) for x in xs])


def _time_once(fn, xs) -> float:
    t0 = time.perf_counter()
    fn(xs)
    return time.perf_counter() - t0

"""Tests for the functional Trident accelerator."""

import numpy as np
import pytest

from repro.arch.accelerator import TridentAccelerator
from repro.arch.config import TridentConfig
from repro.devices.noise import NoiseModel
from repro.errors import MappingError, ProgrammingError, ShapeError


def digital_gst_forward(weights, x):
    a = x
    for k, w in enumerate(weights):
        h = w @ a
        a = 0.34 * np.maximum(h, 0) if k < len(weights) - 1 else h
    return a


class TestMapping:
    def test_single_tile_per_small_layer(self):
        acc = TridentAccelerator()
        acc.map_mlp([16, 16, 8])
        assert len(acc.layers) == 2
        assert all(len(layer.tiles) == 1 for layer in acc.layers)
        assert len(acc.pes) == 2

    def test_tiled_large_layer(self):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        # Layer 0: ceil(24/16) * ceil(40/16) = 2 * 3 = 6 tiles.
        assert len(acc.layers[0].tiles) == 6
        assert len(acc.layers[1].tiles) == 2

    def test_pe_budget_enforced(self):
        acc = TridentAccelerator(config=TridentConfig(n_pes=2))
        with pytest.raises(MappingError):
            acc.map_mlp([64, 64, 64])

    def test_rejects_degenerate_dims(self):
        acc = TridentAccelerator()
        with pytest.raises(MappingError):
            acc.map_mlp([8])
        with pytest.raises(MappingError):
            acc.map_mlp([8, 0, 4])

    def test_remap_resets_state(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([8, 8])
        acc.set_weights([rng.uniform(-1, 1, (8, 8))])
        acc.forward_batch(rng.uniform(-1, 1, (1, 8)))
        acc.map_mlp([4, 4])
        assert acc.counters.symbols == 0
        assert len(acc.pes) == 1


class TestWeights:
    def test_set_weights_shape_checked(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([8, 4])
        with pytest.raises(ShapeError):
            acc.set_weights([rng.uniform(-1, 1, (4, 9))])

    def test_wrong_count_rejected(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([8, 4])
        with pytest.raises(MappingError):
            acc.set_weights([rng.uniform(-1, 1, (4, 8))] * 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, rng, bad):
        """NaN used to program as weight -1 with only a cast warning."""
        acc = TridentAccelerator()
        acc.map_mlp([8, 6, 4])
        w1 = rng.uniform(-1, 1, (4, 6))
        w1[2, 3] = bad
        with pytest.raises(ProgrammingError, match="layer 1"):
            acc.set_weights([rng.uniform(-1, 1, (6, 8)), w1])
        assert acc.layers[1].weights is None

    def test_weight_scale_recorded_for_overrange(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([8, 4])
        acc.set_weights([rng.uniform(-3, 3, (4, 8))])
        assert acc.layers[0].weight_scale > 1.0

    def test_writes_counted_per_tile(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        acc.set_weights([rng.uniform(-1, 1, (24, 40)), rng.uniform(-1, 1, (4, 24))])
        assert acc.counters.bank_writes == 8  # 6 + 2 tiles
        assert acc.counters.cells_written == 24 * 40 + 4 * 24


class TestForward:
    def test_matches_digital_reference(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([16, 16, 8])
        ws = [rng.uniform(-1, 1, (16, 16)), rng.uniform(-1, 1, (8, 16))]
        acc.set_weights(ws)
        x = rng.uniform(-1, 1, 16)
        got = acc.forward_batch(x[None])[0]
        expected = digital_gst_forward(ws, x)
        assert np.max(np.abs(got - expected)) < 0.05

    def test_tiled_forward_matches(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        ws = [rng.uniform(-2, 2, (24, 40)), rng.uniform(-1, 1, (4, 24))]
        acc.set_weights(ws)
        x = rng.uniform(-3, 3, 40)
        got = acc.forward_batch(x[None])[0]
        expected = digital_gst_forward(ws, x)
        assert np.max(np.abs(got - expected)) / np.max(np.abs(expected)) < 0.02

    def test_forward_without_weights_rejected(self):
        acc = TridentAccelerator()
        acc.map_mlp([8, 4])
        with pytest.raises(MappingError):
            acc.forward_batch(np.zeros((1, 8)))

    def test_forward_before_mapping_rejected(self):
        with pytest.raises(MappingError):
            TridentAccelerator().forward_batch(np.zeros((1, 4)))

    def test_wrong_input_shape_rejected(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([8, 4])
        acc.set_weights([rng.uniform(-1, 1, (4, 8))])
        with pytest.raises(ShapeError):
            acc.forward_batch(np.zeros((1, 9)))

    def test_record_keeps_intermediates(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([8, 6, 4])
        acc.set_weights([rng.uniform(-1, 1, (6, 8)), rng.uniform(-1, 1, (4, 6))])
        xs = rng.uniform(-1, 1, (3, 8))
        acc.forward_batch(xs, record=True)
        assert np.array_equal(acc.layers[0].last_input_batch, xs)
        assert acc.layers[0].last_logits_batch.shape == (3, 6)
        assert acc.layers[1].last_input_batch.shape == (3, 6)

    def test_forward_batch(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([8, 4])
        acc.set_weights([rng.uniform(-1, 1, (4, 8))])
        xs = rng.uniform(-1, 1, (5, 8))
        out = acc.forward_batch(xs)
        assert out.shape == (5, 4)

    def test_forward_batch_rejects_vector(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([8, 4])
        acc.set_weights([rng.uniform(-1, 1, (4, 8))])
        with pytest.raises(ShapeError):
            acc.forward_batch(np.zeros(8))

    def test_noisy_forward_still_close(self, rng):
        acc = TridentAccelerator(noise=NoiseModel.realistic(seed=4))
        acc.map_mlp([16, 8])
        w = rng.uniform(-1, 1, (8, 16))
        acc.set_weights([w])
        x = rng.uniform(-1, 1, 16)
        got = acc.forward_batch(x[None])[0]
        # Logits (no activation on the single layer) stay close to W x
        # despite detection noise.
        assert np.max(np.abs(got - w @ x)) < 0.2


class TestAccounting:
    def test_energy_positive_after_run(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([16, 8])
        acc.set_weights([rng.uniform(-1, 1, (8, 16))])
        acc.forward_batch(rng.uniform(-1, 1, (1, 16)))
        assert acc.energy_estimate_j() > 0
        assert acc.time_estimate_s() > 0

    def test_energy_components(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([16, 8])
        acc.set_weights([rng.uniform(-1, 1, (8, 16))])
        # One bank write: 128 cells * 660 pJ.
        assert acc.energy_estimate_j() == pytest.approx(128 * 660e-12)
        acc.forward_batch(np.zeros((1, 16)))
        per_symbol = acc.config.pe_streaming_power_w / acc.config.symbol_rate_hz
        assert acc.energy_estimate_j() == pytest.approx(128 * 660e-12 + per_symbol)

    def test_time_components(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([16, 8])
        acc.set_weights([rng.uniform(-1, 1, (8, 16))])
        acc.forward_batch(np.zeros((1, 16)))
        expected = 300e-9 + 1 / acc.config.symbol_rate_hz
        assert acc.time_estimate_s() == pytest.approx(expected)

    def test_bank_stats_merged_across_pes(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([16, 16, 8])
        acc.set_weights([rng.uniform(-1, 1, (16, 16)), rng.uniform(-1, 1, (8, 16))])
        assert acc.bank_stats().write_events == 2

    def test_time_estimate_uses_recorded_write_time(self, rng):
        """Program-and-verify extra rounds must count: the estimate reads
        the banks' recorded write_time_s, not write_events x write_time."""
        from repro.devices.program_verify import (
            ProgramVerifyConfig,
            ProgramVerifyWriter,
        )

        acc = TridentAccelerator()
        acc.map_mlp([16, 8])
        acc.set_weights([rng.uniform(-1, 1, (8, 16))])
        base = acc.time_estimate_s()
        cfg = ProgramVerifyConfig(
            write_std_levels=50.0, tolerance_levels=0.1, max_iterations=4
        )
        bank = acc.pes[0].bank
        _, result = bank.program_verified(
            rng.uniform(-1, 1, (8, 16)), ProgramVerifyWriter(cfg, seed=0)
        )
        rounds = int(result.pulses.max())
        assert rounds > 1
        assert acc.time_estimate_s() == pytest.approx(
            base + rounds * bank.tuning.write_time()
        )


def batch_vs_single_samples(acc, xs):
    """One B-sample batch against B single-sample batches: the outputs of
    each and the event counters each charged."""
    base = acc.counters.snapshot()
    batched = acc.forward_batch(xs)
    delta_batch = acc.counters.diff(base)
    base = acc.counters.snapshot()
    singles = np.concatenate([acc.forward_batch(x[None]) for x in xs])
    return batched, singles, delta_batch, acc.counters.diff(base)


class TestForwardBatchFast:
    def test_fast_path_matches_per_sample(self, rng):
        """Batch invariance: a batch equals its samples run one by one."""
        acc = TridentAccelerator()
        acc.map_mlp([10, 14, 3])
        acc.set_weights([rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))])
        fast, slow, delta_batch, delta_single = batch_vs_single_samples(
            acc, rng.uniform(-1, 1, (16, 10))
        )
        assert np.allclose(fast, slow, atol=1e-12)
        assert delta_batch.as_dict() == delta_single.as_dict()

    def test_tiled_network_streams_blocked(self, rng):
        """A tiled network streams as blocked matmats; a batch matches its
        samples as single-sample batches in output *and* counters."""
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        assert any(len(layer.tiles) > 1 for layer in acc.layers)
        acc.set_weights([rng.uniform(-1, 1, (24, 40)), rng.uniform(-1, 1, (4, 24))])
        fast, slow, delta_batch, delta_single = batch_vs_single_samples(
            acc, rng.uniform(-1, 1, (4, 40))
        )
        assert np.allclose(fast, slow, atol=1e-12)
        assert delta_batch.as_dict() == delta_single.as_dict()

    def test_counters_match_bank_stats(self, rng):
        """One symbol rule: the accelerator's symbol counter must equal
        the banks' own streamed-vector totals at any batch size."""
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        acc.set_weights([rng.uniform(-1, 1, (24, 40)), rng.uniform(-1, 1, (4, 24))])
        acc.forward_batch(rng.uniform(-1, 1, (6, 40)))
        acc.forward_batch(rng.uniform(-1, 1, (1, 40)))
        assert acc.counters.symbols == acc.bank_stats().symbols
        assert acc.counters.bank_writes == acc.bank_stats().write_events
        assert acc.counters.cells_written == acc.bank_stats().cells_written

    def test_symbols_counted_per_sample_per_layer(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([10, 14, 3])
        acc.set_weights([rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))])
        before = acc.counters.symbols
        acc.forward_batch(rng.uniform(-1, 1, (8, 10)))
        assert acc.counters.symbols - before == 8 * 2

    def test_symbols_counted_per_bank_when_tiled(self, rng):
        """Tiled layers stream one symbol per bank a vector enters, at any
        batch size."""
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])  # layer0: 2x3 tiles, layer1: 1x2 tiles
        acc.set_weights([rng.uniform(-1, 1, (24, 40)), rng.uniform(-1, 1, (4, 24))])
        n_tiles = sum(len(layer.tiles) for layer in acc.layers)
        before = acc.counters.symbols
        acc.forward_batch(rng.uniform(-1, 1, (8, 40)))
        assert acc.counters.symbols - before == 8 * n_tiles
        before = acc.counters.symbols
        acc.forward_batch(rng.uniform(-1, 1, (1, 40)))
        assert acc.counters.symbols - before == n_tiles

    def test_per_sample_normalization_independent(self, rng):
        """A huge sample must not squash its batch-mates' precision."""
        acc = TridentAccelerator()
        acc.map_mlp([4, 3])
        w = rng.uniform(-1, 1, (3, 4))
        acc.set_weights([w])
        small = rng.uniform(-0.1, 0.1, 4)
        xs = np.stack([small, small * 0 + 1.0])
        out = acc.forward_batch(xs)
        assert np.max(np.abs(out[0] - w @ small)) < 0.01

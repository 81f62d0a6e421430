"""Tests for the vectorized weight bank."""

import numpy as np
import pytest

from repro.arch.weight_bank import BankStats, WeightBank
from repro.devices.noise import NoiseModel
from repro.devices.pcm_mrr import PCMMRRWeight
from repro.devices.tuning import ThermalTuning
from repro.errors import ProgrammingError, ShapeError


@pytest.fixture
def bank():
    return WeightBank(rows=16, cols=16)


class TestProgramming:
    def test_full_bank_program(self, bank, rng):
        w = rng.uniform(-1, 1, (16, 16))
        realized = bank.program(w)
        assert realized.shape == (16, 16)
        assert np.max(np.abs(realized - w)) <= bank.weight_step / 2 + 1e-12

    def test_partial_block(self, bank, rng):
        w = rng.uniform(-1, 1, (5, 7))
        bank.program(w)
        assert bank.occupancy == (5, 7)

    def test_reprogram_clears_previous(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (16, 16)))
        bank.program(rng.uniform(-1, 1, (3, 3)))
        assert bank.occupancy == (3, 3)
        # Cells outside the new block are parked at zero.
        assert np.all(bank.realized_weights[3:, :] == 0)

    def test_rejects_oversized_block(self, bank):
        with pytest.raises(ShapeError):
            bank.program(np.zeros((17, 16)))

    def test_rejects_overrange_weights(self, bank):
        with pytest.raises(ProgrammingError):
            bank.program(np.full((2, 2), 1.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_weights(self, bank, bad):
        # NaN used to slip through the range check and land on level 0.
        w = np.zeros((2, 2))
        w[1, 0] = bad
        with pytest.raises(ProgrammingError):
            bank.program(w)
        with pytest.raises(ProgrammingError):
            bank.realize_virtually(w)
        assert bank.stats.write_events == 0

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ShapeError):
            WeightBank(rows=0, cols=16)

    def test_write_stats_accumulate(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (16, 16)))
        bank.program(rng.uniform(-1, 1, (4, 4)))
        assert bank.stats.write_events == 2
        assert bank.stats.cells_written == 256 + 16
        assert bank.stats.write_energy_j == pytest.approx((256 + 16) * 660e-12)
        assert bank.stats.write_time_s == pytest.approx(2 * 300e-9)

    def test_quantization_levels_default_8bit(self, bank):
        assert bank.levels == 255
        assert bank.weight_step == pytest.approx(2 / 254)

    def test_thermal_bank_is_6bit(self):
        bank = WeightBank(tuning=ThermalTuning())
        assert bank.levels == 63
        assert bank.weight_step > WeightBank().weight_step

    def test_programming_noise_perturbs_levels(self, rng):
        noisy = WeightBank(
            noise=NoiseModel.realistic(seed=1), programming_noise_levels=1.0
        )
        clean = WeightBank()
        w = rng.uniform(-1, 1, (16, 16))
        r_noisy = noisy.program(w)
        r_clean = clean.program(w)
        assert not np.array_equal(r_noisy, r_clean)
        # Perturbation is level-scale, so still close.
        assert np.max(np.abs(r_noisy - r_clean)) < 10 * clean.weight_step


class TestMatvec:
    """A matrix-vector product is a single-column ``matmat``."""

    def test_matches_realized_weights(self, bank, rng):
        w = rng.uniform(-1, 1, (16, 16))
        realized = bank.program(w)
        x = rng.uniform(-1, 1, 16)
        assert np.allclose(bank.matmat(x[:, None])[:, 0], realized @ x)

    def test_quantized_accuracy(self, bank, rng):
        w = rng.uniform(-1, 1, (16, 16))
        bank.program(w)
        x = rng.uniform(-1, 1, 16)
        # Error bounded by accumulated quantization: N * step/2.
        out = bank.matmat(x[:, None])[:, 0]
        assert np.max(np.abs(out - w @ x)) <= 16 * bank.weight_step / 2

    def test_partial_block_matvec(self, bank, rng):
        w = rng.uniform(-1, 1, (4, 6))
        realized = bank.program(w)
        x = rng.uniform(-1, 1, 6)
        out = bank.matmat(x[:, None])
        assert out.shape == (4, 1)
        assert np.allclose(out[:, 0], realized @ x)

    def test_rejects_wrong_length(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (4, 6)))
        with pytest.raises(ShapeError):
            bank.matmat(np.zeros((5, 1)))

    def test_rejects_overrange_input(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (4, 4)))
        with pytest.raises(ProgrammingError):
            bank.matmat(np.array([[2.0], [0], [0], [0]]))

    def test_symbols_counted(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (4, 4)))
        for _ in range(3):
            bank.matmat(np.zeros((4, 1)))
        assert bank.stats.symbols == 3


class TestMatmat:
    def test_matches_matvec_columns(self, bank, rng):
        """Batch invariance: each column equals its own one-column call."""
        bank.program(rng.uniform(-1, 1, (8, 8)))
        x = rng.uniform(-1, 1, (8, 5))
        batched = bank.matmat(x)
        assert batched.shape == (8, 5)
        for j in range(5):
            assert np.allclose(batched[:, j], bank.matmat(x[:, j : j + 1])[:, 0])

    def test_counts_one_symbol_per_column(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (8, 8)))
        bank.matmat(rng.uniform(-1, 1, (8, 7)))
        assert bank.stats.symbols == 7

    def test_rejects_vector(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (4, 4)))
        with pytest.raises(ShapeError):
            bank.matmat(np.zeros(4))

    def test_remapped_rows_match_matvec(self, rng):
        # Remapping flips matmat off its identity-view fast path onto
        # the row-map gather, which must read the remapped rows exactly.
        bank = WeightBank(rows=4, cols=4, spare_rows=2)
        w = rng.uniform(-1, 1, (4, 4))
        bank.program(w)
        bank.remap_row(1)
        bank.program(w)
        x = rng.uniform(-1, 1, (4, 5))
        batched = bank.matmat(x)
        assert np.allclose(batched, bank.logical_weights @ x, atol=1e-12)

    def test_crosstalk_partial_block_matches_matvec(self, rng):
        # With channel mixing the padded slab path runs; a partial block
        # must still see the mixed, zero-padded input.
        mix = np.eye(8) + 0.01 * rng.uniform(-1, 1, (8, 8))
        bank = WeightBank(rows=8, cols=8, crosstalk=mix)
        bank.program(rng.uniform(-1, 1, (5, 6)))
        x = rng.uniform(-1, 1, (6, 3))
        padded = np.zeros((8, 3))
        padded[:6] = x
        expected = bank.realized_weights[:5] @ (mix @ padded)
        assert np.allclose(bank.matmat(x), expected)


class TestCrosstalk:
    def test_identity_crosstalk_is_noop(self, rng):
        clean = WeightBank()
        xtalk = WeightBank(crosstalk=np.eye(16))
        w = rng.uniform(-1, 1, (16, 16))
        clean.program(w)
        xtalk.program(w)
        x = rng.uniform(-1, 1, (16, 1))
        assert np.allclose(clean.matmat(x), xtalk.matmat(x))

    def test_leakage_perturbs_output(self, rng):
        leak = np.eye(16) + 0.01 * (np.ones((16, 16)) - np.eye(16))
        bank = WeightBank(crosstalk=leak)
        clean = WeightBank()
        w = rng.uniform(-1, 1, (16, 16))
        bank.program(w)
        clean.program(w)
        x = rng.uniform(-1, 1, (16, 1))
        assert not np.allclose(bank.matmat(x), clean.matmat(x))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ShapeError):
            WeightBank(cols=16, crosstalk=np.eye(8))


class TestHoldEnergy:
    def test_gst_bank_holds_for_free(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (16, 16)))
        assert bank.hold_energy(1.0) == 0.0

    def test_thermal_bank_pays_hold(self, rng):
        bank = WeightBank(tuning=ThermalTuning())
        bank.program(rng.uniform(-1, 1, (16, 16)))
        assert bank.hold_energy(1e-3) == pytest.approx(256 * 1.7e-3 * 1e-3)


class TestBankStats:
    def test_merge(self):
        a = BankStats(write_events=1, cells_written=10, write_energy_j=1.0,
                      write_time_s=0.1, symbols=5)
        b = BankStats(write_events=2, cells_written=20, write_energy_j=2.0,
                      write_time_s=0.2, symbols=7)
        m = a.merge(b)
        assert m.write_events == 3
        assert m.cells_written == 30
        assert m.symbols == 12


class TestAgainstScalarDevice:
    def test_bank_quantization_matches_scalar_device(self, rng):
        """The array fast path and the per-device physics must agree."""
        bank = WeightBank()
        targets = rng.uniform(-1, 1, 8)
        realized = bank.program(targets[None, :])
        for target, got in zip(targets, realized[0]):
            device = PCMMRRWeight()
            device.program(float(target))
            assert got == pytest.approx(device.weight, abs=1e-9)

"""Tests for the physical optical layer (spectrum, bank, link budget)."""

import numpy as np
import pytest

from repro.arch.weight_bank import WeightBank
from repro.devices.mrr import AddDropMRR
from repro.devices.waveguide import WDMChannelPlan
from repro.errors import ConfigError, DeviceError, ProgrammingError, ShapeError
from repro.optics import (
    BusSpectrum,
    LinkBudget,
    PhysicalWeightBank,
    best_design,
    cascade_through,
    design_space,
    evaluate_design,
    physical_crosstalk_matrix,
)
from repro.optics.spectrum import tuned_ring


class TestTunedRing:
    def test_resonance_lands_on_target(self):
        ring = tuned_ring(AddDropMRR(), 1552e-9)
        assert ring.geometry.nearest_resonance(1552e-9) == pytest.approx(1552e-9, abs=1e-15)

    def test_geometry_otherwise_preserved(self):
        base = AddDropMRR()
        ring = tuned_ring(base, 1552e-9)
        assert ring.geometry.radius_m == base.geometry.radius_m
        assert ring.input_coupling == base.input_coupling

    def test_rejects_bad_wavelength(self):
        with pytest.raises(DeviceError):
            tuned_ring(AddDropMRR(), 0.0)


class TestCascade:
    def test_monotone_depletion_along_bus(self):
        plan = WDMChannelPlan(8)
        rings = [tuned_ring(AddDropMRR(), float(l)) for l in plan.wavelengths]
        out = cascade_through(rings, plan.wavelengths)
        assert out.shape == (9, 8)
        # Power can only decrease along a passive bus.
        assert np.all(np.diff(out, axis=0) <= 1e-12)

    def test_input_row_is_unity(self):
        plan = WDMChannelPlan(4)
        rings = [tuned_ring(AddDropMRR(), float(l)) for l in plan.wavelengths]
        out = cascade_through(rings, plan.wavelengths)
        assert np.allclose(out[0], 1.0)


class TestBusSpectrum:
    @pytest.fixture(scope="class")
    def spectrum(self):
        return BusSpectrum.build(WDMChannelPlan(8))

    def test_first_channel_undepleted(self, spectrum):
        assert spectrum.depletion()[0] == pytest.approx(1.0)

    def test_depletion_decreases_down_the_chain(self, spectrum):
        d = spectrum.depletion()
        assert np.all(np.diff(d) < 1e-12)
        assert d[-1] < 1.0

    def test_served_matrix_diagonal_dominant(self, spectrum):
        s = spectrum.served_power_matrix()
        for i in range(8):
            assert s[i, i] > s[i].sum() - s[i, i]

    def test_crosstalk_negative_db(self, spectrum):
        assert spectrum.crosstalk_db() < 0

    def test_effective_bits_nonnegative(self, spectrum):
        assert spectrum.effective_bits() >= 0

    def test_gst_states_change_spectrum(self):
        plan = WDMChannelPlan(4)
        clean = BusSpectrum.build(plan)
        lossy = BusSpectrum.build(plan, extra_losses=np.full(4, 0.7))
        assert not np.allclose(
            clean.served_power_matrix(), lossy.served_power_matrix()
        )

    def test_physical_crosstalk_matrix_normalized(self):
        x = physical_crosstalk_matrix(WDMChannelPlan(6))
        assert x.shape == (6, 6)
        assert np.allclose(np.diag(x), 1.0)
        assert np.all(x >= 0)


class TestPhysicalWeightBank:
    @pytest.fixture
    def bank(self):
        return PhysicalWeightBank(rows=8, plan=WDMChannelPlan(8))

    def test_program_shape_checked(self, bank):
        with pytest.raises(ShapeError):
            bank.program(np.zeros((4, 8)))

    def test_program_rejects_overrange(self, bank):
        with pytest.raises(ProgrammingError):
            bank.program(np.full((8, 8), 1.5))

    def test_forward_requires_programming(self, bank):
        with pytest.raises(ProgrammingError):
            bank.forward(np.zeros(8))

    def test_forward_rejects_negative_amplitudes(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (8, 8)))
        with pytest.raises(DeviceError):
            bank.forward(np.array([-0.1] + [0.0] * 7))

    def test_matches_normalized_bank_exactly(self, bank, rng):
        """The physical link (watts -> amps -> normalized) must agree with
        the normalized-domain WeightBank."""
        w = rng.uniform(-1, 1, (8, 8))
        bank.program(w)
        normalized = WeightBank(rows=8, cols=8)
        normalized.program(w)
        x = rng.uniform(0, 1, 8)
        out = bank.forward(x)
        expected = normalized.matmat(x[:, None])[:, 0]
        assert np.max(np.abs(out.normalized - expected)) < 1e-6

    def test_expected_matches_forward_without_noise(self, bank, rng):
        w = rng.uniform(-1, 1, (8, 8))
        bank.program(w)
        x = rng.uniform(0, 1, 8)
        out = bank.forward(x)
        assert np.allclose(out.normalized, bank.expected_normalized(x), atol=1e-9)

    def test_currents_are_microamp_scale(self, bank, rng):
        bank.program(rng.uniform(-1, 1, (8, 8)))
        out = bank.forward(np.full(8, 0.5))
        assert np.max(np.abs(out.currents_a)) < 1e-3
        assert np.max(np.abs(out.currents_a)) > 1e-9

    def test_noise_perturbs_but_preserves_mean(self, rng):
        bank = PhysicalWeightBank(
            rows=4, plan=WDMChannelPlan(4), noise_enabled=True, seed=3
        )
        w = rng.uniform(-1, 1, (4, 4))
        bank.program(w)
        x = rng.uniform(0, 1, 4)
        outs = np.stack([bank.forward(x).normalized for _ in range(300)])
        assert np.allclose(outs.mean(axis=0), bank.expected_normalized(x), atol=0.02)
        assert outs.std(axis=0).max() > 0

    def test_snr_decreases_with_more_rows(self, rng):
        """More fan-out -> less power per row -> lower SNR."""
        w8 = rng.uniform(0.5, 1, (8, 8))
        small = PhysicalWeightBank(rows=8, plan=WDMChannelPlan(8))
        small.program(w8)
        big = PhysicalWeightBank(rows=32, plan=WDMChannelPlan(8))
        big.program(np.tile(w8, (4, 1)))
        x = np.full(8, 1.0)
        assert small.forward(x).snr_db.mean() > big.forward(x).snr_db.mean()

    def test_validation(self):
        with pytest.raises(ShapeError):
            PhysicalWeightBank(rows=0)
        with pytest.raises(DeviceError):
            PhysicalWeightBank(channel_power_w=0.0)
        with pytest.raises(DeviceError):
            PhysicalWeightBank(modulator_transmission=1.5)


class TestLinkBudget:
    @pytest.fixture(scope="class")
    def budget(self):
        return LinkBudget()

    def test_power_at_bank_below_input(self, budget):
        assert budget.power_at_bank_w(1e-3, 16) < 1e-3

    def test_snr_decreases_with_rows(self, budget):
        assert budget.snr_db(4, 16) > budget.snr_db(64, 16)

    def test_snr_improves_with_power(self, budget):
        assert budget.snr_db(16, 16, 10e-3) > budget.snr_db(16, 16, 1e-3)

    def test_square_scaling_is_shot_neutral(self, budget):
        """cols x (P/rows) constant for square banks: SNR flat."""
        assert budget.snr_db(8, 8) == pytest.approx(budget.snr_db(64, 64), abs=0.5)

    def test_achievable_bits_consistent_with_snr(self, budget):
        rep = budget.report(16, 16)
        assert rep.achievable_bits == int((rep.snr_db - 1.76) // 6.02)

    def test_max_rows_monotone_in_bits(self, budget):
        assert budget.max_rows(16, 4) >= budget.max_rows(16, 6)

    def test_max_rows_boundary_exact(self, budget):
        rows = budget.max_rows(16, 6)
        assert rows >= 1
        assert budget.achievable_bits(rows, 16) >= 6
        assert budget.achievable_bits(rows + 1, 16) < 6

    def test_required_power_achieves_bits(self, budget):
        p = budget.required_channel_power_w(16, 16, 8)
        assert budget.achievable_bits(16, 16, p) >= 8
        assert budget.achievable_bits(16, 16, p * 0.8) < 8

    def test_required_power_is_milliwatt_class_for_8bit(self, budget):
        p = budget.required_channel_power_w(16, 16, 8)
        assert 0.5e-3 < p < 20e-3

    def test_8_bit_needs_more_power_than_6_bit(self, budget):
        p8 = budget.required_channel_power_w(16, 16, 8)
        p6 = budget.required_channel_power_w(16, 16, 6)
        assert p8 > p6 > 0

    def test_report_waterfall_includes_splitter(self, budget):
        rep = budget.report(16, 16)
        names = [n for n, _ in rep.waterfall_db]
        assert "1:16 splitter" in names
        assert rep.supports(rep.achievable_bits)

    def test_scaling_table_rows(self, budget):
        table = budget.scaling_table()
        assert [r["rows"] for r in table] == [1, 4, 8, 16, 32, 64, 128]
        snrs = [r["snr_db"] for r in table]
        assert all(a > b for a, b in zip(snrs, snrs[1:]))

    def test_validation(self, budget):
        with pytest.raises(ConfigError):
            budget.power_at_bank_w(-1.0, 16)
        with pytest.raises(ConfigError):
            budget.max_rows(16, 0)
        with pytest.raises(ConfigError):
            LinkBudget(modulator_transmission=0.0)


class TestRingDesign:
    @pytest.fixture(scope="class")
    def points(self):
        return design_space(
            couplings=(0.90, 0.95, 0.983),
            patch_lengths_m=(0.1e-6, 0.3e-6),
            n_channels=8,
        )

    def test_grid_size(self, points):
        assert len(points) == 6

    def test_high_q_improves_isolation(self):
        low = evaluate_design(0.90, 0.3e-6, n_channels=8)
        high = evaluate_design(0.983, 0.3e-6, n_channels=8)
        assert high.worst_leakage_db < low.worst_leakage_db
        assert high.q_factor > low.q_factor

    def test_high_q_long_patch_not_viable(self):
        point = evaluate_design(0.99, 0.5e-6, n_channels=8)
        assert not point.viable
        assert point.d_sym == 0.0

    def test_default_trident_point_viable(self):
        point = evaluate_design(0.95, 0.3e-6, n_channels=8)
        assert point.viable
        assert point.d_sym > 0.3

    def test_best_design_respects_leakage_bound(self, points):
        best = best_design(points, max_leakage_db=-8.0)
        assert best.viable
        assert best.worst_leakage_db <= -8.0 or best == min(
            [p for p in points if p.viable], key=lambda p: p.worst_leakage_db
        )

    def test_default_space_holds_both_verdicts(self):
        """The 16-channel default grid has viable signed-weight points and
        the Q/loss tension (some high-Q long-patch points are not)."""
        points = design_space()
        assert any(p.viable for p in points)
        assert any(not p.viable for p in points)
        best = best_design(points)
        assert best.viable and best.d_sym > 0

    def test_best_design_rejects_empty(self):
        with pytest.raises(ConfigError):
            best_design([])

    def test_evaluate_validation(self):
        with pytest.raises(ConfigError):
            evaluate_design(1.5, 0.3e-6)
        with pytest.raises(ConfigError):
            evaluate_design(0.95, -1.0)

"""Tests for the GST activation cell (Fig 3) and the LDSU (Fig 2d)."""

import numpy as np
import pytest

from repro.devices.activation_cell import GSTActivationCell, GSTActivationConfig
from repro.devices.ldsu import LDSU, AnalogComparator, DFlipFlop
from repro.errors import ConfigError, DeviceError, EnduranceExceededError


class TestActivationPhysical:
    def test_zero_below_threshold(self):
        cell = GSTActivationCell()
        e = np.array([0.0, 100e-12, 429e-12])
        assert np.allclose(cell.response_energy(e), 0.0)

    def test_linear_above_threshold_with_paper_slope(self):
        cell = GSTActivationCell()
        e = np.array([530e-12, 630e-12])
        out = cell.response_energy(e)
        slope = (out[1] - out[0]) / (e[1] - e[0])
        assert slope == pytest.approx(0.34)

    def test_threshold_is_430pj(self):
        cell = GSTActivationCell()
        assert cell.config.threshold_j == pytest.approx(430e-12)

    def test_continuous_at_threshold(self):
        cell = GSTActivationCell()
        just_above = float(cell.response_energy(cell.config.threshold_j * (1 + 1e-9)))
        assert just_above == pytest.approx(0.0, abs=1e-18)

    def test_leakage_mode(self):
        cell = GSTActivationCell(config=GSTActivationConfig(leakage=0.01))
        out = float(cell.response_energy(100e-12))
        assert out == pytest.approx(1e-12)

    def test_rejects_negative_energy(self):
        with pytest.raises(DeviceError):
            GSTActivationCell().response_energy(-1e-12)

    def test_bypass_passes_through(self):
        cell = GSTActivationCell(bypass=True)
        e = np.array([1e-12, 500e-12])
        assert np.allclose(cell.response_energy(e), e)


class TestActivationNormalized:
    def test_relu_like(self):
        cell = GSTActivationCell()
        h = np.array([-2.0, -0.1, 0.0, 0.5, 3.0])
        out = cell.activate(h)
        assert np.allclose(out, 0.34 * np.maximum(h, 0))

    def test_derivative_two_valued(self):
        cell = GSTActivationCell()
        h = np.array([-1.0, 0.0, 1e-9, 5.0])
        d = cell.derivative(h)
        assert np.allclose(d, [0.0, 0.0, 0.34, 0.34])

    def test_bypass_identity_and_unit_derivative(self):
        cell = GSTActivationCell(bypass=True)
        h = np.array([-1.0, 2.0])
        assert np.allclose(cell.activate(h), h)
        assert np.allclose(cell.derivative(h), 1.0)

    def test_positive_homogeneity(self):
        """f(s*h) = s*f(h) for s > 0 — the property the accelerator's
        range normalization relies on."""
        cell = GSTActivationCell()
        h = np.array([-1.0, 0.3, 2.0])
        assert np.allclose(cell.activate(5.0 * h), 5.0 * cell.activate(h))


class TestActivationFiring:
    def test_fire_counts_events(self):
        cell = GSTActivationCell()
        cell.fire(np.array([-1.0, 0.5, 2.0]))
        assert cell.firing_events == 2

    def test_fire_accumulates_reset_energy(self):
        cell = GSTActivationCell()
        cell.fire(np.array([1.0, 1.0]))
        assert cell.reset_energy_spent_j == pytest.approx(2 * cell.config.reset_energy_j)

    def test_endurance_enforced(self):
        cfg = GSTActivationConfig(endurance_cycles=3)
        cell = GSTActivationCell(config=cfg)
        cell.fire(np.array([1.0, 1.0, 1.0]))
        with pytest.raises(EnduranceExceededError):
            cell.fire(np.array([1.0]))

    def test_bypass_fire_counts_nothing(self):
        cell = GSTActivationCell(bypass=True)
        cell.fire(np.array([1.0, 2.0]))
        assert cell.firing_events == 0

    def test_remaining_endurance(self):
        cell = GSTActivationCell(config=GSTActivationConfig(endurance_cycles=10))
        cell.fire(np.array([1.0, -1.0, 3.0]))
        assert cell.remaining_endurance == 8

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            GSTActivationConfig(threshold_j=0.0)
        with pytest.raises(ConfigError):
            GSTActivationConfig(slope=-0.1)
        with pytest.raises(ConfigError):
            GSTActivationConfig(leakage=1.0)


class TestComparator:
    def test_compares_against_threshold(self):
        comp = AnalogComparator(threshold_v=0.5)
        out = comp.compare(np.array([0.4, 0.6]))
        assert list(out) == [False, True]

    def test_uncertainty_band_resolves_false(self):
        comp = AnalogComparator(threshold_v=0.0, uncertainty_v=0.1)
        assert not bool(comp.compare(0.05))
        assert bool(comp.compare(0.15))

    def test_rejects_negative_uncertainty(self):
        with pytest.raises(ConfigError):
            AnalogComparator(uncertainty_v=-0.1)


class TestDFlipFlop:
    def test_latch_and_read(self):
        ff = DFlipFlop()
        assert not ff.q
        ff.latch(True)
        assert ff.q
        ff.latch(False)
        assert not ff.q


class TestLDSU:
    def test_capture_stores_bits(self):
        ldsu = LDSU(n_rows=4)
        bits = ldsu.capture_batch(np.array([[1.0], [-1.0], [0.5], [0.0]]))[:, 0]
        assert list(bits) == [True, False, True, False]
        assert list(ldsu.bits) == list(bits)

    def test_derivative_gains_match_paper(self):
        ldsu = LDSU(n_rows=3)
        ldsu.capture_batch(np.array([[2.0], [-2.0], [1.0]]))
        assert np.allclose(ldsu.derivative_gains_batch()[:, 0], [0.34, 0.0, 0.34])

    def test_capture_rejects_wrong_shape(self):
        ldsu = LDSU(n_rows=4)
        with pytest.raises(DeviceError):
            ldsu.capture_batch(np.zeros((3, 1)))

    def test_clear(self):
        ldsu = LDSU(n_rows=2)
        ldsu.capture_batch(np.ones((2, 1)))
        ldsu.clear()
        assert not ldsu.bits.any()

    def test_bits_returns_copy(self):
        ldsu = LDSU(n_rows=2)
        ldsu.capture_batch(np.ones((2, 1)))
        external = ldsu.bits
        external[:] = False
        assert ldsu.bits.all()

    def test_one_bit_per_row_is_enough(self):
        """The paper's point: the GST activation has exactly two derivative
        values so the LDSU needs only 1 bit/row."""
        ldsu = LDSU(n_rows=8)
        ldsu.capture_batch(np.random.default_rng(0).normal(size=(8, 5)))
        gains = ldsu.derivative_gains_batch()
        assert set(np.unique(gains)) <= {0.0, 0.34}

    def test_rejects_bad_rows(self):
        with pytest.raises(ConfigError):
            LDSU(n_rows=0)

    def test_power_matches_table3(self):
        assert LDSU().power_w == pytest.approx(0.09e-3)


class TestLDSUBatch:
    def test_capture_batch_matches_per_sample_sweep(self):
        ldsu = LDSU(n_rows=3)
        logits = np.array([[1.0, -1.0], [-0.5, 0.5], [0.0, 2.0]])
        plane = ldsu.capture_batch(logits)
        sweep = LDSU(n_rows=3)
        for b in range(2):
            single = sweep.capture_batch(logits[:, b : b + 1])
            assert np.array_equal(single[:, 0], plane[:, b])
        # Flip-flops end up holding the final column, exactly as a
        # sweep of single-sample captures leaves them.
        assert np.array_equal(ldsu.bits, plane[:, -1])
        assert np.array_equal(ldsu.bits, sweep.bits)

    def test_derivative_gains_batch(self):
        ldsu = LDSU(n_rows=2)
        ldsu.capture_batch(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert np.allclose(
            ldsu.derivative_gains_batch(), [[0.34, 0.0], [0.0, 0.34]]
        )

    def test_batch_state_requires_capture(self):
        ldsu = LDSU(n_rows=2)
        with pytest.raises(DeviceError):
            ldsu.batch_bits
        with pytest.raises(DeviceError):
            ldsu.derivative_gains_batch()

    def test_capture_batch_rejects_wrong_shape(self):
        ldsu = LDSU(n_rows=4)
        with pytest.raises(DeviceError):
            ldsu.capture_batch(np.zeros((3, 5)))
        with pytest.raises(DeviceError):
            ldsu.capture_batch(np.zeros(4))

    def test_clear_drops_batch_plane(self):
        ldsu = LDSU(n_rows=2)
        ldsu.capture_batch(np.ones((2, 3)))
        ldsu.clear()
        with pytest.raises(DeviceError):
            ldsu.batch_bits

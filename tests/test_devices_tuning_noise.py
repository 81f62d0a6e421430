"""Tests for tuning technologies (Table I) and the noise model."""

import numpy as np
import pytest

from repro.devices.noise import NoiseModel
from repro.devices.tuning import (
    ElectricTuning,
    GSTTuning,
    ThermalTuning,
    TuningMethod,
    tuning_comparison_table,
)
from repro.errors import ConfigError


class TestTableIValues:
    def test_thermal(self):
        t = ThermalTuning()
        assert t.write_energy_j == pytest.approx(1.02e-9)
        assert t.write_time_s == pytest.approx(0.6e-6)
        assert t.hold_power_w == pytest.approx(1.7e-3)
        assert t.volatile

    def test_electric(self):
        e = ElectricTuning()
        assert e.write_time_s == pytest.approx(500e-9)
        assert e.wavelength_shift(1.0) == pytest.approx(0.18e-12)

    def test_gst(self):
        g = GSTTuning()
        assert g.write_energy_j == pytest.approx(660e-12)
        assert g.write_time_s == pytest.approx(300e-9)
        assert g.hold_power_w == 0.0
        assert not g.volatile
        assert g.retention_years == pytest.approx(10.0)

    def test_gst_twice_as_fast_as_thermal(self):
        assert ThermalTuning().write_time_s / GSTTuning().write_time_s == pytest.approx(2.0)


class TestResolutionAndTraining:
    def test_thermal_cannot_train(self):
        assert ThermalTuning().bit_resolution == 6
        assert not ThermalTuning().supports_training()

    def test_gst_can_train(self):
        assert GSTTuning().bit_resolution == 8
        assert GSTTuning().supports_training()

    def test_levels(self):
        assert GSTTuning().levels == 255
        assert ThermalTuning().levels == 63


class TestEnergyAccounting:
    def test_write_energy_scales_with_cells(self):
        g = GSTTuning()
        assert g.write_energy(256) == pytest.approx(256 * 660e-12)

    def test_write_energy_rejects_negative(self):
        with pytest.raises(ValueError):
            GSTTuning().write_energy(-1)

    def test_gst_hold_free(self):
        assert GSTTuning().hold_energy(256, 1.0) == 0.0

    def test_thermal_hold_costly(self):
        # 256 rings held 1 ms: 256 * 1.7 mW * 1e-3 s.
        assert ThermalTuning().hold_energy(256, 1e-3) == pytest.approx(256 * 1.7e-6)

    def test_hold_energy_rejects_negative_duration(self):
        with pytest.raises(ValueError):
            ThermalTuning().hold_energy(10, -1.0)

    def test_read_energy(self):
        assert GSTTuning().read_energy(5) == pytest.approx(100e-12)


class TestComparisonTable:
    def test_three_rows(self):
        rows = tuning_comparison_table()
        assert [r["method"] for r in rows] == ["thermal", "electric", "gst"]

    def test_only_gst_supports_training(self):
        rows = {r["method"]: r for r in tuning_comparison_table()}
        assert rows["gst"]["supports_training"]
        assert not rows["thermal"]["supports_training"]

    def test_enum_values(self):
        assert TuningMethod.GST.value == "gst"


class TestNoiseModel:
    def test_ideal_is_pass_through(self):
        nm = NoiseModel.ideal()
        sig = np.linspace(-1, 1, 16)
        assert np.array_equal(nm.apply_detection_noise(sig), sig)

    def test_ideal_returns_copy(self):
        nm = NoiseModel.ideal()
        sig = np.ones(4)
        out = nm.apply_detection_noise(sig)
        out[:] = 0
        assert np.all(sig == 1)

    def test_realistic_perturbs(self):
        nm = NoiseModel.realistic(seed=1)
        sig = np.ones(1000)
        out = nm.apply_detection_noise(sig)
        assert not np.array_equal(out, sig)
        assert np.std(out - sig) > 0

    def test_seeded_repeatability(self):
        a = NoiseModel.realistic(seed=5).apply_detection_noise(np.ones(32))
        b = NoiseModel.realistic(seed=5).apply_detection_noise(np.ones(32))
        assert np.array_equal(a, b)

    def test_reseed(self):
        nm = NoiseModel.realistic(seed=5)
        a = nm.apply_detection_noise(np.ones(32))
        nm.reseed(5)
        b = nm.apply_detection_noise(np.ones(32))
        assert np.array_equal(a, b)

    def test_noise_grows_with_signal(self):
        nm = NoiseModel.realistic(seed=2)
        small = np.std(nm.apply_detection_noise(np.full(20000, 0.01)) - 0.01)
        nm.reseed(2)
        large = np.std(nm.apply_detection_noise(np.full(20000, 1.0)) - 1.0)
        assert large > small

    def test_programming_noise_disabled_cases(self):
        nm = NoiseModel.ideal()
        levels = np.arange(10.0)
        assert np.array_equal(nm.apply_programming_noise(levels, 1.0), levels)
        nm2 = NoiseModel.realistic()
        assert np.array_equal(nm2.apply_programming_noise(levels, 0.0), levels)

    def test_programming_noise_scale(self):
        nm = NoiseModel.realistic(seed=3)
        levels = np.zeros(20000)
        out = nm.apply_programming_noise(levels, 2.0)
        assert np.std(out) == pytest.approx(2.0, rel=0.05)

    def test_rejects_negative_coefficients(self):
        with pytest.raises(ConfigError):
            NoiseModel(shot_noise_coeff=-0.1)

    @pytest.mark.parametrize("field", ["shot_noise_coeff", "thermal_noise_std", "rin_coeff"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_coefficients(self, field, value):
        with pytest.raises(ConfigError, match=field):
            NoiseModel(enabled=True, **{field: value})

"""Tests for the GST retention/drift model."""

import numpy as np
import pytest

from repro.devices.drift import SECONDS_PER_YEAR, RetentionModel, refresh_schedule
from repro.errors import ConfigError


@pytest.fixture(scope="module")
def model():
    return RetentionModel()


class TestTimeConstant:
    def test_spec_point_is_ten_years_at_85c(self, model):
        assert model.time_constant_s(358.15) == pytest.approx(10 * SECONDS_PER_YEAR)

    def test_room_temperature_effectively_nonvolatile(self, model):
        # The paper's "non-volatile" reading: many orders of magnitude
        # beyond a product lifetime at 25 C.
        assert model.time_constant_s(298.15) > 1e6 * SECONDS_PER_YEAR

    def test_monotone_decreasing_in_temperature(self, model):
        taus = [model.time_constant_s(t) for t in (300.0, 330.0, 360.0, 390.0)]
        assert all(a > b for a, b in zip(taus, taus[1:]))

    def test_rejects_bad_temperature(self, model):
        with pytest.raises(ConfigError):
            model.time_constant_s(0.0)


class TestAging:
    def test_zero_age_is_identity(self, model):
        c = np.linspace(0, 1, 11)
        assert np.allclose(model.aged_fraction(c, 0.0), c)

    def test_drift_is_toward_crystalline(self, model):
        c = np.linspace(0, 0.99, 20)
        aged = model.aged_fraction(c, SECONDS_PER_YEAR, temperature_k=358.15)
        assert np.all(aged >= c)
        assert np.all(aged <= 1.0)

    def test_fully_crystalline_is_stable(self, model):
        assert float(model.aged_fraction(1.0, 100 * SECONDS_PER_YEAR, 400.0)) == 1.0

    def test_infinite_time_limit(self, model):
        aged = model.aged_fraction(0.0, 1e4 * SECONDS_PER_YEAR, temperature_k=358.15)
        assert float(aged) == pytest.approx(1.0)

    def test_validation(self, model):
        with pytest.raises(ConfigError):
            model.aged_fraction(0.5, -1.0)
        with pytest.raises(ConfigError):
            model.aged_fraction(1.5, 1.0)


class TestWeightDrift:
    def test_weights_drift_negative(self, model, calibration):
        w = np.linspace(-0.9, 0.9, 19)
        aged = model.aged_weights(w, SECONDS_PER_YEAR, 358.15, calibration)
        assert np.all(aged <= w + 1e-12)

    def test_error_monotone_in_age(self, model, calibration):
        e1 = model.worst_case_weight_error(0.1 * SECONDS_PER_YEAR, 358.15, calibration)
        e2 = model.worst_case_weight_error(1.0 * SECONDS_PER_YEAR, 358.15, calibration)
        assert e2 > e1 > 0

    def test_negligible_at_room_temperature(self, model, calibration):
        err = model.worst_case_weight_error(10 * SECONDS_PER_YEAR, 298.15, calibration)
        assert err < 1e-4


class TestRefresh:
    def test_interval_respects_bound(self, model, calibration):
        bound = 0.01
        interval = model.refresh_interval_s(bound, 358.15, calibration)
        assert model.worst_case_weight_error(interval, 358.15, calibration) <= bound + 1e-9
        assert (
            model.worst_case_weight_error(interval * 1.5, 358.15, calibration) > bound
        )

    def test_room_temperature_capped_never(self, model, calibration):
        interval = model.refresh_interval_s(0.004, 298.15, calibration)
        assert interval == pytest.approx(1000 * SECONDS_PER_YEAR)

    def test_rejects_bad_bound(self, model):
        with pytest.raises(ConfigError):
            model.refresh_interval_s(0.0)

    def test_schedule_shape(self):
        rows = refresh_schedule()
        assert [r["temperature_c"] for r in rows] == [25.0, 55.0, 85.0, 105.0, 125.0]
        intervals = [r["refresh_interval_s"] for r in rows]
        assert all(a >= b for a, b in zip(intervals, intervals[1:]))

    def test_schedule_85c_is_days_scale(self):
        rows = {r["temperature_c"]: r for r in refresh_schedule()}
        assert 1 < rows[85.0]["refresh_interval_days"] < 60

    def test_schedule_room_temperature_never_refreshes(self):
        rows = {r["temperature_c"]: r for r in refresh_schedule()}
        assert rows[25.0]["refresh_interval_days"] > 365 * 100

    def test_schedule_validation(self):
        with pytest.raises(ConfigError):
            refresh_schedule(weight_bits=1)

    def test_model_validation(self):
        with pytest.raises(ConfigError):
            RetentionModel(tau_ref_s=0.0)
        with pytest.raises(ConfigError):
            RetentionModel(activation_energy_ev=-1.0)

"""Tests for the thermal-crosstalk resolution model and PE pipelining."""

import numpy as np
import pytest

from repro import TridentAccelerator
from repro.devices.thermal_crosstalk import (
    ThermalCrosstalkModel,
    thermal_resolution_sweep,
)
from repro.errors import ConfigError, MappingError


class TestCouplingMatrix:
    def test_diagonal_unity(self):
        m = ThermalCrosstalkModel(n_rings=8).coupling_matrix()
        assert np.allclose(np.diag(m), 1.0)

    def test_symmetric(self):
        m = ThermalCrosstalkModel(n_rings=8).coupling_matrix()
        assert np.allclose(m, m.T)

    def test_adjacent_coupling_as_specified(self):
        model = ThermalCrosstalkModel(n_rings=8, adjacent_coupling=0.01)
        m = model.coupling_matrix()
        assert m[3, 4] == pytest.approx(0.01)

    def test_decays_with_distance(self):
        m = ThermalCrosstalkModel(n_rings=8).coupling_matrix()
        assert m[0, 1] > m[0, 2] > m[0, 3]


class TestWeightErrors:
    def test_zero_coupling_zero_error(self):
        model = ThermalCrosstalkModel(n_rings=8, adjacent_coupling=0.0)
        errors = model.weight_errors(np.random.default_rng(0).uniform(0, 1, 8))
        assert np.allclose(errors, 0.0)

    def test_all_on_is_worst_case(self):
        model = ThermalCrosstalkModel(n_rings=8, adjacent_coupling=0.01)
        rng = np.random.default_rng(1)
        worst = model.worst_case_error()
        for _ in range(50):
            errors = model.weight_errors(rng.uniform(0, 1, 8))
            assert errors.max() <= worst + 1e-12

    def test_errors_nonnegative_for_nonneg_kernel(self):
        model = ThermalCrosstalkModel(n_rings=8)
        errors = model.weight_errors(np.ones(8))
        assert np.all(errors >= 0)

    def test_input_validation(self):
        model = ThermalCrosstalkModel(n_rings=4)
        with pytest.raises(ConfigError):
            model.weight_errors(np.ones(5))
        with pytest.raises(ConfigError):
            model.weight_errors(np.array([0.5, -0.1, 0.2, 0.3]))


class TestResolution:
    def test_default_matches_paper_6_bits(self):
        """The Sec. II-B claim: thermal banks resolve 6 bits."""
        assert ThermalCrosstalkModel().usable_bits() == 6

    def test_zero_coupling_unbounded(self):
        assert ThermalCrosstalkModel(adjacent_coupling=0.0).usable_bits() == 16

    def test_bits_decrease_with_coupling(self):
        rows = thermal_resolution_sweep()
        bits = [r["usable_bits"] for r in rows]
        assert bits == sorted(bits, reverse=True)

    def test_sweep_includes_6bit_operating_point(self):
        rows = {r["adjacent_coupling"]: r["usable_bits"] for r in thermal_resolution_sweep()}
        assert rows[0.0035] == 6

    def test_monte_carlo_below_worst_case(self):
        model = ThermalCrosstalkModel()
        assert model.monte_carlo_error() <= model.worst_case_error()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ThermalCrosstalkModel(n_rings=0)
        with pytest.raises(ConfigError):
            ThermalCrosstalkModel(adjacent_coupling=1.5)
        with pytest.raises(ConfigError):
            ThermalCrosstalkModel().monte_carlo_error(n_patterns=0)


class TestPipelining:
    def test_latency_is_nanoseconds_for_small_mlp(self):
        acc = TridentAccelerator()
        acc.map_mlp([16, 16, 4])
        # Two single-tile layers: 2 symbol periods at 346 MHz ~ 5.8 ns.
        assert acc.pipeline_latency_s() == pytest.approx(2 / acc.config.symbol_rate_hz)

    def test_tiled_layer_adds_reduction_stages(self):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        # Layer 0: ceil(40/16)=3 reduction tiles; layer 1: ceil(24/16)=2.
        assert acc.pipeline_latency_s() == pytest.approx(5 / acc.config.symbol_rate_hz)

    def test_throughput_set_by_slowest_stage(self):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        assert acc.pipeline_throughput() == pytest.approx(acc.config.symbol_rate_hz / 3)

    def test_requires_mapping(self):
        acc = TridentAccelerator()
        with pytest.raises(MappingError):
            acc.pipeline_latency_s()
        with pytest.raises(MappingError):
            acc.pipeline_throughput()

    def test_pipeline_faster_than_serial_estimate(self):
        acc = TridentAccelerator()
        acc.map_mlp([16, 16, 4])
        import numpy as np

        rng = np.random.default_rng(0)
        acc.set_weights([rng.uniform(-1, 1, (16, 16)), rng.uniform(-1, 1, (4, 16))])
        acc.forward_batch(rng.uniform(-1, 1, (1, 16)))
        assert acc.pipeline_latency_s() < acc.time_estimate_s()

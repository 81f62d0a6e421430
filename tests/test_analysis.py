"""Tests for the extended analyses (variation, endurance, sensitivity,
precision)."""

import pytest

from repro.analysis import (
    endurance_report,
    parameter_sensitivity,
    precision_sweep,
    variation_sweep,
)
from repro.errors import ConfigError
from repro.nn import build_model
from repro.nn.models import PAPER_MODELS


class TestEndurance:
    @pytest.fixture(scope="class")
    def resnet_report(self):
        return endurance_report(build_model("resnet50"))

    def test_activation_cells_are_the_limiter(self, resnet_report):
        """The extension finding: activation cells cycle per firing event
        and wear out far before the weight banks."""
        assert resnet_report.limiting_population == "activation"
        assert (
            resnet_report.activation_lifetime_s
            < resnet_report.weight_lifetime_s / 10
        )

    def test_weight_lifetime_years_scale(self, resnet_report):
        assert 0.1 < resnet_report.weight_lifetime_years < 100

    def test_activation_lifetime_hours_scale(self, resnet_report):
        # Trillion-cycle rating buys hours-to-days, not years.
        assert 1 < resnet_report.activation_lifetime_hours < 10_000

    @pytest.mark.parametrize("model", PAPER_MODELS)
    def test_every_paper_model_wears_out_activations_within_a_year(self, model):
        report = endurance_report(build_model(model))
        assert report.limiting_population == "activation"
        assert report.activation_lifetime_hours < 24 * 365
        assert report.weight_lifetime_years > 0.1

    def test_larger_batch_extends_weight_lifetime(self):
        net = build_model("googlenet")
        small = endurance_report(net, batch=8)
        large = endurance_report(net, batch=256)
        assert large.weight_lifetime_inferences > small.weight_lifetime_inferences

    def test_lower_endurance_rating_scales_linearly(self):
        net = build_model("googlenet")
        full = endurance_report(net, endurance_cycles=int(1e12))
        weak = endurance_report(net, endurance_cycles=int(1e9))
        assert full.activation_lifetime_inferences == pytest.approx(
            1000 * weak.activation_lifetime_inferences
        )

    def test_firing_probability_scales_activation_wear(self):
        net = build_model("googlenet")
        hot = endurance_report(net, firing_probability=1.0)
        cool = endurance_report(net, firing_probability=0.25)
        assert cool.activation_lifetime_inferences == pytest.approx(
            4 * hot.activation_lifetime_inferences
        )

    def test_validation(self):
        net = build_model("googlenet")
        with pytest.raises(ConfigError):
            endurance_report(net, endurance_cycles=0)
        with pytest.raises(ConfigError):
            endurance_report(net, firing_probability=0.0)


class TestSensitivity:
    @pytest.fixture(scope="class")
    def records(self):
        return parameter_sensitivity("googlenet", batch=8)

    def test_covers_all_sweepable_parameters(self, records):
        names = {r.parameter for r in records}
        assert names == {
            "symbol_rate_hz",
            "write_energy_per_cell_j",
            "write_time_s",
            "streaming_power_pe_w",
        }

    def test_symbol_rate_dominates_latency(self, records):
        by_name = {r.parameter: r for r in records}
        assert abs(by_name["symbol_rate_hz"].latency_elasticity) > 0.8
        assert by_name["symbol_rate_hz"].latency_elasticity < 0  # faster = less time

    def test_streaming_power_hits_energy_not_latency(self, records):
        by_name = {r.parameter: r for r in records}
        r = by_name["streaming_power_pe_w"]
        assert r.energy_elasticity > 0.3
        assert abs(r.latency_elasticity) < 0.01

    def test_write_energy_matters_at_small_batch(self, records):
        by_name = {r.parameter: r for r in records}
        assert by_name["write_energy_per_cell_j"].energy_elasticity > 0.05

    def test_resnet50_elasticities(self):
        by_name = {
            r.parameter: r for r in parameter_sensitivity("resnet50", batch=8)
        }
        assert by_name["symbol_rate_hz"].latency_elasticity < -0.8
        assert by_name["streaming_power_pe_w"].energy_elasticity > 0.3
        assert by_name["write_energy_per_cell_j"].energy_elasticity > 0.05

    def test_sorted_by_energy_impact(self, records):
        magnitudes = [abs(r.energy_elasticity) for r in records]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_validation(self):
        with pytest.raises(ConfigError):
            parameter_sensitivity("googlenet", delta=0.0)


class TestPrecision:
    @pytest.fixture(scope="class")
    def points(self):
        return precision_sweep(bits_list=(2, 4, 8), epochs=6)

    def test_insitu_training_collapses_at_2_bits(self, points):
        """The paper's core resolution claim, demonstrated: training needs
        resolution far more than deployment does."""
        by_bits = {p.bits: p for p in points}
        assert by_bits[2].insitu_accuracy < by_bits[2].deployed_accuracy - 0.1
        assert by_bits[2].insitu_accuracy < by_bits[8].insitu_accuracy - 0.2
        assert by_bits[2].insitu_accuracy < by_bits[4].insitu_accuracy - 0.2

    def test_8_bits_recovers_digital_accuracy(self, points):
        by_bits = {p.bits: p for p in points}
        assert by_bits[8].training_drop < 0.05
        assert by_bits[8].deployment_drop < 0.02

    def test_monotone_improvement_with_bits(self, points):
        insitu = [p.insitu_accuracy for p in sorted(points, key=lambda p: p.bits)]
        assert insitu[0] < insitu[-1]

    def test_validation(self):
        with pytest.raises(ConfigError):
            precision_sweep(bits_list=())
        with pytest.raises(ConfigError):
            precision_sweep(bits_list=(1,))


class TestVariation:
    @pytest.fixture(scope="class")
    def points(self):
        return variation_sweep(
            programming_levels=(0.0, 6.0),
            detection_stds=(0.0, 0.2),
            n_trials=3,
        )

    def test_grid_complete(self, points):
        assert len(points) == 4

    def test_clean_deployment_is_best(self, points):
        by_key = {
            (p.programming_noise_levels, p.detection_noise_std): p for p in points
        }
        clean = by_key[(0.0, 0.0)]
        assert clean.std_accuracy == 0.0  # deterministic
        noisy = by_key[(6.0, 0.2)]
        assert noisy.mean_accuracy <= clean.mean_accuracy

    def test_detection_noise_degrades(self, points):
        by_key = {
            (p.programming_noise_levels, p.detection_noise_std): p for p in points
        }
        assert (
            by_key[(0.0, 0.2)].mean_accuracy < by_key[(0.0, 0.0)].mean_accuracy
        )

    def test_worst_at_most_mean(self, points):
        for p in points:
            assert p.worst_accuracy <= p.mean_accuracy + 1e-12

    def test_validation(self):
        with pytest.raises(ConfigError):
            variation_sweep(n_trials=0)


class TestAging:
    @pytest.fixture(scope="class")
    def points(self):
        from repro.analysis.aging import aging_sweep

        return aging_sweep(ages_s=(0.0, 1e6, 3e7), temperature_c=85.0)

    def test_fresh_weights_match_reference(self, points):
        assert points[0].worst_weight_drift < 1e-12

    def test_drift_grows_with_age(self, points):
        drifts = [p.worst_weight_drift for p in points]
        assert drifts == sorted(drifts)
        assert drifts[-1] > 0.05

    def test_accuracy_degrades_eventually(self, points):
        assert points[-1].accuracy <= points[0].accuracy

    def test_room_temperature_is_stable(self):
        from repro.analysis.aging import aging_sweep

        points = aging_sweep(ages_s=(0.0, 3e7), temperature_c=25.0)
        assert points[-1].accuracy == points[0].accuracy
        assert points[-1].worst_weight_drift < 1e-4

    def test_validation(self):
        from repro.analysis.aging import aging_sweep
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            aging_sweep(ages_s=())


class TestNoiseAwareTraining:
    @pytest.fixture(scope="class")
    def task(self):
        import numpy as np

        from repro.nn.datasets import Dataset, make_blobs, standardize

        data = make_blobs(n_samples=300, n_features=10, n_classes=3, spread=2.0, seed=5)
        data = Dataset(x=np.clip(standardize(data.x) / 3, -1, 1), y=data.y)
        return data.split(0.8, seed=1)

    def _train(self, model, train, lr=0.4, epochs=8):
        for epoch in range(epochs):
            for xb, yb in train.batches(16, seed=epoch):
                model.train_step(xb, yb, lr=lr)
        return model

    def test_converges_to_clean_level(self, task):
        from repro.analysis.robust_training import NoiseAwareMLP
        from repro.nn.reference import DigitalMLP

        train, test = task
        aware = self._train(NoiseAwareMLP([10, 14, 3], seed=7), train)
        clean = self._train(DigitalMLP([10, 14, 3], activation="gst", seed=7), train)
        assert aware.accuracy(test.x, test.y) >= clean.accuracy(test.x, test.y) - 0.05

    def test_clean_weights_stay_unquantized(self, task):
        """Straight-through: updates land on the full-precision shadow."""
        import numpy as np

        from repro.analysis.robust_training import NoiseAwareMLP
        from repro.nn.quantization import UniformQuantizer

        train, _ = task
        aware = self._train(NoiseAwareMLP([10, 14, 3], seed=7), train, epochs=2)
        q = UniformQuantizer.from_bits(8)
        w = aware.weights[0]
        scale = max(1.0, float(np.max(np.abs(w))))
        snapped = q.roundtrip(w / scale) * scale
        assert not np.allclose(w, snapped)

    def test_hardware_view_is_stochastic(self):
        import numpy as np

        from repro.analysis.robust_training import NoiseAwareMLP

        aware = NoiseAwareMLP([4, 3], programming_noise_levels=2.0, seed=0)
        w = aware.weights[0]
        a = aware._hardware_view(w)
        b = aware._hardware_view(w)
        assert not np.array_equal(a, b)

    def test_zero_noise_view_is_pure_quantization(self):
        import numpy as np

        from repro.analysis.robust_training import NoiseAwareMLP
        from repro.nn.quantization import UniformQuantizer

        aware = NoiseAwareMLP([4, 3], programming_noise_levels=0.0, seed=0)
        w = aware.weights[0]
        q = UniformQuantizer.from_bits(8)
        scale = max(1.0, float(np.max(np.abs(w))))
        assert np.allclose(aware._hardware_view(w), q.roundtrip(w / scale) * scale)

    def test_validation(self):
        from repro.analysis.robust_training import NoiseAwareMLP

        with pytest.raises(ConfigError):
            NoiseAwareMLP([4, 3], bits=1)
        with pytest.raises(ConfigError):
            NoiseAwareMLP([4, 3], programming_noise_levels=-1.0)


class TestThermalDeployment:
    @pytest.fixture(scope="class")
    def points(self):
        from repro.analysis.thermal_deployment import thermal_vs_gst_deployment

        return thermal_vs_gst_deployment(couplings=(0.0035, 0.01, 0.03))

    def test_gst_point_first_and_cleanest(self, points):
        assert points[0].label == "gst"
        assert points[0].bits == 8
        errors = [p.worst_weight_error for p in points]
        assert errors[0] == min(errors)

    def test_weight_error_grows_with_coupling(self, points):
        thermal = points[1:]
        errors = [p.worst_weight_error for p in thermal]
        assert errors == sorted(errors)

    def test_strong_coupling_costs_accuracy(self, points):
        assert points[-1].accuracy < points[0].accuracy

    def test_gst_worst_error_is_8bit_half_lsb(self, points):
        assert points[0].worst_weight_error <= 1.0 / 254 + 1e-9

    def test_deployed_weights_validation(self):
        import numpy as np

        from repro.analysis.thermal_deployment import thermally_deployed_weights
        from repro.devices.thermal_crosstalk import ThermalCrosstalkModel

        model = ThermalCrosstalkModel(n_rings=8)
        with pytest.raises(ConfigError):
            thermally_deployed_weights(np.zeros((4, 7)), model)
        with pytest.raises(ConfigError):
            thermally_deployed_weights(np.full((4, 8), 1.5), model)

    def test_zero_coupling_is_pure_6bit_quantization(self):
        import numpy as np

        from repro.analysis.thermal_deployment import thermally_deployed_weights
        from repro.devices.thermal_crosstalk import ThermalCrosstalkModel
        from repro.nn.quantization import UniformQuantizer

        rng = np.random.default_rng(0)
        w = rng.uniform(-1, 1, (5, 8))
        model = ThermalCrosstalkModel(n_rings=8, adjacent_coupling=0.0)
        realized = thermally_deployed_weights(w, model, bits=6)
        assert np.allclose(realized, UniformQuantizer.from_bits(6).roundtrip(w))

    def test_validation(self):
        from repro.analysis.thermal_deployment import thermal_vs_gst_deployment

        with pytest.raises(ConfigError):
            thermal_vs_gst_deployment(couplings=())

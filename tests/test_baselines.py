"""Tests for the photonic and electronic baseline models."""

import numpy as np
import pytest

from repro.baselines import (
    POWER_BUDGET_W,
    crosslight_arch,
    deap_cnn_arch,
    electronic_baselines,
    photonic_baselines,
    pixel_arch,
)
from repro.arch.config import pes_for_budget
from repro.baselines.base import baseline_sizing_power
from repro.baselines.electronic import (
    XAVIER_TRAINING_UTILIZATION,
    agx_xavier,
    agx_xavier_training,
    bearkey_tb96,
    google_coral,
)
from repro.dataflow.cost_model import PhotonicCostModel
from repro.errors import ConfigError
from repro.nn import build_model


class TestSizingMethodology:
    def test_budget_is_30w(self):
        assert POWER_BUDGET_W == 30.0

    def test_sizing_power_rejects_negative_extras(self):
        with pytest.raises(ValueError):
            baseline_sizing_power(-1.0)

    def test_pes_for_budget(self):
        assert pes_for_budget(0.676, 30.0) == 44

    def test_pes_for_budget_rejects_oversized_pe(self):
        with pytest.raises(ConfigError, match="cannot power a single"):
            pes_for_budget(40.0, 30.0)

    def test_all_archs_respect_budget(self):
        for arch in photonic_baselines():
            assert arch.n_pes * arch.sizing_power_pe_w <= POWER_BUDGET_W

    def test_trident_has_most_pes(self):
        """Paper Sec. V-A: the GST tuning method lets Trident scale to more
        PEs than the other photonic accelerators at 30 W."""
        archs = {a.name: a for a in photonic_baselines()}
        trident = archs.pop("trident")
        for other in archs.values():
            assert trident.n_pes >= other.n_pes

    def test_pe_count_ordering(self):
        archs = {a.name: a.n_pes for a in photonic_baselines()}
        assert archs["trident"] > archs["crosslight"] > archs["pixel"]


class TestDEAPCNN:
    def test_thermal_tuning_parameters(self):
        a = deap_cnn_arch()
        assert a.write_energy_per_cell_j == pytest.approx(1.02e-9)
        assert a.write_time_s == pytest.approx(0.6e-6)
        assert a.hold_power_per_cell_w == pytest.approx(1.7e-3)

    def test_six_bit_resolution(self):
        assert deap_cnn_arch().weight_bits == 6

    def test_digital_activation(self):
        a = deap_cnn_arch()
        assert a.digital_activation
        assert a.adc_energy_per_sample_j > 0

    def test_slower_symbol_rate_than_trident(self):
        archs = {a.name: a for a in photonic_baselines()}
        assert archs["deap-cnn"].symbol_rate_hz < archs["trident"].symbol_rate_hz


class TestCrossLight:
    def test_hybrid_tuning_faster_than_thermal(self):
        assert crosslight_arch().write_time_s < deap_cnn_arch().write_time_s

    def test_vcsel_burden_reduces_pe_count(self):
        assert crosslight_arch().n_pes < deap_cnn_arch().n_pes

    def test_seven_bit_resolution(self):
        assert crosslight_arch().weight_bits == 7


class TestPIXEL:
    def test_mzm_extra_symbol_energy(self):
        assert pixel_arch().extra_symbol_energy_j > 0

    def test_fewest_pes(self):
        counts = {a.name: a.n_pes for a in photonic_baselines()}
        assert counts["pixel"] == min(counts.values())

    def test_thermal_write_parameters(self):
        a = pixel_arch()
        assert a.write_energy_per_cell_j == pytest.approx(1.02e-9)


class TestPaperShapes:
    """The headline comparative results (who wins, by roughly how much)."""

    @pytest.fixture(scope="class")
    def costs(self):
        nets = {m: build_model(m) for m in
                ("googlenet", "mobilenet_v2", "vgg16", "alexnet", "resnet50")}
        out = {}
        for arch in photonic_baselines():
            cm = PhotonicCostModel(arch, batch=128)
            out[arch.name] = {m: cm.model_cost(n) for m, n in nets.items()}
        return out

    def test_trident_wins_energy_everywhere(self, costs):
        for name, per_model in costs.items():
            if name == "trident":
                continue
            for m in per_model:
                assert per_model[m].energy_j > costs["trident"][m].energy_j, (name, m)

    def test_trident_wins_throughput_everywhere(self, costs):
        for name, per_model in costs.items():
            if name == "trident":
                continue
            for m in per_model:
                assert (
                    per_model[m].inferences_per_second
                    < costs["trident"][m].inferences_per_second
                ), (name, m)

    def test_fig4_average_energy_ratios(self, costs):
        models = list(costs["trident"])
        for name, target in (("deap-cnn", 16.4), ("crosslight", 43.5), ("pixel", 43.4)):
            ratio = np.mean(
                [costs[name][m].energy_j / costs["trident"][m].energy_j for m in models]
            )
            assert (ratio - 1) * 100 == pytest.approx(target, abs=1.5)

    def test_fig6_average_throughput_advantages(self, costs):
        models = list(costs["trident"])
        for name, target in (("deap-cnn", 27.9), ("crosslight", 150.2), ("pixel", 143.6)):
            adv = np.mean(
                [
                    costs["trident"][m].inferences_per_second
                    / costs[name][m].inferences_per_second
                    for m in models
                ]
            )
            assert (adv - 1) * 100 == pytest.approx(target, abs=3.0)


class TestElectronic:
    def test_table4_specs(self):
        specs = {a.name: a for a in electronic_baselines()}
        assert specs["agx-xavier"].peak_tops == 32.0
        assert specs["agx-xavier"].power_w == 30.0
        assert specs["tb96-ai"].peak_tops == 3.0
        assert specs["tb96-ai"].power_w == 20.0
        assert specs["google-coral"].peak_tops == 4.0
        assert specs["google-coral"].power_w == 15.0

    def test_only_xavier_trains(self):
        trainers = [a.name for a in electronic_baselines() if a.can_train]
        assert trainers == ["agx-xavier"]

    def test_tops_per_watt_ordering_matches_table4(self):
        specs = {a.name: a.tops_per_watt for a in electronic_baselines()}
        assert specs["agx-xavier"] > specs["google-coral"] > specs["tb96-ai"]

    def test_coral_resnet_fps_matches_published_scale(self):
        # Published Edge TPU dev-board ResNet-50 throughput is ~50 fps.
        cost = google_coral().model_cost(build_model("resnet50"), batch=32)
        assert 30 < cost.inferences_per_second < 80

    def test_xavier_training_override(self):
        assert set(XAVIER_TRAINING_UTILIZATION) == {
            "mobilenet_v2", "googlenet", "resnet50", "vgg16",
        }
        googlenet = agx_xavier_training("googlenet")
        assert googlenet.compute_utilization == pytest.approx(0.2610)
        fallback = agx_xavier_training("alexnet")
        assert fallback.compute_utilization == agx_xavier().compute_utilization

    def test_googlenet_utilizes_xavier_best(self):
        # Dense small-map convolutions sustain the highest fraction of peak.
        best = max(XAVIER_TRAINING_UTILIZATION, key=XAVIER_TRAINING_UTILIZATION.get)
        assert best == "googlenet"

    def test_tb96_slower_than_xavier(self):
        net = build_model("resnet50")
        assert (
            bearkey_tb96().model_cost(net).time_s > agx_xavier().model_cost(net).time_s
        )

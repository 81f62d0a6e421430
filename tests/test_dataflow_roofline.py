"""Tests for the electronic roofline model."""

import pytest

from repro.dataflow.roofline import ElectronicAccelerator
from repro.errors import ConfigError, ScheduleError
from repro.nn import build_model
from repro.nn.graph import Network
from repro.nn.layers import Pool, TensorShape


def make_acc(**kwargs):
    defaults = dict(
        name="test", peak_tops=10.0, power_w=10.0,
        dram_bandwidth_bytes_per_s=50e9, compute_utilization=0.5, can_train=True,
    )
    defaults.update(kwargs)
    return ElectronicAccelerator(**defaults)


class TestConstruction:
    def test_tops_per_watt(self):
        assert make_acc().tops_per_watt == pytest.approx(1.0)

    def test_sustained_rate(self):
        assert make_acc().sustained_ops_per_s == pytest.approx(5e12)

    def test_validation(self):
        with pytest.raises(ConfigError):
            make_acc(peak_tops=0.0)
        with pytest.raises(ConfigError):
            make_acc(compute_utilization=0.0)
        with pytest.raises(ConfigError):
            make_acc(compute_utilization=1.5)
        with pytest.raises(ConfigError):
            make_acc(dram_bandwidth_bytes_per_s=0.0)
        with pytest.raises(ConfigError):
            make_acc(training_expansion=0.5)


class TestModelCost:
    def test_compute_bound_for_dense_model(self):
        acc = make_acc(dram_bandwidth_bytes_per_s=1e12)  # huge bandwidth
        cost = acc.model_cost(build_model("vgg16"), batch=32)
        total_ops = 2 * cost.total_macs
        assert cost.time_s == pytest.approx(total_ops / acc.sustained_ops_per_s, rel=0.01)

    def test_bandwidth_bound_when_starved(self):
        fast = make_acc(dram_bandwidth_bytes_per_s=1e12)
        slow = make_acc(dram_bandwidth_bytes_per_s=1e9)
        net = build_model("mobilenet_v2")
        assert slow.model_cost(net).time_s > fast.model_cost(net).time_s

    def test_depthwise_model_more_bandwidth_sensitive(self):
        """MobileNet slows down more than VGG when bandwidth halves —
        the behaviour the paper's Table V pattern relies on."""
        fast = make_acc(dram_bandwidth_bytes_per_s=20e9)
        slow = make_acc(dram_bandwidth_bytes_per_s=2e9)
        mobil = build_model("mobilenet_v2")
        vgg = build_model("vgg16")
        mobil_slowdown = slow.model_cost(mobil).time_s / fast.model_cost(mobil).time_s
        vgg_slowdown = slow.model_cost(vgg).time_s / fast.model_cost(vgg).time_s
        assert mobil_slowdown > vgg_slowdown

    def test_larger_batch_amortizes_weight_traffic(self):
        acc = make_acc(dram_bandwidth_bytes_per_s=5e9)
        net = build_model("alexnet")  # 61M weights: traffic-heavy at batch 1
        t1 = acc.model_cost(net, batch=1).time_s
        t32 = acc.model_cost(net, batch=32).time_s
        assert t32 < t1

    def test_energy_positive_and_scales_with_ops(self):
        acc = make_acc()
        small = acc.model_cost(build_model("mobilenet_v2"))
        big = acc.model_cost(build_model("vgg16"))
        assert 0 < small.energy_j < big.energy_j

    def test_explicit_energy_per_op(self):
        acc = make_acc(energy_per_op_j=1e-12)
        cost = acc.model_cost(build_model("mobilenet_v2"))
        assert cost.energy_j == pytest.approx(2 * cost.total_macs * 1e-12)

    def test_rejects_bad_batch(self):
        with pytest.raises(ConfigError):
            make_acc().model_cost(build_model("alexnet"), batch=0)

    def test_network_without_compute_rejected(self):
        net = Network("empty", TensorShape(8, 8, 3))
        net.add(Pool("p", kernel=2))
        with pytest.raises(ScheduleError):
            make_acc().model_cost(net)


class TestTraining:
    def test_training_time_is_expanded_inference(self):
        acc = make_acc(training_expansion=3.0)
        net = build_model("googlenet")
        inference = acc.model_cost(net, batch=32).time_s
        assert acc.training_time_s(net, 1000, batch=32) == pytest.approx(
            1000 * inference * 3.0
        )

    def test_inference_only_device_cannot_train(self):
        acc = make_acc(can_train=False)
        with pytest.raises(ConfigError):
            acc.training_time_s(build_model("googlenet"), 100)

    def test_rejects_bad_sample_count(self):
        with pytest.raises(ConfigError):
            make_acc().training_time_s(build_model("googlenet"), 0)

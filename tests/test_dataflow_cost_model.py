"""Tests for the photonic cost model and report records."""

import numpy as np
import pytest

from repro.arch.cache import CacheConfig
from repro.arch.config import TridentConfig
from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
from repro.dataflow.report import LayerColumns, LayerCost
from repro.dataflow.roofline import ElectronicAccelerator
from repro.errors import ConfigError, ScheduleError
from repro.nn import build_model
from repro.nn.graph import Network
from repro.nn.layers import TensorShape


@pytest.fixture(scope="module")
def trident():
    return PhotonicArch.trident()


@pytest.fixture(scope="module")
def resnet_cost(trident):
    return PhotonicCostModel(trident, batch=128).model_cost(build_model("resnet50"))


class TestPhotonicArch:
    def test_trident_from_config(self, trident):
        cfg = TridentConfig()
        assert trident.n_pes == 44
        assert trident.symbol_rate_hz == cfg.symbol_rate_hz
        assert trident.write_energy_per_cell_j == pytest.approx(660e-12)
        assert trident.streaming_power_pe_w == pytest.approx(cfg.pe_streaming_power_w)

    def test_symbol_energy(self, trident):
        expected = trident.streaming_power_pe_w / trident.symbol_rate_hz
        assert trident.symbol_energy_j == pytest.approx(expected)

    def test_peak_tops(self, trident):
        assert trident.peak_tops == pytest.approx(7.8, rel=0.01)

    def test_scaled_to_budget(self):
        half = PhotonicArch.trident(TridentConfig().scaled_to_budget(15.0))
        assert half.n_pes == 22

    def test_scaled_rejects_tiny_budget(self):
        with pytest.raises(ConfigError):
            PhotonicArch.trident(TridentConfig().scaled_to_budget(0.1))

    def test_validation(self):
        with pytest.raises(ConfigError):
            PhotonicArch(name="x", n_pes=0, symbol_rate_hz=1e8,
                         write_energy_per_cell_j=1e-12, write_time_s=1e-7,
                         streaming_power_pe_w=0.1, sizing_power_pe_w=0.5)
        with pytest.raises(ConfigError):
            PhotonicArch(name="x", n_pes=4, symbol_rate_hz=1e8,
                         write_energy_per_cell_j=-1e-12, write_time_s=1e-7,
                         streaming_power_pe_w=0.1, sizing_power_pe_w=0.5)


def photonic(**kwargs):
    defaults = dict(name="x", n_pes=4, symbol_rate_hz=1e8,
                    write_energy_per_cell_j=1e-12, write_time_s=1e-7,
                    streaming_power_pe_w=0.1, sizing_power_pe_w=0.5)
    return PhotonicArch(**{**defaults, **kwargs})


def electronic(**kwargs):
    defaults = dict(name="e", peak_tops=10.0, power_w=10.0,
                    dram_bandwidth_bytes_per_s=50e9, compute_utilization=0.5,
                    can_train=True)
    return ElectronicAccelerator(**{**defaults, **kwargs})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "make, kwargs",
    [
        (photonic, {"symbol_rate_hz": NAN}),
        (photonic, {"streaming_power_pe_w": INF}),
        (photonic, {"write_time_s": INF}),
        (photonic, {"hold_power_per_cell_w": NAN}),
        (photonic, {"bank_rows": 0}),
        (photonic, {"bank_cols": 0}),
        (photonic, {"weight_bits": 0}),
        (electronic, {"peak_tops": NAN}),
        (electronic, {"energy_per_op_j": -1.0}),
        (electronic, {"training_expansion": NAN}),
        (CacheConfig, {"dram_bandwidth_bytes_per_s": NAN}),
        (CacheConfig, {"l2_energy_per_byte_j": INF}),
        (TridentConfig, {"symbol_rate_hz": NAN}),
        (TridentConfig, {"gst_read_power_w": INF}),
    ],
    ids=lambda v: getattr(v, "__name__", None) or next(iter(v)),
)
def test_parameter_records_reject_bad_values(make, kwargs):
    """A NaN passes every ``<= 0`` range check; an empty bank used to slip
    through to the tiler."""
    with pytest.raises(ConfigError):
        make(**kwargs)


def one_layer(cm):
    """:meth:`PhotonicCostModel.layer_costs` of one fused 16 x 16 GEMM layer
    streaming 100 positions of a 10 x 10 x 16 input, as a record."""
    (cost,) = cm.layer_costs(
        ("l",), *(np.array([v]) for v in (16, 16, 100, 1, 10 * 10 * 16, True))
    ).records()
    return cost


class TestLayerCost:
    def test_single_tile_layer(self, trident):
        cost = one_layer(PhotonicCostModel(trident, batch=1))
        # One round: write + 100 symbols.
        expected_time = trident.write_time_s + 100 / trident.symbol_rate_hz
        assert cost.time_s == pytest.approx(expected_time)
        assert cost.energy_breakdown["tuning"] == pytest.approx(256 * 660e-12)
        assert cost.energy_breakdown["streaming"] == pytest.approx(
            100 * trident.symbol_energy_j
        )
        assert cost.energy_breakdown["conversion"] == 0.0

    def test_batch_amortizes_tuning(self, trident):
        e1 = one_layer(PhotonicCostModel(trident, batch=1))
        e64 = one_layer(PhotonicCostModel(trident, batch=64))
        assert e64.energy_breakdown["tuning"] == pytest.approx(
            e1.energy_breakdown["tuning"] / 64
        )
        # Streaming per inference is batch-independent.
        assert e64.energy_breakdown["streaming"] == pytest.approx(
            e1.energy_breakdown["streaming"]
        )
        assert e64.time_s < e1.time_s

    def test_hold_power_charged_when_enabled(self):
        arch = PhotonicArch(
            name="thermal", n_pes=40, symbol_rate_hz=1e8,
            write_energy_per_cell_j=1e-9, write_time_s=6e-7,
            streaming_power_pe_w=0.1, sizing_power_pe_w=0.6,
            hold_power_per_cell_w=1.7e-3,
        )
        off = one_layer(PhotonicCostModel(arch, batch=1))
        on = one_layer(PhotonicCostModel(arch, batch=1, charge_hold_power=True))
        assert off.energy_breakdown["hold"] == 0.0
        expected_hold = 1.7e-3 * 256 * 100 / 1e8
        assert on.energy_breakdown["hold"] == pytest.approx(expected_hold)

    def test_digital_activation_pays_conversion_and_memory(self, trident):
        from dataclasses import replace

        digital = replace(
            trident, name="digital", digital_activation=True,
            adc_energy_per_sample_j=10e-12, dac_energy_per_sample_j=5e-12,
        )
        photonic = one_layer(PhotonicCostModel(trident, batch=1))
        adc = one_layer(PhotonicCostModel(digital, batch=1))
        assert adc.energy_breakdown["conversion"] == pytest.approx(
            1600 * 10e-12 + 1600 * 5e-12
        )
        assert adc.energy_breakdown["memory"] > photonic.energy_breakdown["memory"]

    def test_rejects_bad_batch(self, trident):
        with pytest.raises(ConfigError):
            PhotonicCostModel(trident, batch=0)


class TestModelCost:
    def test_covers_all_compute_layers(self, resnet_cost):
        assert len(resnet_cost.layers) == 54

    def test_energy_is_sum_of_layers(self, resnet_cost):
        assert resnet_cost.energy_j == pytest.approx(
            sum(l.energy_j for l in resnet_cost.layers)
        )

    def test_effective_tops_below_peak(self, resnet_cost, trident):
        assert 0 < resnet_cost.effective_tops <= trident.peak_tops

    def test_resnet_effective_tops_near_peak(self, resnet_cost):
        # Dense convs keep banks nearly full: > 90 % of peak.
        assert resnet_cost.effective_tops > 7.0

    def test_energy_component_accessor(self, resnet_cost):
        total = sum(
            resnet_cost.energy_component(k)
            for k in ("tuning", "streaming", "hold", "conversion", "memory")
        )
        assert total == pytest.approx(resnet_cost.energy_j)

    def test_average_power_below_budget(self, resnet_cost):
        # Steady-state power must stay within the 30 W envelope.
        assert resnet_cost.average_power_w < 30.0

    def test_inferences_per_second(self, resnet_cost):
        assert resnet_cost.inferences_per_second == pytest.approx(1 / resnet_cost.time_s)

    def test_network_without_compute_rejected(self, trident):
        net = Network("empty", TensorShape(8, 8, 3))
        from repro.nn.layers import Pool

        net.add(Pool("p", kernel=2))
        with pytest.raises(ScheduleError):
            PhotonicCostModel(trident).model_cost(net)

    def test_more_pes_reduce_latency(self):
        net = build_model("resnet50")
        small = PhotonicArch.trident(TridentConfig(n_pes=11))
        big = PhotonicArch.trident(TridentConfig(n_pes=44))
        t_small = PhotonicCostModel(small, batch=128).model_cost(net).time_s
        t_big = PhotonicCostModel(big, batch=128).model_cost(net).time_s
        assert t_big < t_small

    def test_report_validation(self):
        with pytest.raises(ScheduleError):
            LayerCost(name="l", macs=1, time_s=-1.0, energy_j=0.0)
        zero = np.zeros(2, dtype=np.int64)
        with pytest.raises(ScheduleError, match="b: negative cost"):
            LayerColumns(
                names=("a", "b"), macs=zero, time_s=np.array([1.0, 1.0]),
                energy_j=np.array([0.0, -1.0]), breakdown={}, symbols=zero,
                tiles=zero, rounds=zero,
            )

    def test_records_built_once(self, resnet_cost):
        assert resnet_cost.layers is resnet_cost.layers


class TestMonotonicity:
    def test_energy_monotone_in_write_energy(self):
        from dataclasses import replace

        net = build_model("alexnet")
        base = PhotonicArch.trident()
        cheap = PhotonicCostModel(base, batch=8).model_cost(net).energy_j
        expensive_arch = replace(base, write_energy_per_cell_j=2e-9)
        expensive = PhotonicCostModel(expensive_arch, batch=8).model_cost(net).energy_j
        assert expensive > cheap

    def test_latency_monotone_in_symbol_rate(self):
        from dataclasses import replace

        net = build_model("alexnet")
        base = PhotonicArch.trident()
        fast = PhotonicCostModel(base, batch=8).model_cost(net).time_s
        slow_arch = replace(base, symbol_rate_hz=base.symbol_rate_hz / 2)
        slow = PhotonicCostModel(slow_arch, batch=8).model_cost(net).time_s
        assert slow > fast

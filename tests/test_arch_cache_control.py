"""Tests for the cache model and the control unit."""

import numpy as np
import pytest

from repro.arch.cache import CacheConfig, CacheModel
from repro.arch.control import (
    ControlUnit,
    OperatingMode,
    RangeNormalizer,
    table2_mapping,
)
from repro.errors import ConfigError, DeviceError
from tests.test_cost_model_oracle import access


def energy_per_byte(cm, tensor_bytes):
    """Access energy per byte of the level that serves one tensor."""
    energy, _ = cm.access_columns(np.array([tensor_bytes]), 1)
    return energy[0] / tensor_bytes


class TestCacheModel:
    def test_level_selection(self):
        cm = CacheModel()
        cfg = cm.config
        assert energy_per_byte(cm, 1024) == cfg.l1_energy_per_byte_j
        assert energy_per_byte(cm, 1024 * 1024) == cfg.l2_energy_per_byte_j
        assert energy_per_byte(cm, 64 * 1024 * 1024) == cfg.dram_energy_per_byte_j

    def test_level_boundaries_inclusive(self):
        cm = CacheModel()
        cfg = cm.config
        assert energy_per_byte(cm, cfg.l1_bytes) == cfg.l1_energy_per_byte_j
        assert energy_per_byte(cm, cfg.l1_bytes + 1) == cfg.l2_energy_per_byte_j
        assert energy_per_byte(cm, cfg.l2_bytes) == cfg.l2_energy_per_byte_j
        assert energy_per_byte(cm, cfg.l2_bytes + 1) == cfg.dram_energy_per_byte_j

    def test_energy_ordering(self):
        cm = CacheModel()
        assert (
            energy_per_byte(cm, 1024)
            < energy_per_byte(cm, 1024 * 1024)
            < energy_per_byte(cm, 64 * 1024 * 1024)
        )

    def test_access_cost_scales_with_times(self):
        cm = CacheModel()
        energy, _ = cm.access_columns(np.array([1000, 1000]), np.array([1, 3]))
        assert energy[1] == pytest.approx(3 * energy[0])

    def test_only_dram_costs_transfer_time(self):
        cm = CacheModel()
        sizes = np.array([1024 * 1024, 64 * 1024 * 1024])
        _, transfer = cm.access_columns(sizes, np.array([2, 1]))
        assert transfer[0] == 0.0
        assert transfer[1] > 0

    def test_transfer_time_matches_bandwidth(self):
        cm = CacheModel()
        size = 256 * 1024 * 1024
        _, transfer = cm.access_columns(np.array([size]), 1)
        assert transfer[0] == pytest.approx(
            size / cm.config.dram_bandwidth_bytes_per_s
        )

    def test_rejects_negative_inputs(self):
        cm = CacheModel()
        with pytest.raises(ConfigError):
            cm.access_columns(np.array([10, 10]), np.array([1, -1]))
        with pytest.raises(ConfigError):
            cm.access_columns(np.array([10, -1]), 1)

    @pytest.mark.parametrize(
        "config", [CacheConfig(), CacheConfig(l1_bytes=1000, l2_bytes=100)]
    )
    def test_access_columns_equal_access(self, config):
        """Every entry is the scalar cache path's float, across all three
        levels and their boundaries (also with an L1 larger than the L2)."""
        cm = CacheModel(config)
        edges = [config.l1_bytes, config.l2_bytes]
        sizes = np.array(
            [0, 50, 500, 5000] + [e + d for e in edges for d in (-1, 0, 1)]
            + [64 * 1024 * 1024], dtype=np.int64,
        )
        times = np.arange(sizes.size, dtype=np.int64) % 4
        for t in (times, 3):
            energy, transfer = cm.access_columns(sizes, t)
            for i, size in enumerate(sizes.tolist()):
                ref = access(cm, size, times=int(np.broadcast_to(t, sizes.shape)[i]))
                assert (energy[i], transfer[i]) == (ref.energy_j, ref.transfer_time_s)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            CacheConfig(l1_bytes=0)
        with pytest.raises(ConfigError):
            CacheConfig(dram_energy_per_byte_j=-1.0)

    def test_paper_capacities(self):
        cfg = CacheConfig()
        assert cfg.l1_bytes == 16 * 1024
        assert cfg.l2_bytes == 32 * 1024 * 1024


class TestTable2Mapping:
    def test_three_modes(self):
        mapping = table2_mapping()
        assert set(mapping) == set(OperatingMode)

    def test_inference_encoding(self):
        enc = table2_mapping()[OperatingMode.INFERENCE]
        assert enc["mrr_weight_bank"] == "W_k"
        assert enc["input_laser_sources"] == "x_k"

    def test_gradient_encoding_uses_transpose_and_derivative(self):
        enc = table2_mapping()[OperatingMode.GRADIENT_VECTOR]
        assert "W_{k+1}^T" in enc["mrr_weight_bank"]
        assert "f'(h_k)" in enc["tia_eo_lasers"]

    def test_outer_product_encoding(self):
        enc = table2_mapping()[OperatingMode.OUTER_PRODUCT]
        assert "y_{k-1}^T" in enc["mrr_weight_bank"]
        assert "delta_h_k" in enc["input_laser_sources"]


class TestControlUnit:
    def test_starts_in_inference(self):
        assert ControlUnit().mode is OperatingMode.INFERENCE

    def test_mode_switch_counted(self):
        cu = ControlUnit()
        assert cu.set_mode(OperatingMode.GRADIENT_VECTOR)
        assert cu.mode_switches == 1

    def test_no_op_switch_not_counted(self):
        cu = ControlUnit()
        assert not cu.set_mode(OperatingMode.INFERENCE)
        assert cu.mode_switches == 0

    def test_rejects_non_mode(self):
        with pytest.raises(DeviceError):
            ControlUnit().set_mode("inference")

    def test_encoding_for_current_mode(self):
        cu = ControlUnit()
        cu.set_mode(OperatingMode.OUTER_PRODUCT)
        assert cu.encoding_for()["mrr_weight_bank"] == "y_{k-1}^T"


class TestRangeNormalizer:
    def test_in_range_untouched(self):
        v = np.array([0.5, -0.25])
        norm = RangeNormalizer.normalize(v)
        assert norm.scale == 1.0
        assert np.array_equal(norm.values, v)

    def test_overrange_scaled_to_unit(self):
        v = np.array([4.0, -2.0])
        norm = RangeNormalizer.normalize(v)
        assert norm.scale == 4.0
        assert np.max(np.abs(norm.values)) == pytest.approx(1.0)

    def test_restore_inverts(self):
        v = np.array([3.0, -1.5, 0.75])
        norm = RangeNormalizer.normalize(v)
        assert np.allclose(norm.restore(norm.values), v)

    def test_restore_is_linear(self):
        norm = RangeNormalizer.normalize(np.array([2.0]))
        assert float(norm.restore(0.5)) == pytest.approx(1.0)

    def test_rejects_non_finite(self):
        with pytest.raises(DeviceError):
            RangeNormalizer.normalize(np.array([np.nan]))
        with pytest.raises(DeviceError):
            RangeNormalizer.normalize(np.array([np.inf]))

    def test_empty_vector(self):
        norm = RangeNormalizer.normalize(np.array([]))
        assert norm.scale == 1.0

    def test_clip(self):
        out = RangeNormalizer.clip(np.array([-2.0, 0.5, 2.0]))
        assert np.array_equal(out, [-1.0, 0.5, 1.0])

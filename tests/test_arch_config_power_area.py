"""Tests for TridentConfig, the power model (Table III), and area (Fig 5)."""

import pytest

from repro.arch.area import AreaModel, PEAreaBreakdown
from repro.arch.config import TridentConfig
from repro.arch.power import PEPowerBreakdown, PowerModel
from repro.baselines import photonic_baselines
from repro.devices.tuning import ThermalTuning
from repro.errors import ConfigError


class TestTridentConfig:
    def test_paper_geometry(self, config):
        assert config.n_pes == 44
        assert config.mrrs_per_pe == 256

    def test_pe_power_matches_table3_total(self, config):
        assert config.pe_total_power_w == pytest.approx(0.676, abs=0.001)

    def test_streaming_power_matches_paper_011w(self, config):
        # Sec. IV: "power draw is reduced by 83.34% from 0.67 W to 0.11 W".
        assert config.pe_streaming_power_w == pytest.approx(0.11, abs=0.005)

    def test_peak_tops_matches_paper(self, config):
        assert config.peak_tops == pytest.approx(7.8, rel=0.01)

    def test_tops_per_watt(self, config):
        # 7.8 / 30 = 0.26 (the paper's 0.29 is internally inconsistent).
        assert config.tops_per_watt == pytest.approx(0.26, abs=0.005)

    def test_44_pes_fit_30w(self, config):
        assert config.n_pes * config.pe_total_power_w <= config.power_budget_w

    def test_45_pes_would_not_fit(self, config):
        assert 45 * config.pe_total_power_w > config.power_budget_w

    def test_symbol_rate_below_max_clock(self, config):
        assert config.symbol_rate_hz < config.max_clock_hz

    def test_scaled_to_budget(self, config):
        small = config.scaled_to_budget(15.0)
        assert small.n_pes == 22
        assert small.power_budget_w == 15.0

    def test_scaled_to_budget_rejects_tiny(self, config):
        with pytest.raises(ConfigError):
            config.scaled_to_budget(0.1)

    def test_rejects_symbol_rate_above_clock(self):
        with pytest.raises(ConfigError):
            TridentConfig(symbol_rate_hz=2e9)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ConfigError):
            TridentConfig(n_pes=0)
        with pytest.raises(ConfigError):
            TridentConfig(bank_rows=0)

    def test_rejects_negative_power_component(self):
        with pytest.raises(ConfigError):
            TridentConfig(cache_power_w=-1.0)


class TestPowerBreakdown:
    def test_tuning_dominates_at_8334_pct(self, config):
        b = PEPowerBreakdown.from_config(config)
        assert b.dominant.name == "GST MRR Tuning"
        assert b.dominant.percentage == pytest.approx(83.34, abs=0.05)

    def test_all_table3_rows_present(self, config):
        b = PEPowerBreakdown.from_config(config)
        names = {c.name for c in b.components}
        assert names == {
            "LDSU", "E/O Laser", "GST MRR Tuning", "GST MRR Read",
            "GST Activation Function Reset", "BPD and TIA", "Cache",
        }

    def test_percentages_sum_to_100(self, config):
        b = PEPowerBreakdown.from_config(config)
        assert sum(c.percentage for c in b.components) == pytest.approx(100.0)

    def test_component_lookup(self, config):
        b = PEPowerBreakdown.from_config(config)
        assert b.component("Cache").power_w == pytest.approx(30e-3)
        with pytest.raises(KeyError):
            b.component("Flux Capacitor")

    def test_as_rows_includes_total(self, config):
        rows = PEPowerBreakdown.from_config(config).as_rows()
        assert rows[-1]["component"] == "Total"
        assert rows[-1]["percentage"] == 100.0


class TestPowerModel:
    def test_max_pes_is_44(self, config):
        assert PowerModel(config).max_pes_for_budget(30.0) == 44

    def test_chip_powers(self, config):
        pm = PowerModel(config)
        assert pm.chip_tuning_power_w == pytest.approx(44 * config.pe_total_power_w)
        assert pm.chip_streaming_power_w < pm.chip_tuning_power_w

    def test_post_tuning_drop_8334(self, config):
        assert PowerModel(config).post_tuning_drop_fraction == pytest.approx(0.8334, abs=0.0005)

    def test_fits_budget(self, config):
        assert PowerModel(config).fits_budget()

    def test_rejects_bad_budget(self, config):
        with pytest.raises(ConfigError):
            PowerModel(config).max_pes_for_budget(-5.0)


class TestPesForBudget:
    """One sizing rule behind Trident's config, its power model and the
    photonic baselines: a budget that is not finite and positive, or that
    cannot power one PE, raises ConfigError on every path."""

    @pytest.mark.parametrize("budget", [float("nan"), float("inf"), 0.1])
    def test_every_sizing_path_rejects_a_bad_budget(self, config, budget):
        for size in (
            config.scaled_to_budget,
            PowerModel(config).max_pes_for_budget,
            photonic_baselines,
        ):
            with pytest.raises(ConfigError):
                size(budget)

    def test_rejects_a_zero_power_pe(self):
        """Every Table III power may be zero; the rule must not divide by
        their sum."""
        zero = TridentConfig(**{
            name: 0.0 for name in (
                "ldsu_power_w", "eo_laser_power_w", "gst_tuning_power_w",
                "gst_read_power_w", "activation_reset_power_w", "bpd_tia_power_w",
                "cache_power_w",
            )
        })
        with pytest.raises(ConfigError, match="per-PE power"):
            PowerModel(zero).max_pes_for_budget()


class TestAreaModel:
    def test_chip_area_matches_paper(self, config):
        assert AreaModel(config).chip_area_mm2 == pytest.approx(604.6, abs=0.5)

    def test_under_one_square_inch(self, config):
        assert AreaModel(config).fits_one_square_inch

    def test_tia_dominates(self, config):
        b = PEAreaBreakdown.from_config(config)
        assert b.dominant.name == "TIA"
        assert b.dominant.fraction > 0.5

    def test_cache_macro_matches_quoted_footprint(self, config):
        b = PEAreaBreakdown.from_config(config)
        assert b.component("Cache").area_mm2 == pytest.approx(0.092 * 0.085)

    def test_fractions_sum_to_one(self, config):
        b = PEAreaBreakdown.from_config(config)
        assert sum(c.fraction for c in b.components) == pytest.approx(1.0)

    def test_rows_scale_with_pe_count(self, config):
        half = TridentConfig(n_pes=22)
        assert AreaModel(half).chip_area_mm2 == pytest.approx(
            AreaModel(config).chip_area_mm2 / 2
        )

    def test_unknown_component_rejected(self, config):
        with pytest.raises(KeyError):
            PEAreaBreakdown.from_config(config).component("Nonexistent")

    def test_as_rows_total(self, config):
        rows = AreaModel(config).as_rows()
        assert rows[-1]["component"] == "Total"
        assert rows[-1]["area_mm2"] == pytest.approx(604.6, abs=0.5)


class TestAlternativeTuning:
    def test_thermal_config_has_nonzero_hold(self):
        cfg = TridentConfig(tuning=ThermalTuning())
        assert cfg.tuning.hold_power_w > 0
        assert cfg.tuning.volatile

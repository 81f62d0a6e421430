"""Power model: regenerates Table III and performs the 30 W scaling.

Two jobs:

1. :class:`PEPowerBreakdown` — the component-by-component per-PE budget the
   paper tabulates (Table III), with percentages computed rather than quoted.
2. :class:`PowerModel` — chip-level queries the evaluation needs: how many
   PEs fit a budget, what the chip draws while tuning vs streaming, and the
   83.34 % post-tuning power drop the paper highlights.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import TridentConfig, pes_for_budget
from repro.errors import ConfigError


@dataclass(frozen=True)
class PowerComponent:
    """One row of the Table III breakdown."""

    name: str
    power_w: float
    fraction: float

    @property
    def percentage(self) -> float:
        """Share of the PE total, in percent."""
        return self.fraction * 100.0


@dataclass(frozen=True)
class PEPowerBreakdown:
    """Per-PE power decomposition (Table III)."""

    components: tuple[PowerComponent, ...]
    total_w: float

    @classmethod
    def from_config(cls, config: TridentConfig) -> "PEPowerBreakdown":
        raw = [
            ("LDSU", config.ldsu_power_w),
            ("E/O Laser", config.eo_laser_power_w),
            ("GST MRR Tuning", config.gst_tuning_power_w),
            ("GST MRR Read", config.gst_read_power_w),
            ("GST Activation Function Reset", config.activation_reset_power_w),
            ("BPD and TIA", config.bpd_tia_power_w),
            ("Cache", config.cache_power_w),
        ]
        total = sum(p for _, p in raw)
        if total <= 0:
            raise ConfigError("PE power total must be positive")
        components = tuple(
            PowerComponent(name=name, power_w=p, fraction=p / total) for name, p in raw
        )
        return cls(components=components, total_w=total)

    def component(self, name: str) -> PowerComponent:
        """Look a row up by its Table III name."""
        for comp in self.components:
            if comp.name == name:
                return comp
        raise KeyError(f"no power component named {name!r}")

    @property
    def dominant(self) -> PowerComponent:
        """The largest consumer (the paper's point: GST MRR tuning)."""
        return max(self.components, key=lambda c: c.power_w)

    def as_rows(self) -> list[dict[str, object]]:
        """Table III as data rows (for rendering / comparison)."""
        rows: list[dict[str, object]] = [
            {
                "component": c.name,
                "power_w": c.power_w,
                "percentage": c.percentage,
            }
            for c in self.components
        ]
        rows.append({"component": "Total", "power_w": self.total_w, "percentage": 100.0})
        return rows


@dataclass(frozen=True)
class PowerModel:
    """Chip-level power queries for a Trident configuration."""

    config: TridentConfig

    @property
    def breakdown(self) -> PEPowerBreakdown:
        """Per-PE Table III breakdown."""
        return PEPowerBreakdown.from_config(self.config)

    @property
    def chip_tuning_power_w(self) -> float:
        """Whole-chip draw while every PE is programming weights [W]."""
        return self.config.pe_total_power_w * self.config.n_pes

    @property
    def chip_streaming_power_w(self) -> float:
        """Whole-chip draw once weights are held non-volatilely [W]."""
        return self.config.pe_streaming_power_w * self.config.n_pes

    @property
    def post_tuning_drop_fraction(self) -> float:
        """Fractional power drop after tuning (paper: 83.34 %, 0.67->0.11 W)."""
        return self.config.gst_tuning_power_w / self.config.pe_total_power_w

    def max_pes_for_budget(self, budget_w: float | None = None) -> int:
        """PE count that fits the budget with tuning power active.

        The paper sizes the chip by the *worst-case* (tuning) power so the
        30 W cap is never violated; that yields the 44-PE configuration.
        """
        budget = self.config.power_budget_w if budget_w is None else budget_w
        return pes_for_budget(self.config.pe_total_power_w, budget)

    def fits_budget(self) -> bool:
        """Whether the configured PE count respects the power budget."""
        return self.chip_tuning_power_w <= self.config.power_budget_w + 1e-9

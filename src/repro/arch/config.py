"""Architectural configuration for Trident.

Every number the paper commits to lives here, with its provenance:

- 44 PEs, 256 MRRs each (16 x 16 weight bank), within a 30 W budget
  (Sec. IV: "a maximum of 44 PEs can be utilized, each with 256 MRRs").
- Table III per-PE power components summing to ~0.67 W.
- 1.37 GHz maximum clock (Sec. IV).
- 16 kB L1 cache per PE, 32 MB shared L2 (Sec. IV): sized by
  :class:`~repro.arch.cache.CacheConfig`, not here.
- 604.6 mm^2 total area for 44 PEs (Sec. IV).

Calibrated parameter
--------------------
``symbol_rate_hz``: the paper reports 7.8 TOPS for the 44-PE configuration.
44 PEs x 256 MACs x 2 ops = 22 528 ops/symbol, so 7.8 TOPS implies an
effective analog symbol rate of 7.8e12 / 22528 = 346 MHz — well under the
1.37 GHz peak clock, reflecting E/O conversion and control overheads the
paper folds into its TOPS figure.  We expose it explicitly instead of hiding
the derate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.constants import GHZ, MHZ, MW
from repro.devices.tuning import GSTTuning, TuningModel
from repro.errors import ConfigError, require_finite_fields


@dataclass(frozen=True)
class TridentConfig:
    """Full architectural parameter set for a Trident instance."""

    # --- geometry ------------------------------------------------------
    n_pes: int = 44
    bank_rows: int = 16  # J: rows -> one BPD/TIA/LDSU/activation per row
    bank_cols: int = 16  # N: columns -> one WDM wavelength per column
    #: Spare ring rows per bank beyond the logical J rows (fault repair
    #: headroom; the paper's 256-MRR geometry is spare_rows=0).
    spare_rows: int = 0
    #: Program-verify convergence floor below which a bank write emits a
    #: :class:`~repro.errors.WriteConvergenceWarning`.
    convergence_floor: float = 0.9

    # --- timing --------------------------------------------------------
    max_clock_hz: float = 1.37 * GHZ
    #: Effective analog symbol (vector) rate [Hz] — calibrated, see module
    #: docstring.  One symbol = one full bank matrix-vector product.
    symbol_rate_hz: float = 346.0 * MHZ

    # --- tuning technology ----------------------------------------------
    tuning: TuningModel = field(default_factory=GSTTuning)

    # --- per-PE power components (Table III) ----------------------------
    ldsu_power_w: float = 0.09 * MW
    eo_laser_power_w: float = 0.032 * MW
    gst_tuning_power_w: float = 563.2 * MW
    gst_read_power_w: float = 17.1 * MW
    activation_reset_power_w: float = 53.3 * MW
    bpd_tia_power_w: float = 12.1 * MW
    cache_power_w: float = 30.0 * MW

    # --- system budget ---------------------------------------------------
    power_budget_w: float = 30.0

    # --- numerics ----------------------------------------------------------
    weight_bits: int = 8  # GST: 255 levels

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.n_pes < 1:
            raise ConfigError(f"n_pes must be positive, got {self.n_pes}")
        if self.bank_rows < 1 or self.bank_cols < 1:
            raise ConfigError("bank dimensions must be positive")
        if self.spare_rows < 0:
            raise ConfigError(f"spare_rows must be non-negative, got {self.spare_rows}")
        if not 0.0 <= self.convergence_floor <= 1.0:
            raise ConfigError(
                f"convergence_floor must lie in [0, 1], got {self.convergence_floor}"
            )
        if self.symbol_rate_hz <= 0 or self.max_clock_hz <= 0:
            raise ConfigError("rates must be positive")
        if self.symbol_rate_hz > self.max_clock_hz:
            raise ConfigError(
                f"symbol rate {self.symbol_rate_hz:.3g} Hz exceeds the "
                f"maximum clock {self.max_clock_hz:.3g} Hz"
            )
        if self.power_budget_w <= 0:
            raise ConfigError("power budget must be positive")
        for name in (
            "ldsu_power_w",
            "eo_laser_power_w",
            "gst_tuning_power_w",
            "gst_read_power_w",
            "activation_reset_power_w",
            "bpd_tia_power_w",
            "cache_power_w",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.weight_bits < 1:
            raise ConfigError("weight_bits must be positive")

    # ------------------------------------------------------------------
    @property
    def mrrs_per_pe(self) -> int:
        """Weight-bank MRR count per PE (paper: 256)."""
        return self.bank_rows * self.bank_cols

    @property
    def pe_total_power_w(self) -> float:
        """Per-PE power with tuning active (Table III total, ~0.67 W)."""
        return (
            self.ldsu_power_w
            + self.eo_laser_power_w
            + self.gst_tuning_power_w
            + self.gst_read_power_w
            + self.activation_reset_power_w
            + self.bpd_tia_power_w
            + self.cache_power_w
        )

    @property
    def pe_streaming_power_w(self) -> float:
        """Per-PE power once weights are tuned (paper: ~0.11 W).

        The non-volatile GST holds the weights for free, so the tuning
        component drops out entirely.
        """
        return self.pe_total_power_w - self.gst_tuning_power_w

    @property
    def macs_per_symbol(self) -> int:
        """MAC operations completed per analog symbol across the chip."""
        return self.n_pes * self.mrrs_per_pe

    @property
    def peak_tops(self) -> float:
        """Peak throughput [tera-ops/s], 2 ops per MAC."""
        return self.macs_per_symbol * 2.0 * self.symbol_rate_hz / 1e12

    @property
    def tops_per_watt(self) -> float:
        """Energy efficiency at the configured power budget."""
        return self.peak_tops / self.power_budget_w

    def scaled_to_budget(self, budget_w: float) -> "TridentConfig":
        """New config with as many PEs as the given budget allows."""
        return replace(
            self, n_pes=pes_for_budget(self.pe_total_power_w, budget_w),
            power_budget_w=budget_w,
        )


def pes_for_budget(per_pe_power_w: float, budget_w: float) -> int:
    """How many PEs drawing ``per_pe_power_w`` each fit ``budget_w``.

    The one sizing rule behind the paper's 30 W scaling (Sec. IV): Trident's
    config, its power model and the photonic baselines all size through it.
    Raises :class:`ConfigError` unless the budget is finite and positive,
    the per-PE power is positive and the budget powers at least one PE.
    """
    if not (math.isfinite(budget_w) and budget_w > 0):
        raise ConfigError(f"budget must be finite and positive, got {budget_w}")
    if not per_pe_power_w > 0:
        raise ConfigError(f"per-PE power must be positive, got {per_pe_power_w}")
    n = int(budget_w // per_pe_power_w)
    if n < 1:
        raise ConfigError(
            f"budget {budget_w} W cannot power a single {per_pe_power_w:.3f} W PE"
        )
    return n

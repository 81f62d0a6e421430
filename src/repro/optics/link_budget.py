"""Optical link-budget and scaling analysis for PCM-MRR weight banks.

How big can a bank be?  Broadcasting one laser comb to J rows splits power
J ways; every extra column adds a channel but also shot noise; the detector
needs enough SNR to resolve the output at the target bit precision
(SNR >= 6.02 b + 1.76 dB).  This module computes the loss waterfall and
answers the sizing questions — the physical rationale for the paper's
16 x 16 bank at ~1 mW per channel.

All quantities derive from the same device models the simulators use
(ring calibration, detector, bus); nothing here is fitted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.constants import BOLTZMANN, ELEMENTARY_CHARGE, MW, ROOM_TEMPERATURE
from repro.devices.mrr import AddDropMRR
from repro.devices.pcm_mrr import WeightCalibration, build_calibration
from repro.devices.photodetector import Photodetector
from repro.devices.waveguide import WDMBus, WDMChannelPlan
from repro.errors import ConfigError


@dataclass(frozen=True)
class LinkBudgetReport:
    """Loss waterfall + SNR summary for one bank configuration."""

    rows: int
    cols: int
    channel_power_w: float
    power_at_bank_w: float
    full_scale_current_a: float
    shot_noise_a: float
    thermal_noise_a: float
    snr_db: float
    achievable_bits: int
    waterfall_db: tuple[tuple[str, float], ...]

    def supports(self, bits: int) -> bool:
        """Whether this link resolves the requested precision."""
        return self.achievable_bits >= bits


@dataclass
class LinkBudget:
    """Analytical link budget for a broadcast-and-weight bank."""

    detector: Photodetector = field(default_factory=Photodetector)
    reference_ring: AddDropMRR = field(default_factory=AddDropMRR)
    calibration: WeightCalibration | None = None
    modulator_transmission: float = 0.89
    splitter_excess: float = 0.9
    bus_transmission: float | None = None

    def __post_init__(self) -> None:
        if self.calibration is None:
            self.calibration = build_calibration(self.reference_ring)
        if self.bus_transmission is None:
            self.bus_transmission = WDMBus(WDMChannelPlan(1)).transmission
        if not 0 < self.modulator_transmission <= 1:
            raise ConfigError("modulator transmission must be in (0, 1]")
        if not 0 < self.splitter_excess <= 1:
            raise ConfigError("splitter excess must be in (0, 1]")
        if not 0 < self.bus_transmission <= 1:
            raise ConfigError("bus transmission must be in (0, 1]")

    # ------------------------------------------------------------------
    def power_at_bank_w(self, channel_power_w: float, rows: int) -> float:
        """Per-channel power reaching one row's rings [W]."""
        if not 0 < channel_power_w < math.inf:
            raise ConfigError(
                f"channel power must be positive and finite, got {channel_power_w}"
            )
        if rows < 1:
            raise ConfigError("rows must be positive")
        return (
            channel_power_w
            * self.modulator_transmission
            * self.bus_transmission
            * self.splitter_excess
            / rows
        )

    def _noise_currents(self, p_bank_w: float, cols: int) -> tuple[float, float]:
        """(shot, thermal) current std [A] at full-scale illumination."""
        r = self.detector.responsivity_a_per_w
        # Worst case: every channel at full power; both diodes loaded at
        # roughly half the total (balanced operating point).
        total_power = cols * p_bank_w
        shot = math.sqrt(
            2.0 * ELEMENTARY_CHARGE * r * total_power * self.detector.bandwidth_hz
        )
        thermal = math.sqrt(
            4.0
            * BOLTZMANN
            * ROOM_TEMPERATURE
            * self.detector.bandwidth_hz
            / self.detector.load_ohms
        )
        return shot, thermal

    # ------------------------------------------------------------------
    def report(
        self, rows: int = 16, cols: int = 16, channel_power_w: float = 1.0 * MW
    ) -> LinkBudgetReport:
        """Full waterfall + SNR for a bank configuration."""
        if cols < 1:
            raise ConfigError("cols must be positive")
        p_bank = self.power_at_bank_w(channel_power_w, rows)
        r = self.detector.responsivity_a_per_w
        full_scale = cols * r * p_bank * self.calibration.d_sym
        shot, thermal = self._noise_currents(p_bank, cols)
        noise = math.hypot(shot, thermal)
        snr_db = 20.0 * math.log10(full_scale / noise)
        bits = max(0, int(math.floor((snr_db - 1.76) / 6.02)))
        waterfall = (
            ("laser (per channel)", 0.0),
            ("modulator", -10 * math.log10(self.modulator_transmission)),
            ("bus", -10 * math.log10(self.bus_transmission)),
            (f"1:{rows} splitter", 10 * math.log10(rows)),
            ("splitter excess", -10 * math.log10(self.splitter_excess)),
        )
        return LinkBudgetReport(
            rows=rows,
            cols=cols,
            channel_power_w=channel_power_w,
            power_at_bank_w=p_bank,
            full_scale_current_a=full_scale,
            shot_noise_a=shot,
            thermal_noise_a=thermal,
            snr_db=snr_db,
            achievable_bits=bits,
            waterfall_db=waterfall,
        )

    def snr_db(self, rows: int, cols: int, channel_power_w: float = 1.0 * MW) -> float:
        """Full-scale output SNR [dB]."""
        return self.report(rows, cols, channel_power_w).snr_db

    def achievable_bits(
        self, rows: int, cols: int, channel_power_w: float = 1.0 * MW
    ) -> int:
        """Output precision the link supports (6.02 b + 1.76 dB rule)."""
        return self.report(rows, cols, channel_power_w).achievable_bits

    def max_rows(
        self, cols: int, bits: int, channel_power_w: float = 1.0 * MW, cap: int = 4096
    ) -> int:
        """Largest row count (splitter fan-out) that still resolves ``bits``.

        SNR decreases monotonically with rows, so binary search applies.
        Returns 0 if even one row fails.
        """
        if bits < 1:
            raise ConfigError("bits must be positive")
        if self.achievable_bits(1, cols, channel_power_w) < bits:
            return 0
        lo, hi = 1, cap
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if self.achievable_bits(mid, cols, channel_power_w) >= bits:
                lo = mid
            else:
                hi = mid - 1
        return lo

    def required_channel_power_w(self, rows: int, cols: int, bits: int) -> float:
        """Minimum per-channel laser power for the target precision [W].

        Closed form is awkward (shot noise scales with sqrt(P)); bisect on
        a generous power range instead.
        """
        if bits < 1:
            raise ConfigError("bits must be positive")
        lo, hi = 1e-9, 10.0
        if self.achievable_bits(rows, cols, hi) < bits:
            raise ConfigError(
                f"{bits} bits unreachable at {rows}x{cols} even at {hi} W/channel"
            )
        for _ in range(80):
            mid = math.sqrt(lo * hi)
            if self.achievable_bits(rows, cols, mid) >= bits:
                hi = mid
            else:
                lo = mid
        return hi

    def scaling_table(
        self,
        row_counts: tuple[int, ...] = (1, 4, 8, 16, 32, 64, 128),
        cols: int = 16,
        channel_power_w: float = 1.0 * MW,
    ) -> list[dict[str, float]]:
        """Fan-out sweep: SNR and achievable bits vs row count.

        Columns held fixed; every doubling of rows halves the per-row
        optical power (1:J splitter), costing ~1.5 dB of shot-limited SNR
        (3 dB once thermal noise dominates).  Note that *square* scaling is
        SNR-neutral in the shot-limited regime: total detected power
        cols x P/rows is constant — which is why column count is bounded by
        the WDM span and crosstalk, not by the power budget.
        """
        rows = []
        for n in row_counts:
            rep = self.report(n, cols, channel_power_w)
            rows.append(
                {
                    "rows": n,
                    "snr_db": rep.snr_db,
                    "achievable_bits": rep.achievable_bits,
                    "power_at_bank_uw": rep.power_at_bank_w * 1e6,
                }
            )
        return rows

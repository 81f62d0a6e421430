"""PIXEL baseline (Shiflett et al., ref [30]) — the 8-bit OO MAC variant.

Mixed-signal photonic accelerator built from MRR bitwise logic plus
Mach-Zehnder-modulator (MZM) analog accumulation:

- **MZM accumulation** — MZMs are large and power-hungry (the paper:
  "PIXEL uses power-hungry MZMs", Sec. V-A); they add standing power to the
  PE (fewer PEs at 30 W) and per-symbol switching energy.
- **Thermally tuned** weight rings (Table I thermal parameters).
- **Digital activation** through ADCs.
- The optical-optical (OO) MAC's bit-level operation caps the effective
  vector symbol rate.
"""

from __future__ import annotations

from repro.arch.config import pes_for_budget
from repro.baselines.base import (
    SHARED_STREAMING_POWER_W,
    baseline_sizing_power,
    POWER_BUDGET_W,
)
from repro.baselines.deap_cnn import ADC_ENERGY_J, CONVERSION_BLOCK_W, DAC_ENERGY_J
from repro.constants import MHZ, MW
from repro.dataflow.cost_model import PhotonicArch
from repro.devices.tuning import ThermalTuning

#: MZM accumulation bank standing power (16 rows) [W].
MZM_BLOCK_W = 320.0 * MW

#: Average per-symbol switching energy of the MZM stage [J].  Calibrated to
#: the paper's average 43.4 % Trident energy advantage (Fig 4).
MZM_SYMBOL_ENERGY_J = 100.837e-12

#: Effective vector symbol rate of the 8-bit OO MAC [Hz].  Calibrated to the
#: paper's average +143.6 % Trident throughput advantage (Fig 6).
SYMBOL_RATE_HZ = 206.07 * MHZ


def pixel_arch(budget_w: float = POWER_BUDGET_W) -> PhotonicArch:
    """PIXEL (OO MAC) scaled to the power budget."""
    tuning = ThermalTuning()
    sizing = baseline_sizing_power(CONVERSION_BLOCK_W + MZM_BLOCK_W)
    return PhotonicArch(
        name="pixel",
        n_pes=pes_for_budget(sizing, budget_w),
        symbol_rate_hz=SYMBOL_RATE_HZ,
        write_energy_per_cell_j=tuning.write_energy_j,
        write_time_s=tuning.write_time_s,
        streaming_power_pe_w=SHARED_STREAMING_POWER_W,
        sizing_power_pe_w=sizing,
        hold_power_per_cell_w=tuning.hold_power_w,
        digital_activation=True,
        adc_energy_per_sample_j=ADC_ENERGY_J,
        dac_energy_per_sample_j=DAC_ENERGY_J,
        extra_symbol_energy_j=MZM_SYMBOL_ENERGY_J,
        weight_bits=8,
    )

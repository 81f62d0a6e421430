"""CrossLight baseline (Sunny et al., ref [31]).

Cross-layer optimized photonic accelerator:

- **Hybrid thermo/electro-optic tuning** — faster and slightly cheaper per
  event than pure thermal, but still volatile and crosstalk-limited.
- **VCSEL + MRR summation stage** — CrossLight performs partial-sum
  aggregation with an extra VCSEL and summation ring per row, which costs
  both standing power (PE sizing) and per-symbol energy, and drags the
  symbol rate down (the paper: "CrossLight uses an additional VCSEL and MRR
  for summation", Sec. V-A).
- **Digital activation** through ADCs, like DEAP-CNN.
"""

from __future__ import annotations

from repro.arch.config import pes_for_budget
from repro.baselines.base import (
    baseline_sizing_power,
    POWER_BUDGET_W,
)
from repro.baselines.deap_cnn import ADC_ENERGY_J, CONVERSION_BLOCK_W, DAC_ENERGY_J
from repro.constants import MHZ, MW, NJ, US
from repro.dataflow.cost_model import PhotonicArch

#: VCSEL + summation-MRR bank standing power (16 rows) [W].
VCSEL_BLOCK_W = 160.0 * MW

#: Symbol rate limited by the VCSEL modulation + summation chain [Hz].
#: Calibrated to the paper's average +150.2 % throughput advantage (Fig 6).
SYMBOL_RATE_HZ = 169.30 * MHZ

#: CrossLight's cross-layer optimization trims the receiver chain; its
#: per-PE streaming power is slightly below the shared Table III stack.
#: Calibrated to the paper's average 43.5 % energy advantage (Fig 4).
STREAMING_POWER_W = 66.877 * MW

#: Hybrid tuning: between electro-optic (fast, weak) and thermal.
WRITE_ENERGY_J = 0.8 * NJ
WRITE_TIME_S = 0.5 * US
HOLD_POWER_PER_CELL_W = 1.2 * MW
WEIGHT_BITS = 7


def crosslight_arch(budget_w: float = POWER_BUDGET_W) -> PhotonicArch:
    """CrossLight scaled to the power budget."""
    sizing = baseline_sizing_power(CONVERSION_BLOCK_W + VCSEL_BLOCK_W)
    return PhotonicArch(
        name="crosslight",
        n_pes=pes_for_budget(sizing, budget_w),
        symbol_rate_hz=SYMBOL_RATE_HZ,
        write_energy_per_cell_j=WRITE_ENERGY_J,
        write_time_s=WRITE_TIME_S,
        streaming_power_pe_w=STREAMING_POWER_W,
        sizing_power_pe_w=sizing,
        hold_power_per_cell_w=HOLD_POWER_PER_CELL_W,
        digital_activation=True,
        adc_energy_per_sample_j=ADC_ENERGY_J,
        dac_energy_per_sample_j=DAC_ENERGY_J,
        weight_bits=WEIGHT_BITS,
    )

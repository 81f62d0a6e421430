"""Shared methodology for the photonic baselines.

The paper's comparison rule (Sec. IV): "We apply the same device parameters
in Table III to DEAP-CNN, CrossLight, PIXEL, and Trident and scale all four
architectures to meet a 30 W power consumption threshold."

Concretely, every photonic PE shares the Table III common components
(GST/input read 17.1 mW, BPD+TIA 12.1 mW, cache 30 mW, E/O lasers 0.512 mW)
and the worst-case tuning slot (563.2 mW); architectures then differ by

- what replaces Trident's LDSU + photonic-activation-reset (53.39 mW):
  the baselines spend power on ADC/DAC conversion and digital activation,
- extra analog machinery (CrossLight's VCSEL summation, PIXEL's MZMs),
- tuning technology (write energy/time, volatility, bit resolution),
- and the achievable symbol rate (ADC sampling and modulator limits).

Because each baseline's PE draws more than Trident's 0.676 W, fewer PEs fit
the 30 W budget — the scaling advantage the paper credits to GST
(Sec. V-A: "the more energy efficient tuning method allows Trident to scale
to more PEs").

Calibration note: symbol rates and per-symbol extras below are calibrated
so that the *relative* energy/latency results land near the paper's
averages (the paper does not publish its baseline re-implementation
parameters); EXPERIMENTS.md records measured vs paper for every figure.
"""

from __future__ import annotations

from repro.arch.config import TridentConfig
from repro.dataflow.cost_model import PhotonicArch

#: The paper's edge power threshold [W].
POWER_BUDGET_W = 30.0

_cfg = TridentConfig()

#: Table III components every photonic PE shares while streaming [W]:
#: input/read stage + BPD/TIA + cache + E/O lasers.
SHARED_STREAMING_POWER_W = (
    _cfg.gst_read_power_w + _cfg.bpd_tia_power_w + _cfg.cache_power_w + _cfg.eo_laser_power_w
)

#: Worst-case weight-bank tuning power slot shared by all architectures [W]
#: (Table III: 563.2 mW for 256 cells).
TUNING_SLOT_POWER_W = _cfg.gst_tuning_power_w

#: Trident's LDSU + activation-reset block [W] — what the baselines replace
#: with conversion hardware.
TRIDENT_ACTIVATION_BLOCK_W = (
    _cfg.ldsu_power_w + _cfg.activation_reset_power_w
)


def baseline_sizing_power(extra_blocks_w: float) -> float:
    """Per-PE worst-case power of a baseline with the given extras [W]."""
    if extra_blocks_w < 0:
        raise ValueError(f"extras must be non-negative, got {extra_blocks_w}")
    return SHARED_STREAMING_POWER_W + TUNING_SLOT_POWER_W + extra_blocks_w


def photonic_baselines(budget_w: float = POWER_BUDGET_W) -> list[PhotonicArch]:
    """All four photonic architectures, scaled to the budget, in the
    paper's presentation order (Trident, DEAP-CNN, CrossLight, PIXEL)."""
    from repro.baselines.crosslight import crosslight_arch
    from repro.baselines.deap_cnn import deap_cnn_arch
    from repro.baselines.pixel import pixel_arch

    trident = PhotonicArch.trident(TridentConfig().scaled_to_budget(budget_w))
    return [
        trident,
        deap_cnn_arch(budget_w),
        crosslight_arch(budget_w),
        pixel_arch(budget_w),
    ]

"""Maestro-style analytical dataflow cost model (weight-stationary).

The paper performs "a per-layer analysis using Maestro to yield latency and
energy metrics" (Sec. IV).  This package is that analysis, rebuilt:

- :mod:`repro.dataflow.tiling` — how a layer's GEMM tiles onto J x N
  photonic weight banks across P PEs.
- :mod:`repro.dataflow.cost_model` — per-layer latency/energy roll-up for
  photonic architectures (Trident and the photonic baselines are parameter
  points of the same model).
- :mod:`repro.dataflow.roofline` — the electronic edge-accelerator model
  (compute-bound vs bandwidth-bound per layer).
- :mod:`repro.dataflow.report` — cost records and aggregation.
"""

from repro.dataflow.cost_model import (
    PhotonicArch,
    PhotonicCostModel,
    forward_batch_latency_s,
)
from repro.dataflow.power_trace import PowerTrace, power_trace
from repro.dataflow.report import LayerCost, ModelCost
from repro.dataflow.schedule_sim import (
    LayerSimResult,
    ModelSimResult,
    simulate_layer,
    simulate_model,
)
from repro.dataflow.roofline import ElectronicAccelerator
from repro.dataflow.tiling import TileSchedule

__all__ = [
    "ElectronicAccelerator",
    "LayerSimResult",
    "ModelSimResult",
    "simulate_layer",
    "simulate_model",
    "forward_batch_latency_s",
    "LayerCost",
    "ModelCost",
    "PhotonicArch",
    "PhotonicCostModel",
    "power_trace",
    "PowerTrace",
    "TileSchedule",
]

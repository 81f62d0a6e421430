"""Electronic edge-accelerator roofline model.

The paper compares Trident against three commercial edge SoCs via their
spec-sheet numbers (Table IV) and published benchmark behaviour.  This
module models each as a per-layer roofline: a layer takes the larger of its
compute time (at the device's sustained fraction of peak TOPS) and its
memory time (activation + weight traffic over the external bandwidth).

The roofline reproduces the qualitative behaviour the paper leans on: dense
convolutions (GoogleNet, VGG) run near the compute roof, while depthwise
layers (MobileNetV2) are bandwidth-bound — which is why Xavier's GoogleNet
throughput is disproportionately good and why Trident's advantage is widest
on memory-heavy models.

``compute_utilization`` is the sustained/peak ratio; edge NPUs typically
sustain 15-40 % of peak on real CNNs (Seshadri et al., the paper's ref
[29]).  Values here are calibrated against published per-model fps numbers;
EXPERIMENTS.md records the resulting paper-vs-measured deltas.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataflow.report import LayerColumns, ModelCost, NetworkStack
from repro.errors import ConfigError, require_finite_fields
from repro.nn.graph import Network


@dataclass(frozen=True)
class ElectronicAccelerator:
    """Spec-sheet + roofline model of an edge AI accelerator."""

    name: str
    peak_tops: float
    power_w: float
    dram_bandwidth_bytes_per_s: float
    compute_utilization: float
    can_train: bool
    #: Average energy per int8 op [J] at the device's TOPS/W rating.
    energy_per_op_j: float = 0.0
    #: Forward : (forward+backward+update) op ratio used for the paper's
    #: "estimate training throughput from inference throughput" method.
    training_expansion: float = 3.0

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.peak_tops <= 0 or self.power_w <= 0:
            raise ConfigError(f"{self.name}: peak TOPS and power must be positive")
        if not 0.0 < self.compute_utilization <= 1.0:
            raise ConfigError(
                f"{self.name}: utilization must be in (0, 1], "
                f"got {self.compute_utilization}"
            )
        if self.dram_bandwidth_bytes_per_s <= 0:
            raise ConfigError(f"{self.name}: bandwidth must be positive")
        if self.energy_per_op_j < 0:
            raise ConfigError(f"{self.name}: energy per op must be non-negative")
        if self.training_expansion < 1.0:
            raise ConfigError(f"{self.name}: training expansion must be >= 1")

    # ------------------------------------------------------------------
    @property
    def tops_per_watt(self) -> float:
        """Table IV's efficiency metric (peak TOPS / board power)."""
        return self.peak_tops / self.power_w

    @property
    def sustained_ops_per_s(self) -> float:
        """Sustained op rate: peak x utilization [ops/s]."""
        return self.peak_tops * 1e12 * self.compute_utilization

    def _effective_energy_per_op(self) -> float:
        if self.energy_per_op_j > 0:
            return self.energy_per_op_j
        # Default: the board's power spread over its sustained op rate.
        return self.power_w / self.sustained_ops_per_s

    # ------------------------------------------------------------------
    def model_costs(self, stack: NetworkStack, batch: int = 1) -> dict[str, ModelCost]:
        """Per-inference latency/energy of every network in the stack, by
        the stack's keys: one array pass over the stacked compute layers,
        each network's :class:`ModelCost` holding its own rows."""
        if batch < 1:
            raise ConfigError(f"batch must be positive, got {batch}")
        table = stack.table
        ops = 2 * table.macs
        compute_time = ops / self.sustained_ops_per_s
        # int8 traffic: read inputs + write outputs each inference,
        # stream weights once per batch.
        traffic_bytes = table.input_elements + table.output_elements + table.params / batch
        memory_time = traffic_bytes / self.dram_bandwidth_bytes_per_s
        energy = ops * self._effective_energy_per_op()
        unused = np.zeros(len(table.names), dtype=np.int64)
        return stack.split(
            self.name,
            LayerColumns(
                names=table.names,
                macs=table.macs,
                time_s=np.where(memory_time > compute_time, memory_time, compute_time),
                energy_j=energy,
                breakdown={"compute": energy},
                symbols=unused,
                tiles=unused,
                rounds=unused,
            ),
        )

    def model_cost(self, network: Network, batch: int = 1) -> ModelCost:
        """:meth:`model_costs` of the one network."""
        (cost,) = self.model_costs(NetworkStack.of(network), batch).values()
        return cost

    def training_time_s(self, network: Network, n_samples: int, batch: int = 32) -> float:
        """Time to train ``n_samples`` images, via the paper's method:
        training throughput = inference throughput / training expansion."""
        if not self.can_train:
            raise ConfigError(f"{self.name} cannot train (inference-only device)")
        if n_samples < 1:
            raise ConfigError("n_samples must be positive")
        inference = self.model_cost(network, batch=batch)
        return n_samples * inference.time_s * self.training_expansion

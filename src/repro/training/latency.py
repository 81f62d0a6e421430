"""Analytical training-time model — regenerates Table V.

One backprop step on Trident is three GEMM passes plus a weight update, all
expressible on the same weight-stationary hardware (paper Table II):

- **forward**      (M x K) @ (K x N*B)   — inference at training batch B
- **gradient**     (K x M) @ (M x N*B)   — banks hold W^T (Eq. 3)
- **weight grad**  (M x N*B) @ (N*B x K) — the outer-product mode (Eq. 2);
  the reduction now runs over batch x positions, so banks are reprogrammed
  every 16 reduction elements — this pass is where Trident's retuning
  overhead lives, and why models with many small layers (GoogleNet) train
  relatively worse than Xavier while large-tile models (VGG-16) train much
  better: exactly Table V's sign pattern.
- **update**       every weight cell rewritten once per batch (Eq. 1).

The NVIDIA AGX Xavier comparison uses the paper's own method: "We use the
throughput during inference of these models to estimate throughput during
training" — a fixed forward : training op expansion over the roofline
inference time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.cache import CacheModel
from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
from repro.dataflow.report import NetworkStack
from repro.errors import ConfigError, ScheduleError
from repro.nn.graph import Network


@dataclass(frozen=True)
class TrainingPassCosts:
    """Per-sample time [s] and energy [J] of each training pass."""

    model: str
    accelerator: str
    forward_time_s: float
    gradient_time_s: float
    outer_time_s: float
    update_time_s: float
    forward_energy_j: float
    gradient_energy_j: float
    outer_energy_j: float
    update_energy_j: float

    @property
    def time_s(self) -> float:
        """Per-sample training step time [s]."""
        return (
            self.forward_time_s
            + self.gradient_time_s
            + self.outer_time_s
            + self.update_time_s
        )

    @property
    def energy_j(self) -> float:
        """Per-sample training step energy [J]."""
        return (
            self.forward_energy_j
            + self.gradient_energy_j
            + self.outer_energy_j
            + self.update_energy_j
        )

    @property
    def expansion_over_inference(self) -> float:
        """Training-step : forward-pass time ratio."""
        if self.forward_time_s <= 0:
            raise ScheduleError("non-positive forward time")
        return self.time_s / self.forward_time_s


class TrainingCostModel:
    """Trident training-latency/energy analysis."""

    def __init__(
        self,
        arch: PhotonicArch | None = None,
        cache: CacheModel | None = None,
        batch: int = 32,
    ) -> None:
        if batch < 1:
            raise ConfigError(f"batch must be positive, got {batch}")
        self.arch = arch or PhotonicArch.trident()
        self.cache = cache or CacheModel()
        self.batch = batch
        # Forward/gradient passes amortize tuning over the batch; the
        # outer-product pass has the batch folded into its reduction, so it
        # is costed at batch 1 and divided by B.
        self._cm_batched = PhotonicCostModel(self.arch, cache=self.cache, batch=batch)
        self._cm_single = PhotonicCostModel(self.arch, cache=self.cache, batch=1)

    # ------------------------------------------------------------------
    def stack_step_costs(self, stack: NetworkStack) -> dict[str, TrainingPassCosts]:
        """Per-sample cost of one SGD step over every network in the stack,
        by the stack's keys: four array passes over the stacked compute
        layers (forward, W^T gradient and the two outer-product
        orientations), each network's totals summed over its own rows."""
        t = stack.table
        B = self.batch
        no_activation = np.zeros(len(t.names), dtype=bool)
        fwd = self._cm_batched.layer_costs(
            t.names, t.m, t.k, t.n, t.groups, t.input_elements, t.fused
        )
        grad = self._cm_batched.layer_costs(
            t.names, t.k, t.m, t.n, t.groups, t.output_elements, no_activation
        )
        # The weight-gradient GEMM contracts over batch x positions; the
        # bank can hold either operand (delta chunks or activation chunks),
        # giving two tile orientations with different write/stream
        # balances.  The control unit picks the faster, the first on a tie
        # — e.g. 1x1 convs with few input channels prefer streaming the
        # wide output dimension.
        reduction = t.n * B
        deltas = self._cm_single.layer_costs(
            t.names, t.m, reduction, t.k, t.groups, t.output_elements, no_activation
        )
        activations = self._cm_single.layer_costs(
            t.names, t.k, reduction, t.m, t.groups, t.output_elements, no_activation
        )
        faster = activations.time_s < deltas.time_s
        outer_time = np.where(faster, activations.time_s, deltas.time_s)
        outer_energy = np.where(faster, activations.energy_j, deltas.energy_j)
        # Update: rewrite every weight cell once per batch.
        cells = t.m * t.k * t.groups
        # In TrainingPassCosts field order, after model and accelerator.
        passes = (
            fwd.time_s,
            grad.time_s,
            outer_time / B,
            fwd.rounds * self.arch.write_time_s / B,
            fwd.energy_j,
            grad.energy_j,
            outer_energy / B,
            cells * self.arch.write_energy_per_cell_j / B,
        )
        return {
            key: TrainingPassCosts(
                network.name, self.arch.name,
                *(_running_sum(column[rows]) for column in passes),
            )
            for (key, network), rows in zip(stack.items(), stack.rows)
        }

    def step_costs(self, network: Network) -> TrainingPassCosts:
        """:meth:`stack_step_costs` of the one network."""
        (costs,) = self.stack_step_costs(NetworkStack.of(network)).values()
        return costs

    def training_time_s(self, network: Network, n_samples: int = 50_000) -> float:
        """Wall-clock to train ``n_samples`` images (Table V's metric)."""
        if n_samples < 1:
            raise ConfigError(f"n_samples must be positive, got {n_samples}")
        return self.step_costs(network).time_s * n_samples

    def training_energy_j(self, network: Network, n_samples: int = 50_000) -> float:
        """Energy to train ``n_samples`` images [J]."""
        if n_samples < 1:
            raise ConfigError(f"n_samples must be positive, got {n_samples}")
        return self.step_costs(network).energy_j * n_samples


def _running_sum(column: np.ndarray) -> float:
    """Left-to-right ``+=`` from 0.0 over a column's floats.

    The pass totals have always been running sums; the builtin ``sum`` is
    compensated from Python 3.12 on and would round differently.
    """
    total = 0.0
    for value in column.tolist():
        total += value
    return total

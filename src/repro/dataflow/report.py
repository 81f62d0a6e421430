"""Cost records produced by the dataflow analyses."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ScheduleError


@dataclass(frozen=True)
class LayerCost:
    """Per-layer, per-inference cost (batch effects already amortized)."""

    name: str
    macs: int
    time_s: float
    energy_j: float
    #: Component energies [J]: tuning / streaming / hold / conversion /
    #: memory — keys depend on the architecture.
    energy_breakdown: dict[str, float] = field(default_factory=dict)
    symbols: int = 0
    tiles: int = 0
    rounds: int = 0

    def __post_init__(self) -> None:
        if self.time_s < 0 or self.energy_j < 0:
            raise ScheduleError(f"{self.name}: negative cost")


@dataclass(frozen=True)
class LayerColumns:
    """Per-layer costs of many layers as columns, one entry per layer.

    Entry ``i`` of every column holds the :class:`LayerCost` field of
    layer ``names[i]``; ``breakdown`` maps each energy component to its
    column, in the order the records list them.  A negative time or energy
    raises :class:`ScheduleError`, as the record would.
    """

    names: tuple[str, ...]
    macs: np.ndarray
    time_s: np.ndarray
    energy_j: np.ndarray
    breakdown: dict[str, np.ndarray]
    symbols: np.ndarray
    tiles: np.ndarray
    rounds: np.ndarray

    def __post_init__(self) -> None:
        negative = np.flatnonzero((self.time_s < 0) | (self.energy_j < 0))
        if negative.size:
            raise ScheduleError(f"{self.names[negative[0]]}: negative cost")

    def records(self) -> tuple[LayerCost, ...]:
        """One :class:`LayerCost` per layer."""
        keys = tuple(self.breakdown)
        parts = zip(*(column.tolist() for column in self.breakdown.values()))
        return tuple(
            LayerCost(name, macs, time_s, energy_j, dict(zip(keys, part)),
                      symbols, tiles, rounds)
            for name, macs, time_s, energy_j, part, symbols, tiles, rounds in zip(
                self.names, self.macs.tolist(), self.time_s.tolist(),
                self.energy_j.tolist(), parts, self.symbols.tolist(),
                self.tiles.tolist(), self.rounds.tolist(),
            )
        )


@dataclass(frozen=True)
class ModelCost:
    """Whole-model inference cost for one accelerator.

    The per-layer costs are held as :class:`LayerColumns`, in layer order.
    ``layers`` builds the :class:`LayerCost` records on first read.  Each
    total is the builtin ``sum`` over its column's floats in layer order,
    the sum the records would give.
    """

    model: str
    accelerator: str
    columns: LayerColumns
    total_macs: int

    @cached_property
    def layers(self) -> tuple[LayerCost, ...]:
        """Per-layer cost records, built on first read."""
        return self.columns.records()

    @property
    def time_s(self) -> float:
        """Latency of one inference [s]."""
        return sum(self.columns.time_s.tolist())

    @property
    def energy_j(self) -> float:
        """Energy of one inference [J]."""
        return sum(self.columns.energy_j.tolist())

    @property
    def inferences_per_second(self) -> float:
        """Steady-state throughput (Fig 6's metric)."""
        t = self.time_s
        if t <= 0:
            raise ScheduleError(f"{self.model}: non-positive inference time")
        return 1.0 / t

    @property
    def effective_tops(self) -> float:
        """Achieved tera-ops/s (2 ops per MAC)."""
        return 2.0 * self.total_macs * self.inferences_per_second / 1e12

    @property
    def energy_per_mac_j(self) -> float:
        """Average energy per MAC [J]."""
        if self.total_macs <= 0:
            raise ScheduleError(f"{self.model}: no MACs")
        return self.energy_j / self.total_macs

    def energy_component(self, key: str) -> float:
        """Sum one energy-breakdown component across layers [J]."""
        column = self.columns.breakdown.get(key)
        return 0.0 if column is None else sum(column.tolist())

    @property
    def average_power_w(self) -> float:
        """Energy / time — sanity check against the power budget."""
        return self.energy_j / self.time_s

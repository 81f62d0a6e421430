"""Cost records produced by the dataflow analyses, and the network stack
they price.

A :class:`NetworkStack` holds several networks' compute tables as one
:class:`~repro.nn.graph.LayerTable`.  A cost model prices the stack in one
array pass and splits the columns back into one :class:`ModelCost` per
network by row range; a single network is the stack of one.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from repro.errors import ConfigError, ScheduleError
from repro.nn.graph import LayerTable, Network


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

    def select(self, rows: slice) -> "LayerColumns":
        """The layers in ``rows``, every column a view of this one's."""
        return LayerColumns(
            self.names[rows], self.macs[rows], self.time_s[rows],
            self.energy_j[rows],
            {key: column[rows] for key, column in self.breakdown.items()},
            self.symbols[rows], self.tiles[rows], self.rounds[rows],
        )

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

    def energy_component(self, key: str) -> float:
        """Sum one energy-breakdown component across layers [J]."""
        column = self.columns.breakdown.get(key)
        return 0.0 if column is None else sum(column.tolist())

    @property
    def average_power_w(self) -> float:
        """Energy / time — sanity check against the power budget."""
        return self.energy_j / self.time_s


class NetworkStack(Mapping[str, Network]):
    """Several networks' compute tables stacked into one column table.

    A mapping from each key to its network, in the given order.  ``table``
    concatenates the networks' :attr:`~repro.nn.graph.NetworkStats.compute_table`
    rows network after network, each in its own layer order, and
    ``rows[i]`` is the row range of the ``i``-th network.  Layer names
    repeat across networks, so every per-network lookup goes by row range.

    ``priced`` is where a cost model keeps the passes it has run over the
    stack, keyed by every input the pass reads; it lives as long as the
    stack.  A network with no compute layers raises :class:`ScheduleError`.
    """

    def __init__(self, networks: Mapping[str, Network]) -> None:
        self._networks = dict(networks)
        if not self._networks:
            raise ConfigError("a network stack needs at least one network")
        tables = []
        for network in self._networks.values():
            table = network.stats().compute_table
            if not table.names:
                raise ScheduleError(f"{network.name}: no compute layers to cost")
            tables.append(table)
        self.table = LayerTable.concat(tables)
        ends = np.cumsum([len(t.names) for t in tables]).tolist()
        self.rows = tuple(slice(a, b) for a, b in zip([0, *ends], ends))
        self.priced: dict[Hashable, dict[str, ModelCost]] = {}

    @classmethod
    def of(cls, network: Network) -> "NetworkStack":
        """The stack of one network, keyed by its name."""
        return cls({network.name: network})

    def __getitem__(self, key: str) -> Network:
        return self._networks[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._networks)

    def __len__(self) -> int:
        return len(self._networks)

    def split(self, accelerator: str, columns: LayerColumns) -> dict[str, ModelCost]:
        """One :class:`ModelCost` per network from the stack's priced
        ``columns``, each holding read-only views of its own rows."""
        for column in (columns.macs, columns.time_s, columns.energy_j, columns.symbols,
                       columns.tiles, columns.rounds, *columns.breakdown.values()):
            column.flags.writeable = False
        return {
            key: ModelCost(network.name, accelerator, columns.select(rows),
                           network.stats().total_macs)
            for (key, network), rows in zip(self._networks.items(), self.rows)
        }

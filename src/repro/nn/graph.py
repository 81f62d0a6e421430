"""DAG network descriptor.

A :class:`Network` is a directed acyclic graph of :class:`LayerSpec` nodes.
It exists to answer the questions the dataflow analysis asks — per-layer
shapes, GEMMs, MACs, parameters — for arbitrary topologies (plain chains,
ResNet residuals, Inception branches).

Nodes are added in any order and reference their inputs by name; ``"input"``
is the implicit source.  Shape inference walks the graph once in topological
order and caches per-node results.  :meth:`Network.stats` then lowers each
node once, from its input shapes and its resolved output shape, and caches
the records and, on first use, their compute-layer column table.
:meth:`Network.add` drops every cache.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers import GEMMShape, LayerSpec, TensorShape

INPUT = "input"


@dataclass(frozen=True)
class LayerStats:
    """Resolved per-layer analysis record."""

    name: str
    kind: str
    #: Shape of the layer's first input (the network input for a source).
    input_shape: TensorShape
    output: TensorShape
    macs: int
    params: int
    gemm: GEMMShape | None
    fused_activation: bool


@dataclass(frozen=True)
class LayerTable:
    """A network's compute layers as columns, one entry per layer in order
    (or several networks', one after another: :meth:`concat`).

    The integer columns are read-only int64 arrays: the GEMM's ``m``,
    ``k``, ``n`` and ``groups``, the input and output element counts,
    ``params`` and ``macs``.  ``fused`` is the fused-activation flag.
    The dataflow cost models price every layer from these columns in one
    array pass.
    """

    names: tuple[str, ...]
    m: np.ndarray
    k: np.ndarray
    n: np.ndarray
    groups: np.ndarray
    input_elements: np.ndarray
    output_elements: np.ndarray
    params: np.ndarray
    macs: np.ndarray
    fused: np.ndarray

    @classmethod
    def from_layers(cls, layers: tuple[LayerStats, ...]) -> "LayerTable":
        """The table of the records that lower to a GEMM."""
        compute = [s for s in layers if s.gemm is not None]
        ints = np.array(
            [
                (s.gemm.m, s.gemm.k, s.gemm.n, s.gemm.groups, s.input_shape.elements,
                 s.output.elements, s.params, s.macs)
                for s in compute
            ],
            dtype=np.int64,
        ).reshape(len(compute), 8).T.copy()
        fused = np.array([s.fused_activation for s in compute], dtype=bool)
        ints.flags.writeable = False
        fused.flags.writeable = False
        return cls(tuple(s.name for s in compute), *ints, fused)

    @classmethod
    def concat(cls, tables: list[LayerTable]) -> LayerTable:
        """The tables' rows in one table, table after table, each in its
        own order (names may repeat across tables).  One table is itself."""
        if len(tables) == 1:
            return tables[0]
        columns = [
            np.concatenate([getattr(t, f.name) for t in tables])
            for f in fields(cls)[1:]
        ]
        for column in columns:
            column.flags.writeable = False
        return cls(sum((t.names for t in tables), ()), *columns)


@dataclass(frozen=True)
class NetworkStats:
    """Whole-network totals."""

    name: str
    layers: tuple[LayerStats, ...]
    total_macs: int
    total_params: int
    n_weight_layers: int

    @property
    def total_activations(self) -> int:
        """Total activation elements produced by fused-activation layers."""
        return sum(s.output.elements for s in self.layers if s.fused_activation)

    @cached_property
    def compute_table(self) -> LayerTable:
        """The compute layers as columns, built on first read."""
        return LayerTable.from_layers(self.layers)


class Network:
    """A named DAG of layer descriptors."""

    def __init__(self, name: str, input_shape: TensorShape) -> None:
        if not name:
            raise ShapeError("network name must be non-empty")
        self.name = name
        self.input_shape = input_shape
        self._layers: dict[str, LayerSpec] = {}
        self._inputs: dict[str, list[str]] = {}
        self._order: list[str] = []
        self._shapes: dict[str, TensorShape] | None = None
        self._stats: NetworkStats | None = None

    # ------------------------------------------------------------------
    def add(self, layer: LayerSpec, inputs: str | list[str] = "") -> str:
        """Add a layer; ``inputs`` defaults to the previously added node.

        Returns the layer name, convenient for wiring branches.
        """
        if layer.name in self._layers or layer.name == INPUT:
            raise ShapeError(f"duplicate layer name {layer.name!r}")
        if isinstance(inputs, str):
            if inputs:
                sources = [inputs]
            elif self._order:
                sources = [self._order[-1]]
            else:
                sources = [INPUT]
        else:
            sources = list(inputs)
        if not sources:
            raise ShapeError(f"{layer.name}: needs at least one input")
        for src in sources:
            if src != INPUT and src not in self._layers:
                raise ShapeError(
                    f"{layer.name}: unknown input {src!r} (add inputs first)"
                )
        self._layers[layer.name] = layer
        self._inputs[layer.name] = sources
        self._order.append(layer.name)
        self._shapes = None
        self._stats = None
        return layer.name

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._layers

    def layer(self, name: str) -> LayerSpec:
        """Look a layer up by name."""
        try:
            return self._layers[name]
        except KeyError:
            raise ShapeError(f"no layer named {name!r}") from None

    @property
    def layer_names(self) -> list[str]:
        """Layer names in insertion (topological) order."""
        return list(self._order)

    def inputs_of(self, name: str) -> list[str]:
        """Names of a node's inputs."""
        return list(self._inputs[name])

    # ------------------------------------------------------------------
    def _resolve_shapes(self) -> dict[str, TensorShape]:
        if self._shapes is not None:
            return self._shapes
        shapes: dict[str, TensorShape] = {INPUT: self.input_shape}
        # Insertion order is topological because add() requires inputs to
        # pre-exist; verify anyway so corrupted graphs fail loudly.
        for name in self._order:
            ins = []
            for src in self._inputs[name]:
                if src not in shapes:
                    raise ShapeError(
                        f"{name}: input {src!r} not resolved — graph is not "
                        "in dependency order"
                    )
                ins.append(shapes[src])
            shapes[name] = self._layers[name].output_shape(ins)
        self._shapes = shapes
        return shapes

    def shape_of(self, name: str) -> TensorShape:
        """Resolved output shape of a node (or the input)."""
        return self._resolve_shapes()[name]

    @property
    def output_shape(self) -> TensorShape:
        """Shape of the final node's output."""
        if not self._order:
            return self.input_shape
        return self.shape_of(self._order[-1])

    # ------------------------------------------------------------------
    def stats(self) -> NetworkStats:
        """Full per-layer + total analysis, cached until the next :meth:`add`.

        One walk: each node's output shape is resolved once (running the
        layer's input checks), then the node is lowered once
        (:meth:`LayerSpec.lower`) for its GEMM and parameter count; its
        MACs are the GEMM's.
        """
        if self._stats is not None:
            return self._stats
        shapes = self._resolve_shapes()
        records: list[LayerStats] = []
        total_macs = 0
        total_params = 0
        n_weight = 0
        for name in self._order:
            layer = self._layers[name]
            ins = [shapes[src] for src in self._inputs[name]]
            gemm, params = layer.lower(ins, shapes[name])
            macs = 0 if gemm is None else gemm.macs
            records.append(
                LayerStats(
                    name=name,
                    kind=type(layer).__name__,
                    input_shape=ins[0],
                    output=shapes[name],
                    macs=macs,
                    params=params,
                    gemm=gemm,
                    fused_activation=layer.fused_activation,
                )
            )
            total_macs += macs
            total_params += params
            if layer.has_weights:
                n_weight += 1
        self._stats = NetworkStats(
            name=self.name,
            layers=tuple(records),
            total_macs=total_macs,
            total_params=total_params,
            n_weight_layers=n_weight,
        )
        return self._stats

    def compute_layers(self) -> list[LayerStats]:
        """Only the layers that occupy weight banks (conv/dense)."""
        return [s for s in self.stats().layers if s.gemm is not None]

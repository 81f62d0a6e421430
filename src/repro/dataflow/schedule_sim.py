"""Discrete-event tile-schedule simulator.

The analytical cost model (:mod:`repro.dataflow.cost_model`) uses closed
forms — ``rounds x (t_write + B x positions / f)`` — that silently assume
greedy list scheduling of identical tiles.  This module actually *runs*
that schedule: tiles are dispatched to the earliest-free PE, each occupying
it for its write + streaming duration, and the makespan and event-level
energy are measured from the resulting timeline.

Purpose: validation (``tests/test_schedule_sim.py`` keeps the closed form
and asserts it matches the simulation exactly for the uniform-tile case)
and extensibility (non-uniform tiles, stragglers, or PE heterogeneity can
be studied by perturbing the events).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from repro.dataflow.cost_model import PhotonicArch
from repro.dataflow.tiling import TileSchedule
from repro.errors import ConfigError, ScheduleError
from repro.nn.graph import Network
from repro.telemetry.session import trace_span as _trace_span


@dataclass(frozen=True)
class TileEvent:
    """One tile's residency on one PE."""

    pe: int
    tile: int
    start_s: float
    write_end_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        """Total residency time (write + stream) [s]."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class LayerSimResult:
    """Simulated execution of one layer's tile set."""

    name: str
    makespan_s: float
    events: tuple[TileEvent, ...]
    tuning_energy_j: float
    streaming_energy_j: float

    @property
    def n_tiles(self) -> int:
        """Number of tile residencies executed."""
        return len(self.events)

    def pe_utilization(self, n_pes: int) -> float:
        """Busy time over (PEs x makespan)."""
        busy = sum(e.duration_s for e in self.events)
        if self.makespan_s <= 0:
            return 1.0
        return busy / (n_pes * self.makespan_s)


def simulate_layer(
    name: str,
    schedule: TileSchedule,
    arch: PhotonicArch,
    batch: int = 1,
    keep_events: bool = True,
) -> LayerSimResult:
    """Greedy list-scheduling simulation of one layer's tiles.

    Every tile occupies a PE for ``t_write + batch x positions / f``;
    tiles dispatch in index order to the earliest-free PE (a heap).
    Edge tiles are charged their *actual* cell counts for tuning energy.
    """
    if batch < 1:
        raise ConfigError(f"batch must be positive, got {batch}")
    n_tiles = schedule.n_tiles
    stream_s = batch * schedule.positions / arch.symbol_rate_hz
    duration = arch.write_time_s + stream_s

    # Earliest-free-PE heap: (free_time, pe_index).
    heap = [(0.0, pe) for pe in range(arch.n_pes)]
    heapq.heapify(heap)
    events: list[TileEvent] = []
    makespan = 0.0
    for tile in range(n_tiles):
        free_at, pe = heapq.heappop(heap)
        start = free_at
        end = start + duration
        makespan = max(makespan, end)
        if keep_events:
            events.append(
                TileEvent(
                    pe=pe,
                    tile=tile,
                    start_s=start,
                    write_end_s=start + arch.write_time_s,
                    end_s=end,
                )
            )
        heapq.heappush(heap, (end, pe))

    tuning = schedule.cells * arch.write_energy_per_cell_j
    streaming = schedule.symbols * batch * arch.symbol_energy_j
    return LayerSimResult(
        name=name,
        makespan_s=makespan,
        events=tuple(events),
        tuning_energy_j=tuning,
        streaming_energy_j=streaming,
    )


@dataclass(frozen=True)
class ModelSimResult:
    """Simulated sequential execution of a network's compute layers."""

    model: str
    layers: tuple[LayerSimResult, ...]

    @property
    def makespan_s(self) -> float:
        """Total sequential makespan over all layers [s]."""
        return sum(layer.makespan_s for layer in self.layers)

    @property
    def tuning_energy_j(self) -> float:
        """Total programming energy across layers [J]."""
        return sum(layer.tuning_energy_j for layer in self.layers)

    @property
    def streaming_energy_j(self) -> float:
        """Total streaming energy across layers [J]."""
        return sum(layer.streaming_energy_j for layer in self.layers)

    def to_chrome_trace(self) -> dict:
        """The modeled tile timeline as a Chrome ``trace_event`` document.

        The clock is the *simulated* device clock, not wall time: each
        tile residency becomes two complete events on its PE's track — a
        ``write`` slice and a ``stream`` slice — with layers laid out
        sequentially (layer k starts where layer k-1's makespan ended).
        Requires the simulation to have kept events
        (``keep_events=True``); layers simulated without events
        contribute nothing but still advance the clock.
        """
        events: list[dict] = []
        offset = 0.0
        for index, layer in enumerate(self.layers):
            for ev in layer.events:
                common = {
                    "cat": "schedule",
                    "ph": "X",
                    "pid": 0,
                    "tid": ev.pe,
                    "args": {"layer": layer.name, "tile": ev.tile},
                }
                events.append(
                    {
                        "name": f"write {layer.name}/{ev.tile}",
                        "ts": (offset + ev.start_s) * 1e6,
                        "dur": (ev.write_end_s - ev.start_s) * 1e6,
                        **common,
                    }
                )
                events.append(
                    {
                        "name": f"stream {layer.name}/{ev.tile}",
                        "ts": (offset + ev.write_end_s) * 1e6,
                        "dur": (ev.end_s - ev.write_end_s) * 1e6,
                        **common,
                    }
                )
            offset += layer.makespan_s
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def simulate_model(
    network: Network,
    arch: PhotonicArch | None = None,
    batch: int = 1,
    keep_events: bool = False,
) -> ModelSimResult:
    """Simulate every compute layer sequentially (dependency order)."""
    arch = arch or PhotonicArch.trident()
    results = []
    with _trace_span("simulate_model", model=network.name, arch=arch.name):
        for record in network.stats().layers:
            if record.gemm is None:
                continue
            schedule = TileSchedule(record.gemm, arch.bank_rows, arch.bank_cols)
            with _trace_span(
                "simulate_layer", layer=record.name, tiles=schedule.n_tiles
            ):
                results.append(
                    simulate_layer(record.name, schedule, arch, batch, keep_events)
                )
    if not results:
        raise ScheduleError(f"{network.name}: no compute layers to simulate")
    return ModelSimResult(model=network.name, layers=tuple(results))


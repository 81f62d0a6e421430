"""Per-layer latency/energy roll-up for photonic accelerators.

One model covers Trident and the three photonic baselines: they are
parameter points of :class:`PhotonicArch` (tuning technology, symbol rate,
PE count at the 30 W budget, ADC/DAC presence, per-symbol extras).  The
paper's methodology (Sec. IV): apply the Table III device parameters to all
four architectures, scale each to 30 W, run the per-layer weight-stationary
analysis.

Cost structure per compute layer (batch ``B`` amortizes weight tuning —
"weights are pre-loaded, after which inference can be performed on many
inputs without re-tuning", Sec. V-A):

- **time**: ``rounds x (t_write + B x positions / f_symbol) / B``, where
  rounds spread the layer's weight tiles over the PEs; plus any DRAM
  transfer time not hidden by compute.
- **tuning energy**: programmed cells x per-cell write energy / B.
- **streaming energy**: one per-PE-symbol quantum (streaming power /
  symbol rate) per symbol, plus any per-symbol extras (VCSEL, MZM).
- **hold energy** (optional, off by default to match the paper's
  accounting): volatile tuning pays heater power over the streaming time.
  The ablation bench turns this on to show honest thermal-volatility cost.
- **conversion energy**: ADC per partial output sample and DAC per
  re-encoded output for digital-activation architectures; zero for
  Trident's photonic activation (its LDSU + reset power is already inside
  the streaming power, per Table III).
- **memory energy**: weight-stationary traffic (inputs re-streamed per
  row-tile, partial sums, output write-back, weight fetch) priced by the
  cache model; digital-activation architectures pay an extra output
  round-trip between layers.

:meth:`PhotonicCostModel.layer_costs` is the one pricing path: it prices
compute layers in one NumPy pass over their column table, and
:meth:`PhotonicCostModel.model_costs` runs it once over a
:class:`~repro.dataflow.report.NetworkStack` of networks and splits the
columns by row range.  Every operation is elementwise, so a layer's floats
do not depend on the other rows; ``tests/test_cost_model_oracle.py`` keeps
a scalar per-layer copy of the arithmetic and checks every float under
``==``.  Only each layer's energy, the builtin ``sum`` of its breakdown, is
summed per layer in Python: that ``sum`` is compensated from Python 3.12
on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.cache import CacheModel
from repro.arch.config import TridentConfig
from repro.dataflow.report import LayerColumns, ModelCost, NetworkStack
from repro.errors import ConfigError, require_finite_fields
from repro.nn.graph import Network
from repro.telemetry.session import (
    active as _telemetry_active,
    trace_span as _trace_span,
)


@dataclass(frozen=True)
class PhotonicArch:
    """Architecture parameter point for the photonic cost model."""

    name: str
    n_pes: int
    symbol_rate_hz: float
    write_energy_per_cell_j: float
    write_time_s: float
    #: Per-PE power while streaming symbols [W] (post-tuning).
    streaming_power_pe_w: float
    #: Per-PE worst-case power used for the 30 W sizing [W].
    sizing_power_pe_w: float
    bank_rows: int = 16
    bank_cols: int = 16
    #: Volatile-tuning hold power per weight cell [W] (thermal: 1.7 mW).
    hold_power_per_cell_w: float = 0.0
    #: True when activation happens digitally via ADC + memory round-trip.
    digital_activation: bool = False
    #: ADC energy per converted output sample [J].
    adc_energy_per_sample_j: float = 0.0
    #: DAC / E-O re-encode energy per output element [J].
    dac_energy_per_sample_j: float = 0.0
    #: Additional per-symbol per-PE energy [J] (CrossLight VCSEL summation,
    #: PIXEL MZM accumulation).
    extra_symbol_energy_j: float = 0.0
    #: Usable weight resolution [bits] (thermal crosstalk: 6).
    weight_bits: int = 8

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.n_pes < 1:
            raise ConfigError(f"{self.name}: n_pes must be positive")
        if min(self.bank_rows, self.bank_cols, self.weight_bits) < 1:
            raise ConfigError(
                f"{self.name}: bank dimensions and weight bits must be positive"
            )
        if self.symbol_rate_hz <= 0 or self.write_time_s <= 0:
            raise ConfigError(f"{self.name}: rates/times must be positive")
        for field_name in (
            "write_energy_per_cell_j",
            "streaming_power_pe_w",
            "sizing_power_pe_w",
            "hold_power_per_cell_w",
            "adc_energy_per_sample_j",
            "dac_energy_per_sample_j",
            "extra_symbol_energy_j",
        ):
            if getattr(self, field_name) < 0:
                raise ConfigError(f"{self.name}: {field_name} must be non-negative")

    # ------------------------------------------------------------------
    @classmethod
    def trident(cls, config: TridentConfig | None = None) -> "PhotonicArch":
        """Trident's parameter point, straight from the config (Table III)."""
        config = config or TridentConfig()
        return cls(
            name="trident",
            n_pes=config.n_pes,
            symbol_rate_hz=config.symbol_rate_hz,
            write_energy_per_cell_j=config.tuning.write_energy_j,
            write_time_s=config.tuning.write_time_s,
            streaming_power_pe_w=config.pe_streaming_power_w,
            sizing_power_pe_w=config.pe_total_power_w,
            bank_rows=config.bank_rows,
            bank_cols=config.bank_cols,
            weight_bits=config.weight_bits,
        )

    @property
    def symbol_energy_j(self) -> float:
        """Per-PE energy of one streamed symbol [J]."""
        return self.streaming_power_pe_w / self.symbol_rate_hz + self.extra_symbol_energy_j

    @property
    def peak_tops(self) -> float:
        """Peak throughput with weights resident [TOPS]."""
        return (
            self.n_pes * self.bank_rows * self.bank_cols * 2.0 * self.symbol_rate_hz / 1e12
        )


class PhotonicCostModel:
    """Weight-stationary analytical cost model for one architecture."""

    def __init__(
        self,
        arch: PhotonicArch,
        cache: CacheModel | None = None,
        batch: int = 128,
        charge_hold_power: bool = False,
        bytes_per_element: int = 1,
    ) -> None:
        if batch < 1:
            raise ConfigError(f"batch must be positive, got {batch}")
        if bytes_per_element < 1:
            raise ConfigError("bytes_per_element must be positive")
        self.arch = arch
        self.cache = cache or CacheModel()
        self.batch = batch
        self.charge_hold_power = charge_hold_power
        self.bytes_per_element = bytes_per_element

    # ------------------------------------------------------------------
    def layer_costs(
        self,
        names: tuple[str, ...],
        m: np.ndarray,
        k: np.ndarray,
        n: np.ndarray,
        groups: np.ndarray,
        input_elements: np.ndarray,
        fused: np.ndarray,
    ) -> LayerColumns:
        """Per-inference cost of many compute layers in one array pass.

        Layer ``i`` is the GEMM ``(m[i] x k[i]) @ (k[i] x n[i])``, run
        ``groups[i]`` times, reading an input of ``input_elements[i]``
        elements; ``fused[i]`` is its fused-activation flag.  Its tiles
        spread over the PEs in ``rounds``, and the cost terms are the ones
        the module docstring lists.  The integer columns are int64 with
        every value below 2**53, so every float is exact in its operands.
        """
        arch = self.arch
        B = self.batch
        tiles_m = -(-m // arch.bank_rows)
        tiles_k = -(-k // arch.bank_cols)
        n_tiles = tiles_m * tiles_k * groups
        rounds = -(-n_tiles // arch.n_pes)
        cells = m * k * groups
        symbols = n_tiles * n
        output_elements = m * n * groups

        round_time = arch.write_time_s + B * n / arch.symbol_rate_hz
        compute_time = rounds * round_time / B
        tuning_j = cells * arch.write_energy_per_cell_j / B
        streaming_j = symbols * arch.symbol_energy_j
        zeros = np.zeros(len(names))
        hold_j = zeros
        if self.charge_hold_power and arch.hold_power_per_cell_w > 0:
            hold_j = (
                arch.hold_power_per_cell_w
                * (cells / n_tiles)
                * (n / arch.symbol_rate_hz)
                * n_tiles
            )
        conversion_j = zeros
        out_times = 1
        if arch.digital_activation:
            conversion_j = (
                output_elements * tiles_k * arch.adc_energy_per_sample_j
                + output_elements * arch.dac_energy_per_sample_j
            )
            out_times = np.where(fused, 3, 1)

        bpe = self.bytes_per_element
        out_bytes = output_elements * bpe
        input_j, input_s = self.cache.access_columns(input_elements * bpe, tiles_m)
        partial_j, partial_s = self.cache.access_columns(out_bytes, 2 * (tiles_k - 1))
        output_j, output_s = self.cache.access_columns(out_bytes, out_times)
        weight_j, weight_s = self.cache.access_columns(cells * bpe, 1)
        has_partial = tiles_k > 1
        memory_j = (
            input_j + np.where(has_partial, partial_j, 0.0) + output_j + weight_j / B
        )
        dram_time = (
            input_s + np.where(has_partial, partial_s, 0.0) + output_s + weight_s / B
        )

        breakdown = {
            "tuning": tuning_j,
            "streaming": streaming_j,
            "hold": hold_j,
            "conversion": conversion_j,
            "memory": memory_j,
        }
        energy_j = np.fromiter(
            map(sum, zip(*(column.tolist() for column in breakdown.values()))),
            dtype=np.float64,
            count=len(names),
        )
        return LayerColumns(
            names=names,
            macs=cells * n,
            time_s=np.where(dram_time > compute_time, dram_time, compute_time),
            energy_j=energy_j,
            breakdown=breakdown,
            symbols=symbols,
            tiles=n_tiles,
            rounds=rounds,
        )

    # ------------------------------------------------------------------
    def model_costs(self, stack: NetworkStack) -> dict[str, ModelCost]:
        """Whole-network inference cost of every network in the stack
        (compute layers; memory-only for pool/add/concat is folded into the
        neighbouring layers' traffic), by the stack's keys.

        One :meth:`layer_costs` pass prices the stack's table and each
        network's :class:`ModelCost` holds its own rows.  The stack keeps
        the result, keyed by every input that pass reads, so pricing it
        again at the same point reuses it.
        """
        key = (self.arch, self.cache, self.batch, self.charge_hold_power,
               self.bytes_per_element)
        costs = stack.priced.get(key)
        if costs is None:
            t = stack.table
            with _trace_span(
                "model_cost", model=",".join(n.name for n in stack.values()),
                arch=self.arch.name,
            ):
                columns = self.layer_costs(
                    t.names, t.m, t.k, t.n, t.groups, t.input_elements, t.fused
                )
            costs = stack.priced[key] = stack.split(self.arch.name, columns)
        session = _telemetry_active()
        if session is not None:
            # Export the *modeled* totals as gauges so a trace run carries
            # the analytical predictions next to the measured events.
            metrics = session.metrics
            for cost in costs.values():
                columns = cost.columns
                for name, time_s, energy_j in zip(
                    columns.names, columns.time_s.tolist(), columns.energy_j.tolist()
                ):
                    labels = {"model": cost.model, "arch": self.arch.name,
                              "layer": name}
                    metrics.gauge(
                        "repro_modeled_layer_time_seconds",
                        "Analytical per-inference latency of one layer",
                        **labels,
                    ).set(time_s)
                    metrics.gauge(
                        "repro_modeled_layer_energy_joules",
                        "Analytical per-inference energy of one layer",
                        **labels,
                    ).set(energy_j)
        return costs

    def model_cost(self, network: Network) -> ModelCost:
        """:meth:`model_costs` of the one network."""
        (cost,) = self.model_costs(NetworkStack.of(network)).values()
        return cost


# ---------------------------------------------------------------------------
# Serving-path latency estimate
# ---------------------------------------------------------------------------
#: Fixed per-dispatch cost (control-unit setup, DAC staging) of one
#: serving stage [s]: the ``overhead_s`` serving workers and the sharding
#: planner both price a batch with.
DISPATCH_OVERHEAD_S = 1e-6


def forward_batch_latency_s(
    arch: PhotonicArch,
    layer_reduction_tiles: "list[int] | tuple[int, ...]",
    batch: int,
    overhead_s: float = 0.0,
) -> float:
    """Per-batch latency estimate for a weight-stationary serving dispatch.

    The serving micro-batcher sizes batches against a latency SLO using
    this estimate: weights are already programmed (no write time), each
    layer streams its B-sample slab through its row tiles in parallel
    (they live on distinct PEs) while column *reduction* tiles serialize
    electronically, so each layer adds ``batch x tiles_k`` symbol periods
    to the critical path.  It is the one critical-path formula for a
    mapped chip; the functional engine's PE-busy view
    (:meth:`~repro.arch.TridentAccelerator.time_estimate_s`) counts every
    row tile instead.  ``overhead_s`` is the fixed per-dispatch cost
    (control-unit setup, DAC staging) that makes coalescing worthwhile in
    the first place.

    ``layer_reduction_tiles`` holds each mapped layer's column-tile count
    (``ceil(in_dim / bank_cols)``).
    """
    if batch < 1:
        raise ConfigError(f"batch must be positive, got {batch}")
    if overhead_s < 0:
        raise ConfigError(f"overhead must be non-negative, got {overhead_s}")
    if not layer_reduction_tiles:
        raise ConfigError("need at least one layer to estimate latency")
    if any(t < 1 for t in layer_reduction_tiles):
        raise ConfigError(
            f"reduction tile counts must be positive, got {layer_reduction_tiles}"
        )
    symbols = batch * sum(int(t) for t in layer_reduction_tiles)
    return overhead_s + symbols / arch.symbol_rate_hz

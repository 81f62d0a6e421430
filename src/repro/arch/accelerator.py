"""The Trident accelerator: PE chain, layer mapping, functional execution.

This module is the *functional* top level: real numbers flow through the
quantized, noisy photonic models.  Networks whose layers fit a single PE
(the in-situ training scenario) map one PE per layer, exactly as the paper
describes ("by assigning one PE to each layer of a NN"); larger dense layers
are tiled across a PE's bank with electronic partial-sum accumulation.  The
CNN-scale energy/latency analysis lives in :mod:`repro.dataflow` — same
device parameters, analytical roll-up.

Analog range management: every vector entering a bank is normalized into
[-1, 1] (the E/O encoder's range) and weight matrices are rescaled into
[-1, 1] *only when their peak magnitude exceeds 1* — a sub-unit-peak matrix
is programmed as-is (scale 1).  The control unit tracks the scales and
restores them after detection.  Consequence for precision: a layer's
effective quantization step in true-weight units is ``weight_step *
weight_scale``, so small-magnitude layers keep the full-range step
(2 / (levels - 1)) and use only a fraction of the level grid, rather than
being stretched to unit max for a finer step.  Because the GST activation
is positively homogeneous (slope * max(0, h)), normalization commutes with
it and the chain stays exact up to quantization + noise.

Execution path: :meth:`TridentAccelerator.forward_batch` is the one
functional engine; a single sample runs as a batch of one.

Event accounting rule: ``counters.symbols`` counts streamed input vectors
*per bank* — one symbol per tile a sample's vector enters, for inference
and training alike — so it always equals the PEs' merged
``BankStats.symbols``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.arch.config import TridentConfig
from repro.arch.control import ControlUnit, OperatingMode, RangeNormalizer
from repro.arch.pe import ProcessingElement, stream_tiles
from repro.arch.weight_bank import BankStats, WeightBank
from repro.devices.noise import NoiseModel
from repro.devices.photodetector import BalancedPhotodetector
from repro.devices.program_verify import ProgramVerifyConfig, ProgramVerifyWriter
from repro.errors import MappingError, ProgrammingError, RepairError, ShapeError
from repro.telemetry.metrics import NULL_INSTRUMENT
from repro.telemetry.session import (
    counter as _metric_counter,
    gauge as _metric_gauge,
    trace_span as _trace_span,
)


@dataclass
class EventCounters:
    """Aggregated hardware events for a functional run."""

    bank_writes: int = 0
    cells_written: int = 0
    symbols: int = 0
    activation_events: int = 0
    mode_switches: int = 0

    def snapshot(self) -> "EventCounters":
        """Copy of the current counters (for before/after deltas)."""
        return EventCounters(
            bank_writes=self.bank_writes,
            cells_written=self.cells_written,
            symbols=self.symbols,
            activation_events=self.activation_events,
            mode_switches=self.mode_switches,
        )

    def diff(self, earlier: "EventCounters") -> "EventCounters":
        """Counters accumulated since ``earlier`` (self - earlier)."""
        return EventCounters(
            bank_writes=self.bank_writes - earlier.bank_writes,
            cells_written=self.cells_written - earlier.cells_written,
            symbols=self.symbols - earlier.symbols,
            activation_events=self.activation_events - earlier.activation_events,
            mode_switches=self.mode_switches - earlier.mode_switches,
        )

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (stable key order) for reports and profiling."""
        return {
            "bank_writes": self.bank_writes,
            "cells_written": self.cells_written,
            "symbols": self.symbols,
            "activation_events": self.activation_events,
            "mode_switches": self.mode_switches,
        }


@dataclass
class MappedLayer:
    """A dense layer mapped onto PE bank tiles."""

    index: int
    out_dim: int
    in_dim: int
    apply_activation: bool
    #: (row_start, row_stop, col_start, col_stop, pe_index) per tile.
    tiles: list[tuple[int, int, int, int, int]]
    #: Digital shadow of the true weights (the control unit's copy).
    weights: np.ndarray | None = None
    #: Scale dividing the true weights into [-1, 1].
    weight_scale: float = 1.0
    #: Forward-pass bookkeeping for training: (B, in_dim) inputs and
    #: (B, out_dim) true-unit logits of the last recorded forward_batch.
    last_input_batch: np.ndarray | None = None
    last_logits_batch: np.ndarray | None = None
    #: Encoded (in_dim, B) slab + per-sample scales of the last recorded
    #: batch — the E/O output, cached so the integrity checksum rows can
    #: re-stream it without re-encoding.  Derivable, never checkpointed.
    last_enc_batch: np.ndarray | None = None
    last_enc_scales: np.ndarray | None = None
    #: Per-sample ``||x||_1`` of the last recorded batch, computed as a
    #: byproduct of the E/O peak scan (same buffer) for the integrity
    #: verifier's residual normalization.  Derivable, never checkpointed.
    last_l1_batch: np.ndarray | None = None


class TridentAccelerator:
    """Functional Trident instance."""

    def __init__(
        self,
        config: TridentConfig | None = None,
        noise: NoiseModel | None = None,
        programming_noise_levels: float = 0.0,
        seed: int = 0,
        program_verify: ProgramVerifyConfig | None = None,
    ) -> None:
        self.config = config or TridentConfig()
        self.noise = noise or NoiseModel.ideal()
        if programming_noise_levels < 0:
            raise MappingError("programming noise must be non-negative")
        self.programming_noise_levels = programming_noise_levels
        self.control = ControlUnit()
        self.pes: list[ProcessingElement] = []
        self.layers: list[MappedLayer] = []
        self.counters = EventCounters()
        #: One seeded generator for everything stochastic the accelerator
        #: owns (verify writes, fault injection through
        #: :meth:`inject_stuck_faults`) — repeated runs with the same seed
        #: are bit-identical.
        self.rng = np.random.default_rng(seed)
        #: When set, every persistent weight write goes through an
        #: iterative program-and-verify loop whose readback feeds fault
        #: detection (transient-operand writes during training stay
        #: open-loop).  None keeps the nominal single-pulse model.
        self.program_verify = program_verify
        self._verify_writer = (
            ProgramVerifyWriter(program_verify, rng=self.rng)
            if program_verify is not None
            else None
        )
        self._write_listeners: list = []

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def _new_pe(self) -> ProcessingElement:
        pe = ProcessingElement(
            bank=WeightBank(
                rows=self.config.bank_rows,
                cols=self.config.bank_cols,
                tuning=self.config.tuning,
                noise=self.noise,
                programming_noise_levels=self.programming_noise_levels,
                spare_rows=self.config.spare_rows,
                convergence_floor=self.config.convergence_floor,
            ),
            bpd=BalancedPhotodetector(noise=self.noise),
        )
        self.pes.append(pe)
        return pe

    def map_mlp(self, dims: list[int], activate_last: bool = False) -> None:
        """Map a fully connected network given its layer widths.

        ``dims = [n_in, n_h1, ..., n_out]`` creates len(dims)-1 layers.
        Each layer gets ceil(out/J) x ceil(in/N) tiles, one PE per tile
        (the paper's one-PE-per-layer mapping is the single-tile case).
        """
        if len(dims) < 2:
            raise MappingError("an MLP needs at least input and output widths")
        if any(d < 1 for d in dims):
            raise MappingError(f"layer widths must be positive, got {dims}")
        self.pes = []
        self.layers = []
        self.counters = EventCounters()
        J, N = self.config.bank_rows, self.config.bank_cols
        total_tiles = 0
        for k, (n_in, n_out) in enumerate(zip(dims[:-1], dims[1:])):
            tiles = []
            for r0 in range(0, n_out, J):
                for c0 in range(0, n_in, N):
                    pe_index = len(self.pes)
                    self._new_pe()
                    tiles.append((r0, min(r0 + J, n_out), c0, min(c0 + N, n_in), pe_index))
            total_tiles += len(tiles)
            last = k == len(dims) - 2
            self.layers.append(
                MappedLayer(
                    index=k,
                    out_dim=n_out,
                    in_dim=n_in,
                    apply_activation=(not last) or activate_last,
                    tiles=tiles,
                )
            )
        if total_tiles > self.config.n_pes:
            raise MappingError(
                f"network needs {total_tiles} PE tiles but the configuration "
                f"has {self.config.n_pes} PEs; enlarge the config or shrink "
                "the network (the CNN-scale path is repro.dataflow)"
            )

    def set_weights(
        self,
        weights: list[np.ndarray],
        weight_scales: "list[float] | None" = None,
    ) -> None:
        """Program true-valued weight matrices (one per mapped layer).

        ``weight_scales`` overrides the per-layer analog scale instead of
        deriving it from each matrix's own peak.  A sharded deployment
        needs this: a row slice of a wide layer must quantize with the
        *full* matrix's scale, or its levels (and outputs) would diverge
        from the single-accelerator reference by the ratio of the peaks.
        """
        if len(weights) != len(self.layers):
            raise MappingError(
                f"got {len(weights)} weight matrices for {len(self.layers)} layers"
            )
        if weight_scales is not None and len(weight_scales) != len(self.layers):
            raise MappingError(
                f"got {len(weight_scales)} weight scales for "
                f"{len(self.layers)} layers"
            )
        for k, (layer, w) in enumerate(zip(self.layers, weights)):
            scale = None if weight_scales is None else weight_scales[k]
            self._program_layer(
                layer, np.asarray(w, dtype=np.float64), scale_override=scale
            )

    def _program_layer(
        self,
        layer: MappedLayer,
        weights: np.ndarray,
        scale_override: "float | None" = None,
    ) -> None:
        if weights.shape != (layer.out_dim, layer.in_dim):
            raise ShapeError(
                f"layer {layer.index} expects weights "
                f"({layer.out_dim}, {layer.in_dim}), got {weights.shape}"
            )
        # Rescale only over-range matrices; a sub-unit-peak matrix keeps
        # scale 1 and therefore the full-range quantization step (module
        # docstring, "Analog range management").
        peak = float(np.max(np.abs(weights))) if weights.size else 0.0
        if not math.isfinite(peak):
            raise ProgrammingError(
                f"layer {layer.index} weights contain NaN or infinite values"
            )
        scale = peak if peak > 1.0 else 1.0
        if scale_override is not None:
            if not scale_override >= max(peak, 1.0):
                raise MappingError(
                    f"layer {layer.index} scale override {scale_override} is "
                    f"below the matrix peak {peak} (or below 1.0); programmed "
                    "levels would clip out of the analog range"
                )
            scale = float(scale_override)
        layer.weights = weights.copy()
        layer.weight_scale = scale
        for tile_index in range(len(layer.tiles)):
            self.reprogram_tile(layer.index, tile_index)

    def reprogram_tile(
        self, layer_index: int, tile_index: int, writer=None
    ):
        """(Re)write one mapped tile's weight block into its bank.

        Programs the tile from the layer's digital weight shadow — the
        unit of work for deployment, repair retries, and post-remap
        rewrites alike, so every repair action pays the same write
        accounting as a deployment write (no free writes).  When the
        accelerator has a verify writer (or an explicit ``writer`` is
        passed, e.g. a retry-escalated one) the write runs program-and-
        verify and registered write listeners see the readback; otherwise
        it is a nominal single-pulse write.  Returns the
        ProgramVerifyResult or None for nominal writes.
        """
        layer = self.layers[layer_index]
        if layer.weights is None:
            raise MappingError(
                f"layer {layer_index} has no programmed weights to rewrite"
            )
        r0, r1, c0, c1, pe_index = layer.tiles[tile_index]
        block = layer.weights[r0:r1, c0:c1] / layer.weight_scale
        pe = self.pes[pe_index]
        use_writer = writer if writer is not None else self._verify_writer
        result = None
        with _trace_span(
            "reprogram_tile",
            accelerator=self,
            layer=layer_index,
            tile=tile_index,
            pe=pe_index,
        ):
            if use_writer is not None:
                _, result = pe.bank.program_verified(block, use_writer)
                for listener in self._write_listeners:
                    listener(pe_index, layer_index, tile_index, pe.bank, result)
            else:
                pe.program_weights(block)
            self.counters.bank_writes += 1
            self.counters.cells_written += (r1 - r0) * (c1 - c0)
        return result

    def migrate_tile(self, layer_index: int, tile_index: int) -> int:
        """Move a tile from its (degraded) PE onto a freshly allocated PE.

        The repair mechanism of last resort: the control unit re-routes
        the tile's optical path to a new PE within the configured PE
        budget and the old PE is retired from this tile.  The tile is left
        unprogrammed on the new bank — callers must
        :meth:`reprogram_tile`, which charges the migration's write cost.
        Returns the new PE index; raises
        :class:`~repro.errors.RepairError` when the PE budget is
        exhausted.
        """
        if len(self.pes) >= self.config.n_pes:
            raise RepairError(
                f"cannot migrate tile: all {self.config.n_pes} PEs allocated"
            )
        layer = self.layers[layer_index]
        r0, r1, c0, c1, _old = layer.tiles[tile_index]
        self._new_pe()
        new_index = len(self.pes) - 1
        layer.tiles[tile_index] = (r0, r1, c0, c1, new_index)
        return new_index

    # ------------------------------------------------------------------
    # Fault-management plumbing
    # ------------------------------------------------------------------
    @property
    def verify_writer(self) -> ProgramVerifyWriter | None:
        """The shared program-and-verify controller (None when nominal)."""
        return self._verify_writer

    def add_write_listener(self, listener) -> None:
        """Register ``listener(pe_index, layer_index, tile_index, bank,
        result)`` to observe every verified weight write's readback —
        the hook :class:`~repro.faults.FaultDetector` attaches through."""
        self._write_listeners.append(listener)

    def inject_stuck_faults(
        self, fraction: float, stuck_level: int | None = None, rng=None
    ) -> int:
        """Inject stuck-at faults into every allocated PE's bank.

        Draws from the accelerator's own seeded generator so campaigns
        are reproducible.  An external ``rng`` (e.g. a chaos plan's
        per-injection stream) may be supplied instead, which leaves the
        accelerator's own draw sequence untouched — chaos then only adds
        faults, it never perturbs the baseline's RNG alignment.  Returns
        the total number of newly stuck cells.
        """
        draw = self.rng if rng is None else rng
        return sum(
            pe.bank.inject_stuck_faults(fraction, draw, stuck_level)
            for pe in self.pes
        )

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def _fingerprint(self) -> dict:
        """Construction-time invariants a snapshot must match to load."""
        return {
            "bank_rows": self.config.bank_rows,
            "bank_cols": self.config.bank_cols,
            "spare_rows": self.config.spare_rows,
            "n_pes": self.config.n_pes,
            "levels": self.config.tuning.levels,
            "programming_noise_levels": self.programming_noise_levels,
            "program_verify": self.program_verify is not None,
            "noise_enabled": self.noise.enabled,
        }

    def state_dict(self) -> dict:
        """Versionable snapshot of the *entire* physically realized state.

        Covers every mutable thing the accelerator owns: per-PE bank state
        (GST levels, stuck/converged masks, spare pools, remap tables,
        write/wear counters), LDSU bits, TIA gains, activation-cell wear,
        the layer mapping with its digital weight shadows and recorded
        forward activations, the event counters, the control unit's mode,
        and the threaded RNG's bit-generator state (which the shared
        program-verify writer draws from).  Restoring it with
        :meth:`load_state_dict` reproduces subsequent ``forward_batch`` /
        ``train_step`` outputs bit-for-bit.  Each layer still carries
        ``last_input`` / ``last_logits`` keys, always None, so snapshot
        bytes (and the digests taken over them) stay stable.
        """

        def opt(a: np.ndarray | None) -> np.ndarray | None:
            return None if a is None else a.copy()

        return {
            "fingerprint": self._fingerprint(),
            "counters": self.counters.as_dict(),
            "control": self.control.state_dict(),
            "rng_state": self.rng.bit_generator.state,
            "noise_rng_state": self.noise.rng.bit_generator.state,
            "pes": [pe.state_dict() for pe in self.pes],
            "layers": [
                {
                    "index": layer.index,
                    "out_dim": layer.out_dim,
                    "in_dim": layer.in_dim,
                    "apply_activation": layer.apply_activation,
                    "tiles": [list(tile) for tile in layer.tiles],
                    "weights": opt(layer.weights),
                    "weight_scale": layer.weight_scale,
                    "last_input": None,
                    "last_logits": None,
                    "last_input_batch": opt(layer.last_input_batch),
                    "last_logits_batch": opt(layer.last_logits_batch),
                }
                for layer in self.layers
            ],
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot.

        The accelerator must have been constructed with the same geometry,
        level grid, and program-verify/noise setup the snapshot was taken
        under (the snapshot's fingerprint is checked first —
        :class:`~repro.errors.CheckpointError` on mismatch).  PEs are
        re-allocated to the snapshot's count, so a snapshot taken after
        tile migrations restores the migrated mapping exactly.  The RNG is
        restored *in place*, keeping the program-verify writer (which
        shares the generator object) on the snapshot's draw stream.
        """
        from repro.errors import CheckpointError

        fingerprint = self._fingerprint()
        saved = state["fingerprint"]
        mismatched = [
            f"{key}: snapshot {saved.get(key)!r} != this accelerator {value!r}"
            for key, value in fingerprint.items()
            if saved.get(key) != value
        ]
        if mismatched:
            raise CheckpointError(
                "snapshot was taken on an incompatible accelerator — "
                + "; ".join(mismatched)
            )
        if len(state["pes"]) > self.config.n_pes:
            raise CheckpointError(
                f"snapshot allocates {len(state['pes'])} PEs but the "
                f"configuration has {self.config.n_pes}"
            )

        self.pes = []
        for pe_state in state["pes"]:
            self._new_pe().load_state_dict(pe_state)

        def opt(a) -> np.ndarray | None:
            return None if a is None else np.asarray(a, dtype=np.float64)

        self.layers = [
            MappedLayer(
                index=int(spec["index"]),
                out_dim=int(spec["out_dim"]),
                in_dim=int(spec["in_dim"]),
                apply_activation=bool(spec["apply_activation"]),
                tiles=[tuple(int(v) for v in tile) for tile in spec["tiles"]],
                weights=opt(spec["weights"]),
                weight_scale=float(spec["weight_scale"]),
                last_input_batch=opt(spec["last_input_batch"]),
                last_logits_batch=opt(spec["last_logits_batch"]),
            )
            for spec in state["layers"]
        ]
        counters = state["counters"]
        self.counters = EventCounters(
            bank_writes=int(counters["bank_writes"]),
            cells_written=int(counters["cells_written"]),
            symbols=int(counters["symbols"]),
            activation_events=int(counters["activation_events"]),
            mode_switches=int(counters["mode_switches"]),
        )
        self.control.load_state_dict(state["control"])
        self.rng.bit_generator.state = state["rng_state"]
        self.noise.rng.bit_generator.state = state["noise_rng_state"]

    # ------------------------------------------------------------------
    # Inference
    # ------------------------------------------------------------------
    def forward_batch(self, xs: np.ndarray, record: bool = False) -> np.ndarray:
        """Forward a (B, n_in) batch through the mapped network.

        Every layer — single-tile or tiled — streams as blocked ``matmat``
        calls: each tile's bank receives its (cols_used, B) input slab in
        one vectorized pass and the detected partial sums accumulate across
        row/column tiles electronically (:func:`~repro.arch.pe.stream_tiles`),
        with one detection-noise draw per observed (output, sample) sum.  A
        single sample is a (1, n_in) batch.  The engine is batch-invariant:
        one B-sample batch and B single-sample batches produce the same
        outputs for noise-free hardware and identical
        :class:`EventCounters` always; with noise enabled they differ only
        in draw order, since either way each (output, sample) sum takes one
        draw under the same law.  With ``record`` each layer keeps its
        (B, in_dim) inputs and (B, out_dim) logits for a training step.
        """
        xs = np.asarray(xs, dtype=np.float64)
        if xs.ndim != 2:
            raise ShapeError(f"expected a 2-D batch, got shape {xs.shape}")
        if not self.layers:
            raise MappingError("map a network before calling forward_batch()")
        if xs.shape[1] != self.layers[0].in_dim:
            raise ShapeError(
                f"batch width {xs.shape[1]} != ({self.layers[0].in_dim},)"
            )
        if self.control.set_mode(OperatingMode.INFERENCE):
            self.counters.mode_switches += 1
        batch = xs.shape[0]
        value = xs.T  # (features, batch)
        # Live power gauge: snapshot the hardware-time/energy estimate so
        # the gauge can show this batch's mean power draw; skipped entirely
        # when telemetry is off — the estimate roll-ups are not free.
        power_gauge = _metric_gauge(
            "repro_power_draw_w", "Chip power draw over hardware time [W]"
        )
        if power_gauge is not NULL_INSTRUMENT:
            energy_before = self.energy_estimate_j()
            time_before = self.time_estimate_s()
        with _trace_span("forward_batch", accelerator=self, batch=batch):
            for layer in self.layers:
                if layer.weights is None:
                    raise MappingError(
                        f"layer {layer.index} has no programmed weights"
                    )
                with _trace_span(
                    "layer",
                    accelerator=self,
                    layer=layer.index,
                    tiles=len(layer.tiles),
                    batch=batch,
                ):
                    if record:
                        # A view, not a copy: the slab is the caller's
                        # batch (layer 0) or the previous layer's fresh
                        # activation output.  Recorded batches are
                        # read-only snapshots, valid until the next
                        # forward pass — the O(in x B) copy would charge
                        # every recorded batch for mutations nothing
                        # performs.
                        layer.last_input_batch = value.T
                        # Per-sample encode scales (the E/O stage
                        # normalizes each sample independently).  The
                        # integrity checker re-streams this exact slab
                        # through the checksum rows and normalizes its
                        # residuals by the L1 norms; keeping references
                        # saves it a second O(in x B) encode + |x| pass.
                        enc, scales, l1 = RangeNormalizer.normalize_columns(
                            value, return_l1=True
                        )
                        layer.last_enc_batch = enc
                        layer.last_enc_scales = scales
                        layer.last_l1_batch = l1
                    else:
                        enc, scales = RangeNormalizer.normalize_columns(value)
                    logits_norm = stream_tiles(
                        self.pes,
                        layer.tiles,
                        enc,
                        layer.out_dim,
                        capture_derivative=len(layer.tiles) == 1,
                    )
                    # B streamed symbols per bank the slab enters (module
                    # docstring).
                    self.counters.symbols += batch * len(layer.tiles)
                    logits = logits_norm  # scaled in place: (logits * scales) * weight_scale
                    logits *= scales
                    logits *= layer.weight_scale
                    if record:
                        layer.last_logits_batch = logits.T  # fresh per layer
                    if layer.apply_activation:
                        cell = self.pes[layer.tiles[0][4]].activation
                        before = cell.firing_events
                        value = cell.fire(logits)
                        self.counters.activation_events += (
                            cell.firing_events - before
                        )
                    else:
                        value = logits
        _metric_counter("repro_forward_batches_total").inc()
        _metric_counter("repro_forward_samples_total").inc(batch)
        if power_gauge is not NULL_INSTRUMENT:
            time_after = self.time_estimate_s()
            if time_after > time_before:
                mean_power_w = (self.energy_estimate_j() - energy_before) / (
                    time_after - time_before
                )
                power_gauge.set(mean_power_w)
        return value.T

    # ------------------------------------------------------------------
    # Cost accounting (functional runs)
    # ------------------------------------------------------------------
    def energy_estimate_j(self) -> float:
        """Energy of everything executed so far, from Table III components.

        Bank writes cost their pulse energy (write power x write time ==
        cells x 660 pJ — the device- and system-level views agree); each
        PE-symbol (one per bank a vector enters, so a layer with row tiles
        counts every one of them) costs the per-PE streaming power over one
        symbol period; activation firings cost the reset energy.  This is
        the energy view of the same events :meth:`time_estimate_s` turns
        into PE-busy seconds.
        """
        stats = self.bank_stats()
        symbol_energy = self.config.pe_streaming_power_w / self.config.symbol_rate_hz
        reset = sum(pe.activation.reset_energy_spent_j for pe in self.pes)
        return stats.write_energy_j + stats.symbols * symbol_energy + reset

    def time_estimate_s(self) -> float:
        """PE-busy seconds of everything executed so far: writes + symbols.

        Every PE-symbol counts one symbol period, including the row tiles
        of one layer that stream at the same time on distinct PEs, so this
        is not the wall-clock latency: on an [8, 24, 16, 4] MLP with 8 x 8
        banks a sample charges 11 PE-symbols here against 6 symbol periods
        on the critical path.  The critical path of a mapped chip is
        :func:`~repro.dataflow.cost_model.forward_batch_latency_s`, which
        serving prices batches with.  Writes use the banks' *recorded*
        ``write_time_s`` — which includes the extra rounds iterative
        program-and-verify writes consume — rather than recomputing
        ``write_events x write_time()`` (which would drop them).
        """
        stats = self.bank_stats()
        return stats.write_time_s + stats.symbols / self.config.symbol_rate_hz

    def bank_stats(self) -> BankStats:
        """Merged programming/usage counters across all PEs."""
        merged = BankStats()
        for pe in self.pes:
            merged = merged.merge(pe.bank.stats)
        return merged

"""J x N PCM-MRR weight bank — the vectorized heart of the functional sim.

A bank is a matrix of add-drop rings, one wavelength per column, one
BPD-terminated row per output.  The scalar physics lives in
:mod:`repro.devices.pcm_mrr`; here the whole bank is represented by integer
level arrays so programming and the analog matrix-vector product are single
NumPy operations (per the HPC guides: no per-ring Python objects on the hot
path — tests assert this array math agrees with the scalar device model).

What the bank models:

- **Quantization**: weights snap to the tuning technology's level grid
  (255 levels for GST = 8-bit; 63 levels for thermal = 6-bit — the paper's
  argument for why thermally tuned banks cannot train).
- **Programming noise**: optional level-granularity perturbation on writes.
- **WDM crosstalk**: optional leakage matrix mixing input channels.
- **Write accounting**: every programming event's energy/time/cell count,
  plus hold energy for volatile tuning technologies.

State invariant: ``_levels`` always tracks the *physical* level of every
ring — stuck cells show their stuck level whether or not they sit inside the
programmed block.  ``_realized`` is the MVM-coupled weight: the dequantized
level inside the programmed block and 0.0 outside it, because the control
unit routes no input wavelength onto unused columns and terminates no
detector on unused rows.  Off-block stuck rings therefore do **not**
attenuate light in this model (crosstalk leakage onto unused channels is
below the model's fidelity); ``_mask`` marks block membership.

Fault tolerance: a bank built with ``spare_rows=k`` carries k extra
physical ring rows beyond its logical J rows.  A row-remap table routes
each logical row onto a physical row; :meth:`remap_row` retires a worn row
onto a free spare (a control-unit routing change — the repair reprogram
pays the write cost).  All physical state arrays are sized
``(rows + spare_rows, cols)``; the logical MVM view reads through the map.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from repro.devices.noise import NoiseModel
from repro.devices.pcm_mrr import WeightCalibration, build_calibration
from repro.devices.tuning import GSTTuning, TuningModel
from repro.errors import (
    ConfigError,
    FaultError,
    ProgrammingError,
    RepairError,
    ShapeError,
    WriteConvergenceWarning,
)


@dataclass
class BankStats:
    """Cumulative programming/usage counters for one bank."""

    write_events: int = 0
    cells_written: int = 0
    write_energy_j: float = 0.0
    write_time_s: float = 0.0
    symbols: int = 0

    def merge(self, other: "BankStats") -> "BankStats":
        """Combine counters (used when aggregating across PEs)."""
        return BankStats(
            write_events=self.write_events + other.write_events,
            cells_written=self.cells_written + other.cells_written,
            write_energy_j=self.write_energy_j + other.write_energy_j,
            write_time_s=self.write_time_s + other.write_time_s,
            symbols=self.symbols + other.symbols,
        )

    def diff(self, earlier: "BankStats") -> "BankStats":
        """Counters accumulated since ``earlier`` (self - earlier)."""
        return BankStats(
            write_events=self.write_events - earlier.write_events,
            cells_written=self.cells_written - earlier.cells_written,
            write_energy_j=self.write_energy_j - earlier.write_energy_j,
            write_time_s=self.write_time_s - earlier.write_time_s,
            symbols=self.symbols - earlier.symbols,
        )


class WeightBank:
    """Programmable photonic weight matrix with quantized analog readout."""

    def __init__(
        self,
        rows: int = 16,
        cols: int = 16,
        tuning: TuningModel | None = None,
        noise: NoiseModel | None = None,
        calibration: WeightCalibration | None = None,
        crosstalk: np.ndarray | None = None,
        programming_noise_levels: float = 0.0,
        spare_rows: int = 0,
        convergence_floor: float = 0.9,
    ) -> None:
        if rows < 1 or cols < 1:
            raise ShapeError(f"bank dimensions must be positive, got {rows}x{cols}")
        if spare_rows < 0:
            raise ShapeError(f"spare rows must be non-negative, got {spare_rows}")
        if not 0.0 <= convergence_floor <= 1.0:
            raise ConfigError(
                f"convergence floor must lie in [0, 1], got {convergence_floor}"
            )
        self.rows = rows
        self.cols = cols
        self.spare_rows = spare_rows
        self.physical_rows = rows + spare_rows
        self.convergence_floor = convergence_floor
        self.tuning = tuning if tuning is not None else GSTTuning()
        self.noise = noise if noise is not None else NoiseModel.ideal()
        self._calibration = calibration
        self.levels = self.tuning.levels
        if programming_noise_levels < 0:
            raise ProgrammingError("programming noise must be non-negative")
        self.programming_noise_levels = programming_noise_levels
        if crosstalk is not None:
            crosstalk = np.asarray(crosstalk, dtype=np.float64)
            if crosstalk.shape != (cols, cols):
                raise ShapeError(
                    f"crosstalk matrix must be {cols}x{cols}, got {crosstalk.shape}"
                )
        self.crosstalk = crosstalk

        shape = (self.physical_rows, cols)
        self._levels = np.zeros(shape, dtype=np.int64)
        self._realized = np.zeros(shape, dtype=np.float64)
        self._mask = np.zeros(shape, dtype=bool)
        self._stuck_mask = np.zeros(shape, dtype=bool)
        self._stuck_levels = np.zeros(shape, dtype=np.int64)
        #: logical row i reads physical ring row _row_map[i].
        self._row_map = np.arange(rows, dtype=np.int64)
        #: True while the map is the identity (lets the batched MVM use a
        #: realized-block view instead of a gather).
        self._row_map_is_identity = True
        self._spare_pool: list[int] = list(range(rows, self.physical_rows))
        self._needs_reprogram = False
        #: Cached (r, c) of the programmed block; None -> rescan the mask.
        self._occupancy: tuple[int, int] | None = None
        self._last_converged: np.ndarray | None = None
        #: unconverged_fraction of _last_converged; None -> compute on read.
        self._unconverged_fraction: float | None = None
        self._last_level_errors: np.ndarray | None = None
        self._unconverged_mask = np.zeros(shape, dtype=bool)
        self.stats = BankStats()

    # ------------------------------------------------------------------
    @property
    def calibration(self) -> WeightCalibration:
        """Physical-layer calibration (built lazily; only needed for
        fraction-level queries, not for the level-domain hot path)."""
        if self._calibration is None:
            self._calibration = build_calibration()
        return self._calibration

    @property
    def weight_step(self) -> float:
        """Smallest representable weight increment at this resolution."""
        return 2.0 / (self.levels - 1)

    # ------------------------------------------------------------------
    def _quantize(self, weights: np.ndarray) -> np.ndarray:
        scaled = (np.clip(weights, -1.0, 1.0) + 1.0) / 2.0 * (self.levels - 1)
        return np.rint(scaled).astype(np.int64)

    def _dequantize(self, levels: np.ndarray) -> np.ndarray:
        return np.clip(levels / (self.levels - 1) * 2.0 - 1.0, -1.0, 1.0)

    def _validated_block(self, weights: np.ndarray) -> np.ndarray:
        """``weights`` as a 2-D float block that fits the bank, or raise.

        Every write validates through here before it draws any noise.
        """
        w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
        if w.ndim != 2:
            raise ShapeError(f"weights must be 2-D, got ndim={w.ndim}")
        r, c = w.shape
        if r > self.rows or c > self.cols:
            raise ShapeError(
                f"block {r}x{c} does not fit bank {self.rows}x{self.cols}"
            )
        # Written so that NaN fails it too: a NaN would otherwise quantize
        # to level 0 (weight -1) with only a cast warning.
        if not np.all(np.abs(w) <= 1.0 + 1e-9):
            raise ProgrammingError(
                "weights must be finite and lie in [-1, 1] (normalize first)"
            )
        return w

    def _store_block(
        self, phys: np.ndarray, c: int, levels: np.ndarray, realized: np.ndarray
    ) -> None:
        """Make the block on physical rows ``phys`` x the first ``c``
        columns the bank's only programmed content.

        Zeroes the state arrays, fills the block with ``levels`` and
        ``realized``, re-applies stuck cells, resets the readback caches
        and charges one nominal parallel write of the block's cells.
        """
        self._levels[:] = 0
        self._realized[:] = 0.0
        self._mask[:] = False
        self._levels[phys, :c] = levels
        self._realized[phys, :c] = realized
        self._mask[phys, :c] = True
        self._occupancy = None
        self._needs_reprogram = False
        self._last_converged = None
        self._unconverged_fraction = None
        self._last_level_errors = None
        self._unconverged_mask[:] = False

        if self._stuck_mask.any():
            # Failed cells ignore the write and hold their stuck level.  The
            # level array keeps the physical state for every stuck ring; the
            # MVM-coupled weight is only overridden inside the block (see the
            # module docstring's state invariant).
            self._levels[self._stuck_mask] = self._stuck_levels[self._stuck_mask]
            in_block = self._stuck_mask & self._mask
            self._realized[in_block] = self._dequantize(
                self._stuck_levels[in_block].astype(np.float64)
            )

        n_cells = len(phys) * c
        self.stats.write_events += 1
        self.stats.cells_written += n_cells
        self.stats.write_energy_j += self.tuning.write_energy(n_cells)
        self.stats.write_time_s += self.tuning.write_time()

    def program(self, weights: np.ndarray) -> np.ndarray:
        """Program a weight matrix (or top-left sub-block) into the bank.

        ``weights`` must be an (r, c) array with r <= rows, c <= cols and
        entries in [-1, 1].  Unused cells are parked at weight 0 and excluded
        from the MVM.  Returns the realized (quantized + noise) weights of
        the programmed block.  One call = one parallel programming event.
        """
        w = self._validated_block(weights)
        r, c = w.shape
        levels = self._quantize(w)
        noisy = self.noise.apply_programming_noise(levels, self.programming_noise_levels)
        noisy = np.clip(noisy, 0, self.levels - 1)
        phys = self._row_map[:r]
        self._store_block(
            phys, c, np.rint(noisy).astype(np.int64), self._dequantize(noisy)
        )
        return self._realized[phys, :c].copy()

    def program_verified(
        self, weights: np.ndarray, writer
    ) -> tuple[np.ndarray, object]:
        """Program through an iterative program-and-verify controller.

        Like :meth:`program`, but the writer's achieved (noisy) levels
        become the realized weights and the write accounting is corrected
        to the actual pulse count the verify loop consumed.  Stuck cells
        are handed to the writer as frozen cells, so the readback's
        ``converged`` mask is an honest health signal: a worn cell whose
        stuck level lies outside tolerance never converges.  The mask is
        *stored* (see :attr:`unconverged_fraction`), and a
        :class:`~repro.errors.WriteConvergenceWarning` fires when the
        convergence rate drops below the bank's ``convergence_floor``.

        There is no nominal single-pulse pass: the block is quantized once
        and stored straight from the writer's levels.  The counters still
        add up in the order of a nominal write plus a correction: one
        nominal write of r x c cells first, then the extra pulses and
        verify reads, then the extra write rounds.  With
        ``programming_noise_levels > 0`` the write also takes the r x c
        programming-noise draw a nominal write would and discards it, so
        the noise model's stream is that of a nominal write followed by
        the verify loop.

        Returns (realized weights of the programmed block, the writer's
        ProgramVerifyResult).
        """
        w = self._validated_block(weights)
        r, c = w.shape
        levels = self._quantize(w)
        if self.programming_noise_levels > 0:
            # Drawn and discarded: the writer's levels replace it (docstring).
            self.noise.apply_programming_noise(levels, self.programming_noise_levels)
        targets = levels.astype(np.float64)
        phys = self._row_map[:r]
        frozen = self._stuck_mask[phys, :c]
        if frozen.any():
            result = writer.write(
                targets,
                frozen_mask=frozen,
                frozen_levels=self._stuck_levels[phys, :c].astype(np.float64),
            )
        else:
            result = writer.write(targets)
        achieved = np.rint(
            np.clip(result.achieved_levels, 0, self.levels - 1)
        ).astype(np.int64)
        self._store_block(phys, c, achieved, self._dequantize(achieved))
        # Readback bookkeeping: the converged mask is the controller's only
        # window into cell health — keep it instead of discarding it.
        self._last_converged = result.converged.copy()
        self._unconverged_fraction = None
        self._last_level_errors = np.abs(achieved - targets)
        self._unconverged_mask[phys, :c] = ~result.converged
        # Correct the nominal single-pulse charge to the verify loop's
        # actual cost (extra pulses cost energy and endurance; reads cost
        # read energy; time grows by the extra write rounds).  The round
        # count is clamped at zero: a loop that needed no pulses at all
        # (targets already reached) must not *refund* write time the
        # nominal charge already made.
        extra_pulses = result.total_pulses - r * c
        self.stats.cells_written += extra_pulses
        self.stats.write_energy_j += (
            extra_pulses * writer.config.write_energy_j
            + result.total_reads * writer.config.read_energy_j
        )
        extra_rounds = max(int(result.pulses.max(initial=0)) - 1, 0)
        self.stats.write_time_s += extra_rounds * self.tuning.write_time()
        rate = result.convergence_rate
        if rate < self.convergence_floor:
            warnings.warn(
                WriteConvergenceWarning(
                    f"program-verify convergence {rate:.1%} below floor "
                    f"{self.convergence_floor:.1%} "
                    f"({int((~result.converged).sum())} of "
                    f"{result.converged.size} cells unconverged)"
                ),
                stacklevel=2,
            )
        return self._realized[phys, :c].copy(), result

    @property
    def realized_weights(self) -> np.ndarray:
        """Full (rows x cols) MVM-coupled weight matrix.

        Zeros outside the programmed block — unused columns carry no input
        wavelength and unused rows terminate no detector, so off-block cells
        (stuck or not) never weight light.  See :attr:`physical_levels` for
        the physical ring state.
        """
        return self._realized.copy()

    @property
    def physical_levels(self) -> np.ndarray:
        """Physical per-ring levels (copy), including off-block stuck cells.

        Shape is ``(rows + spare_rows, cols)`` — spare ring rows included.
        """
        return self._levels.copy()

    @property
    def logical_weights(self) -> np.ndarray:
        """(rows x cols) MVM-coupled weights as the detectors see them.

        Reads the physical array through the row-remap table, so remapped
        rows show their spare ring row's weights.  Identical to
        :attr:`realized_weights` while no row has been remapped.
        """
        return self._realized[self._row_map].copy()

    @property
    def unconverged_fraction(self) -> float:
        """Fraction of the last verified write's cells that failed to
        converge (0.0 when the last write was nominal / unverified).

        Serving gates read this for every active bank on every batch, so
        the value is computed on the first read after a write and kept
        until the mask changes."""
        if self._unconverged_fraction is None:
            self._unconverged_fraction = (
                0.0
                if self._last_converged is None
                else float(1.0 - self._last_converged.mean())
            )
        return self._unconverged_fraction

    @property
    def last_converged(self) -> np.ndarray | None:
        """Converged mask of the last verified write (block shape), or
        None if the last write was nominal."""
        return None if self._last_converged is None else self._last_converged.copy()

    @property
    def last_write_error_levels(self) -> np.ndarray | None:
        """|achieved - target| in levels for the last verified write
        (block shape), or None if the last write was nominal.  This is the
        readback the repair engine judges tile health from."""
        if self._last_level_errors is None:
            return None
        return self._last_level_errors.copy()

    @property
    def unconverged_mask(self) -> np.ndarray:
        """Physical-shape boolean mask of the last verified write's
        unconverged cells (all False after a nominal write)."""
        return self._unconverged_mask.copy()

    @property
    def active_row_map(self) -> np.ndarray:
        """Copy of the logical-to-physical row-remap table."""
        return self._row_map.copy()

    @property
    def free_spare_rows(self) -> tuple[int, ...]:
        """Physical indices of spare ring rows not yet consumed."""
        return tuple(self._spare_pool)

    @property
    def remapped_rows(self) -> dict[int, int]:
        """{logical row: physical spare row} for every remapped row."""
        return {
            int(i): int(p)
            for i, p in enumerate(self._row_map)
            if int(p) != int(i)
        }

    @property
    def occupancy(self) -> tuple[int, int]:
        """(r, c) shape of the currently programmed block.

        Cached: the mask scan is O(rows x cols) and this sits on every
        MVM call; every mask mutation site resets the cache.
        """
        if self._occupancy is None:
            if not self._mask.any():
                self._occupancy = (0, 0)
            else:
                self._occupancy = (
                    int(self._mask.any(axis=1).sum()),
                    int(self._mask.any(axis=0).sum()),
                )
        return self._occupancy

    # ------------------------------------------------------------------
    def matmat(self, x: np.ndarray, *, validate: bool = True) -> np.ndarray:
        """Batched MVP: (cols_used, B) inputs -> (rows_used, B) outputs.

        Counts B symbols; the physical bank streams one column per symbol.
        ``validate=False`` skips the E/O range re-check for slabs that
        come straight out of the encoder (``normalize_columns`` bounds
        its output by construction) — the check is an O(cols x B) sweep
        that would otherwise run twice per tile on the batched path.
        """
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2:
            raise ShapeError(f"input must be 2-D, got shape {x.shape}")
        if self._needs_reprogram:
            raise ProgrammingError(
                "bank rows were remapped; reprogram before streaming"
            )
        r, c = self.occupancy
        if x.shape[0] != c:
            raise ShapeError(f"input rows {x.shape[0]} != programmed columns {c}")
        if validate and np.any(np.abs(x) > 1.0 + 1e-9):
            raise ProgrammingError("inputs must lie in [-1, 1] (normalize first)")
        self.stats.symbols += x.shape[1]
        if self.crosstalk is None:
            # Without channel mixing the zero-padded columns contribute
            # exact zeros, so slice the realized block to the programmed
            # width instead of padding the slab — and keep the block a
            # view while no row has ever been remapped.
            if self._row_map_is_identity:
                block = self._realized[:r, :c]
            else:
                block = self._realized[self._row_map[:r], :c]
            return block @ x
        if c == self.cols:
            full = x  # full-width slab: nothing to zero-pad
        else:
            full = np.zeros((self.cols, x.shape[1]), dtype=np.float64)
            full[:c] = x
        return self._realized[self._row_map[:r]] @ (self.crosstalk @ full)

    # ------------------------------------------------------------------
    def realize_virtually(self, weights: np.ndarray) -> np.ndarray:
        """Quantized + programming-noise view of ``weights`` (any shape).

        Applies exactly the level snap and write noise :meth:`program`
        would, but touches neither the bank state nor the accounting.
        Batched emulation paths (e.g. the vectorized outer product, which
        physically re-programs the bank once per sample) use this together
        with :meth:`account_writes` so the arithmetic stays one array pass
        while the event accounting matches the per-sample hardware schedule.
        """
        w = np.asarray(weights, dtype=np.float64)
        if not np.all(np.abs(w) <= 1.0 + 1e-9):
            raise ProgrammingError(
                "weights must be finite and lie in [-1, 1] (normalize first)"
            )
        levels = self._quantize(w)
        noisy = self.noise.apply_programming_noise(levels, self.programming_noise_levels)
        return self._dequantize(np.clip(noisy, 0, self.levels - 1))

    def account_writes(self, events: int, cells_per_event: int) -> None:
        """Charge ``events`` parallel programming operations to the stats.

        Each event writes ``cells_per_event`` cells.  Used when a batched
        path emulates per-sample reprogramming arithmetically (see
        :meth:`realize_virtually`); the energy/time/cell accounting is
        identical to ``events`` real :meth:`program` calls.
        """
        if events < 0 or cells_per_event < 0:
            raise ProgrammingError("write accounting takes non-negative counts")
        self.stats.write_events += events
        self.stats.cells_written += events * cells_per_event
        self.stats.write_energy_j += events * self.tuning.write_energy(cells_per_event)
        self.stats.write_time_s += events * self.tuning.write_time()

    def account_symbols(self, n_symbols: int) -> None:
        """Charge ``n_symbols`` streamed input vectors to the stats.

        Companion of :meth:`account_writes` for emulated streaming.
        """
        if n_symbols < 0:
            raise ProgrammingError("symbol accounting takes non-negative counts")
        self.stats.symbols += n_symbols

    # ------------------------------------------------------------------
    def hold_energy(self, duration_s: float) -> float:
        """Energy to hold the programmed weights for ``duration_s``.

        Zero for GST (non-volatile); the thermal baselines pay
        1.7 mW x cells x duration.
        """
        r, c = self.occupancy
        return self.tuning.hold_energy(r * c, duration_s)

    # ------------------------------------------------------------------
    # Faults and repair
    # ------------------------------------------------------------------
    def inject_stuck_faults(
        self,
        fraction: float,
        rng: np.random.Generator,
        stuck_level: int | None = None,
    ) -> int:
        """Mark a random fraction of cells as stuck-at faults.

        The classic PCM failure mode: a worn-out cell no longer switches
        and holds one level forever (``stuck_level``; default is the
        mid-grid level, i.e. weight 0 — a stuck-amorphous/crystalline cell
        can be modeled by passing 0 or ``levels - 1``).  Faults apply to
        every subsequent ``program`` call and cover the *whole physical
        array*, spare ring rows included (spares wear like any other
        ring).  Returns the number of cells newly stuck.  Raises
        :class:`~repro.errors.FaultError` on invalid arguments.
        """
        if not 0.0 <= fraction <= 1.0:
            raise FaultError(f"fraction must lie in [0, 1], got {fraction}")
        level = (self.levels - 1) // 2 if stuck_level is None else stuck_level
        if not 0 <= level < self.levels:
            raise FaultError(
                f"stuck level must lie in [0, {self.levels - 1}], got {level}"
            )
        new = (
            rng.random((self.physical_rows, self.cols)) < fraction
        ) & ~self._stuck_mask
        self._stuck_mask |= new
        self._stuck_levels[new] = level
        # Physical state updates everywhere immediately; the MVM-coupled
        # weight only inside the programmed block (module state invariant).
        self._levels[new] = level
        apply = new & self._mask
        self._realized[apply] = self._dequantize(np.float64(level))
        return int(new.sum())

    def upset_cells(
        self, n: int, rng: np.random.Generator, delta: float = 0.25
    ) -> int:
        """Silently perturb ``n`` occupied cells' realized weights.

        Models a post-readback upset (radiation strike, thermal
        transient): the MVM-coupled weight changes **without** touching
        the stuck mask, the convergence mask, or the verify readback —
        every health signal stays green while the bank computes wrong
        numbers.  That is the silent-data-corruption scenario the ABFT
        attestation layer (:mod:`repro.integrity`) exists to catch;
        :meth:`inject_stuck_faults` by contrast is *visible* damage the
        repair ladder can detect.  Each perturbed cell moves by
        ``delta`` in normalized weight units with a sign drawn from
        ``rng``, clipped to [-1, 1].  Returns the cells perturbed (0
        when nothing is programmed).
        """
        if n < 0:
            raise FaultError(f"upset count must be >= 0, got {n}")
        if delta <= 0:
            raise FaultError(f"upset delta must be positive, got {delta}")
        r, c = self.occupancy
        if r == 0 or c == 0:
            return 0
        n = min(int(n), r * c)
        flat = rng.choice(r * c, size=n, replace=False)
        rows_logical, cols = np.divmod(flat, c)
        signs = rng.integers(0, 2, n) * 2 - 1
        phys = self._row_map[rows_logical]
        self._realized[phys, cols] = np.clip(
            self._realized[phys, cols] + signs * float(delta), -1.0, 1.0
        )
        return int(n)

    @property
    def stuck_fraction(self) -> float:
        """Fraction of physical cells (spares included) currently stuck."""
        return float(self._stuck_mask.mean())

    def row_stuck_counts(self, cols_used: int | None = None) -> np.ndarray:
        """Ground-truth stuck-cell count per *logical* row.

        Counts over the first ``cols_used`` columns (default: all).  This
        is the omniscient view for tests/reports; online repair decisions
        use the :class:`~repro.faults.FaultDetector`'s inferred map.
        """
        c = self.cols if cols_used is None else cols_used
        if not 0 <= c <= self.cols:
            raise FaultError(f"cols_used must lie in [0, {self.cols}], got {c}")
        return self._stuck_mask[self._row_map, :c].sum(axis=1)

    def selftest(self, writer, test_levels: tuple[int, ...] = (64, 190)) -> list:
        """March-style built-in self-test of every physical ring row.

        Program-verifies each test level onto the *whole* physical array
        (spare rows included — the only way to learn spare health before
        trusting a remap to one).  A stuck cell fails every pattern whose
        level sits outside verify tolerance of its stuck level, so two
        well-separated patterns give two strikes to almost any stuck cell;
        a cell stuck *at* a test level escapes that pattern and is caught
        later by online write readback instead.  Each pattern is charged
        as a full-array write (pulses + verify reads); the test clobbers
        the programmed weights, so the bank refuses MVMs until the caller
        reprograms it.  Returns the per-pattern ProgramVerifyResults
        (physical shape).
        """
        if not test_levels:
            raise FaultError("selftest needs at least one test level")
        results = []
        for level in test_levels:
            if not 0 <= level < self.levels:
                raise FaultError(
                    f"test level must lie in [0, {self.levels - 1}], got {level}"
                )
            targets = np.full(
                (self.physical_rows, self.cols), float(level), dtype=np.float64
            )
            if self._stuck_mask.any():
                result = writer.write(
                    targets,
                    frozen_mask=self._stuck_mask,
                    frozen_levels=self._stuck_levels.astype(np.float64),
                )
            else:
                result = writer.write(targets)
            self._levels[:] = np.rint(
                np.clip(result.achieved_levels, 0, self.levels - 1)
            ).astype(np.int64)
            self.stats.write_events += 1
            self.stats.cells_written += result.total_pulses
            self.stats.write_energy_j += (
                result.total_pulses * writer.config.write_energy_j
                + result.total_reads * writer.config.read_energy_j
            )
            rounds = max(int(result.pulses.max(initial=0)), 1)
            self.stats.write_time_s += rounds * self.tuning.write_time()
            results.append(result)
        self._realized[:] = 0.0
        self._mask[:] = False
        self._occupancy = None
        self._needs_reprogram = True
        return results

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of every mutable bank state: physical GST levels,
        realized/occupancy/stuck/converged masks, the row-remap table and
        spare pool, and the cumulative write/usage counters.  Arrays are
        copies; the snapshot is safe to hold across further bank use."""
        return {
            "rows": self.rows,
            "cols": self.cols,
            "spare_rows": self.spare_rows,
            "levels": self.levels,
            "levels_array": self._levels.copy(),
            "realized": self._realized.copy(),
            "mask": self._mask.copy(),
            "stuck_mask": self._stuck_mask.copy(),
            "stuck_levels": self._stuck_levels.copy(),
            "row_map": self._row_map.copy(),
            "spare_pool": list(self._spare_pool),
            "needs_reprogram": self._needs_reprogram,
            "last_converged": (
                None if self._last_converged is None else self._last_converged.copy()
            ),
            "last_level_errors": (
                None
                if self._last_level_errors is None
                else self._last_level_errors.copy()
            ),
            "unconverged_mask": self._unconverged_mask.copy(),
            "stats": {
                "write_events": self.stats.write_events,
                "cells_written": self.stats.cells_written,
                "write_energy_j": self.stats.write_energy_j,
                "write_time_s": self.stats.write_time_s,
                "symbols": self.stats.symbols,
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this bank.

        The bank must have been constructed with the same geometry and
        level grid; a mismatch raises
        :class:`~repro.errors.CheckpointError` rather than silently
        loading a foreign snapshot.  Arrays are copied: later writes to
        this bank never reach the snapshot, so one snapshot can seed many
        banks, or be restored again.
        """
        from repro.errors import CheckpointError

        for name, expected in (
            ("rows", self.rows),
            ("cols", self.cols),
            ("spare_rows", self.spare_rows),
            ("levels", self.levels),
        ):
            if int(state[name]) != expected:
                raise CheckpointError(
                    f"bank snapshot {name}={state[name]} does not match this "
                    f"bank's {name}={expected}"
                )
        shape = (self.physical_rows, self.cols)
        self._levels = np.array(state["levels_array"], dtype=np.int64).reshape(shape)
        self._realized = np.array(state["realized"], dtype=np.float64).reshape(shape)
        self._mask = np.array(state["mask"], dtype=bool).reshape(shape)
        self._occupancy = None
        self._stuck_mask = np.array(state["stuck_mask"], dtype=bool).reshape(shape)
        self._stuck_levels = np.array(state["stuck_levels"], dtype=np.int64).reshape(
            shape
        )
        self._row_map = np.array(state["row_map"], dtype=np.int64).reshape(self.rows)
        self._row_map_is_identity = bool(
            np.array_equal(self._row_map, np.arange(self.rows))
        )
        self._spare_pool = [int(s) for s in state["spare_pool"]]
        self._needs_reprogram = bool(state["needs_reprogram"])
        self._last_converged = (
            None
            if state["last_converged"] is None
            else np.array(state["last_converged"], dtype=bool)
        )
        self._unconverged_fraction = None
        self._last_level_errors = (
            None
            if state["last_level_errors"] is None
            else np.array(state["last_level_errors"], dtype=np.float64)
        )
        self._unconverged_mask = np.array(
            state["unconverged_mask"], dtype=bool
        ).reshape(shape)
        stats = state["stats"]
        self.stats = BankStats(
            write_events=int(stats["write_events"]),
            cells_written=int(stats["cells_written"]),
            write_energy_j=float(stats["write_energy_j"]),
            write_time_s=float(stats["write_time_s"]),
            symbols=int(stats["symbols"]),
        )

    def remap_row(self, logical_row: int, spare_physical: int | None = None) -> int:
        """Retire a logical row's physical ring row onto a spare row.

        A control-unit routing change: the row's detector terminates the
        spare ring row instead of the worn one.  The remap itself costs
        nothing, but it leaves the bank **unprogrammed at the new row** —
        the next MVM is refused until the caller reprograms (the repair
        engine always reprograms immediately, paying the normal write
        accounting; no free writes).  Returns the new physical row index.
        """
        if not 0 <= logical_row < self.rows:
            raise FaultError(
                f"logical row must lie in [0, {self.rows - 1}], got {logical_row}"
            )
        if not self._spare_pool:
            raise RepairError(
                f"bank has no free spare rows left (spare_rows={self.spare_rows})"
            )
        if spare_physical is None:
            spare_physical = self._spare_pool[0]
        if spare_physical not in self._spare_pool:
            raise RepairError(
                f"physical row {spare_physical} is not a free spare "
                f"(free: {self._spare_pool})"
            )
        self._spare_pool.remove(spare_physical)
        old = int(self._row_map[logical_row])
        self._row_map[logical_row] = spare_physical
        self._row_map_is_identity = False
        # The retired row no longer terminates a detector: decouple it from
        # the MVM view.  Its physical (possibly stuck) levels remain.
        self._mask[old] = False
        self._occupancy = None
        self._realized[old] = 0.0
        self._needs_reprogram = True
        return int(spare_physical)


def compensate_crosstalk(weights: np.ndarray, crosstalk: np.ndarray) -> np.ndarray:
    """Pre-compensate a weight matrix for known WDM crosstalk.

    With leakage matrix C (diag 1), a bank programmed with W realizes
    ``y = W C x``.  Because C is deterministic and measurable, the control
    unit can program ``W' = W C^{-1}`` instead, so the realized product is
    exactly ``W x`` — the per-weight calibration step real broadcast-and-
    weight systems perform (Tait et al., paper ref [32]).

    Raises if C is singular or if compensation pushes weights outside the
    programmable [-1, 1] range (then the leakage is too strong to absorb
    at full weight swing — reduce the swing or the channel count).
    """
    c = np.asarray(crosstalk, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise ShapeError(f"crosstalk matrix must be square, got {c.shape}")
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    if w.shape[1] != c.shape[0]:
        raise ShapeError(
            f"weights have {w.shape[1]} columns but crosstalk is {c.shape[0]}x{c.shape[0]}"
        )
    try:
        compensated = np.linalg.solve(c.T, w.T).T
    except np.linalg.LinAlgError as exc:
        raise ProgrammingError(f"crosstalk matrix not invertible: {exc}") from exc
    if np.max(np.abs(compensated)) > 1.0 + 1e-9:
        raise ProgrammingError(
            "crosstalk compensation exceeds the programmable weight range; "
            "reduce weight swing or channel leakage"
        )
    return compensated

"""The repair policy ladder: retry, spare-ring remap, tile migration.

Three mechanisms, ordered by cost, applied cumulatively (each policy tier
includes the cheaper ones):

1. **Retry** — rewrite the tile with an escalated pulse budget.  Fixes
   transient non-convergence (a healthy cell that ran out of iterations);
   cannot fix a stuck cell, which ignores pulses by definition.
2. **Spare remap** — route a logical row whose inferred faulty-cell count
   crosses threshold onto a spare ring row
   (:meth:`repro.arch.WeightBank.remap_row`), picking the spare the fault
   map believes cleanest, then reprogram the tile.  The routing change is
   free (control-unit mux); the reprogram pays normal write accounting.
3. **Tile migration** — move the whole tile onto a freshly allocated PE
   (:meth:`repro.arch.TridentAccelerator.migrate_tile`) when a bank is too
   far gone for its spare pool, then reprogram there.  Bounded by the
   configured PE budget and ``max_migrations``.

Health is judged from readback only: a tile is healthy when its last
verified write's worst |achieved - target| is within
``tile_error_budget_levels``.  Every repair write flows through
:meth:`~repro.arch.TridentAccelerator.reprogram_tile`, so repair
energy/latency lands in ``BankStats`` / ``EventCounters`` / the
``energy_estimate_j`` / ``time_estimate_s`` roll-ups exactly like any
other write — no free repairs.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import ConfigError, RepairError
from repro.faults.detector import FaultDetector
from repro.telemetry.log import get_logger
from repro.telemetry.session import (
    counter as _metric_counter,
    emit_event as _emit_event,
)

_log = get_logger("repro.faults.repair")


class RepairPolicy(enum.Enum):
    """Repair aggressiveness tiers (cumulative: SPARE includes RETRY)."""

    NONE = "none"
    RETRY = "retry"
    SPARE = "spare"
    REMAP = "remap"

    @property
    def tier(self) -> int:
        """Numeric rank for cumulative comparisons."""
        return ("none", "retry", "spare", "remap").index(self.value)

    @classmethod
    def parse(cls, name: "RepairPolicy | str") -> "RepairPolicy":
        """Accept an enum member or its string value."""
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError as exc:
            valid = ", ".join(p.value for p in cls)
            raise ConfigError(
                f"unknown repair policy {name!r} (valid: {valid})"
            ) from exc


@dataclass(frozen=True)
class RepairConfig:
    """Knobs for the repair ladder.

    The ladder's thresholds are class constants: every caller repairs
    with the same retry budget, health criterion and remap trigger.
    """

    policy: RepairPolicy = RepairPolicy.SPARE
    #: When set, a tile is healthy only if its last verified write also
    #: left at most this fraction of cells unconverged — the criterion a
    #: caller that gates on ``unconverged_fraction`` must repair to, or
    #: a tile within the error budget could still fail that gate with
    #: nothing left to repair it.  None judges by the error budget alone.
    max_unconverged_fraction: float | None = None
    #: Tile migrations allowed per repair sweep (PEs are the scarcest
    #: resource — a migration permanently consumes one).
    max_migrations: int = 1

    #: Escalated-rewrite attempts per tile before moving up the ladder.
    max_retries: ClassVar[int] = 2
    #: Pulse-budget multiplier per retry (attempt k uses backoff**k).
    backoff: ClassVar[float] = 2.0
    #: A tile is healthy when its last readback's worst |achieved-target|
    #: is within this many levels (well beyond verify tolerance but far
    #: below a stuck cell's typical error).
    tile_error_budget_levels: ClassVar[float] = 4.0
    #: Remap a logical row once this many of its cells are flagged faulty.
    row_fault_threshold: ClassVar[int] = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "policy", RepairPolicy.parse(self.policy))
        if self.max_unconverged_fraction is not None and not (
            0.0 <= self.max_unconverged_fraction < 1.0
        ):
            raise ConfigError(
                "max_unconverged_fraction must be in [0, 1), got "
                f"{self.max_unconverged_fraction}"
            )
        if self.max_migrations < 0:
            raise ConfigError(
                f"max_migrations must be >= 0, got {self.max_migrations}"
            )


@dataclass
class RepairLog:
    """What a repair sweep actually did."""

    retries: int = 0
    row_remaps: int = 0
    migrations: int = 0
    tiles_unrepaired: int = 0
    refreshes: int = 0
    #: Batches that failed ABFT attestation beyond local recovery on
    #: this accelerator (noted by the integrity ladder, not by repair
    #: itself) — part of the worker's health history.
    sdc_escalations: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict view (stable key order) for reports."""
        return {
            "retries": self.retries,
            "row_remaps": self.row_remaps,
            "migrations": self.migrations,
            "tiles_unrepaired": self.tiles_unrepaired,
            "refreshes": self.refreshes,
            "sdc_escalations": self.sdc_escalations,
        }


class FaultManager:
    """Closes the loop: detector observations -> repair actions.

    Owns a :class:`~repro.faults.detector.FaultDetector` attached to the
    accelerator's write hook and walks the repair ladder per tile after
    every deployment (and on demand between training steps).  Requires
    program-verify to be enabled on the accelerator — without readback
    there is nothing to detect faults from.
    """

    def __init__(
        self,
        accelerator,
        detector: FaultDetector | None = None,
        config: RepairConfig | None = None,
    ) -> None:
        self.acc = accelerator
        self.config = config or RepairConfig()
        if (
            self.config.policy is not RepairPolicy.NONE
            and accelerator.verify_writer is None
        ):
            raise ConfigError(
                "fault repair needs program-verify readback; construct the "
                "accelerator with program_verify=ProgramVerifyConfig(...)"
            )
        if detector is None:
            detector = FaultDetector().attach(accelerator)
        self.detector = detector
        self.log = RepairLog()
        self._screened: set[int] = set()

    # ------------------------------------------------------------------
    def deploy(self, weights: list[np.ndarray]) -> RepairLog:
        """Program weights, then repair every unhealthy tile.

        The deployment writes feed the detector (each tile's verify
        readback is its health screen), so repair can act immediately.
        Returns the cumulative repair log.
        """
        self.acc.set_weights(weights)
        return self.repair()

    def repair(self) -> RepairLog:
        """One repair sweep over every mapped tile."""
        for layer in self.acc.layers:
            for tile_index in range(len(layer.tiles)):
                self._repair_tile(layer.index, tile_index)
        return self.log

    # ------------------------------------------------------------------
    def _tile_healthy(self, pe_index: int) -> bool:
        bank = self.acc.pes[pe_index].bank
        errors = bank.last_write_error_levels
        if errors is None:
            # Never verified: no evidence of trouble (NONE-policy banks).
            return True
        if float(np.max(errors, initial=0.0)) > self.config.tile_error_budget_levels:
            return False
        limit = self.config.max_unconverged_fraction
        return limit is None or bank.unconverged_fraction <= limit

    def _repaired(self, tier: str, layer_index: int, tile_index: int) -> None:
        """Record one successful repair (log line, counter, event)."""
        _log.info(
            "repaired layer %d tile %d via %s", layer_index, tile_index, tier
        )
        _metric_counter("repro_repairs_total", tier=tier).inc()
        _emit_event("repair", tier=tier, layer=layer_index, tile=tile_index)

    def _repair_tile(self, layer_index: int, tile_index: int) -> None:
        policy = self.config.policy
        if policy is RepairPolicy.NONE:
            return
        if self._tile_healthy(self._pe_of(layer_index, tile_index)):
            return
        _log.debug(
            "layer %d tile %d unhealthy; starting repair ladder (policy %s)",
            layer_index, tile_index, policy.value,
        )

        # Tier 1: retry with an escalating pulse budget.  Clears transient
        # non-convergence; stuck cells ignore pulses and stay flagged.
        for attempt in range(1, self.config.max_retries + 1):
            writer = self.acc.verify_writer.escalated(self.config.backoff**attempt)
            self.acc.reprogram_tile(layer_index, tile_index, writer=writer)
            self.log.retries += 1
            if self._tile_healthy(self._pe_of(layer_index, tile_index)):
                self._repaired("retry", layer_index, tile_index)
                return

        # Tier 2: remap worn logical rows onto spare ring rows.  Screen
        # the bank first (once) so the spare choice rests on measured
        # health, not on optimism about never-written rings.  Screening
        # costs two full-array writes per bank, charged like any write.
        if policy.tier >= RepairPolicy.SPARE.tier:
            self._screen(layer_index, tile_index)
            if self._tile_healthy(self._pe_of(layer_index, tile_index)):
                self._repaired("retry", layer_index, tile_index)
                return
            if self._remap_worn_rows(layer_index, tile_index):
                if self._tile_healthy(self._pe_of(layer_index, tile_index)):
                    self._repaired("spare", layer_index, tile_index)
                    return

        # Tier 3: migrate the whole tile to a fresh PE.
        if policy.tier >= RepairPolicy.REMAP.tier:
            if self._migrate(layer_index, tile_index):
                if self._tile_healthy(self._pe_of(layer_index, tile_index)):
                    self._repaired("migrate", layer_index, tile_index)
                    return

        # Graceful degradation: out of mechanisms — the tile keeps serving
        # with whatever accuracy its surviving cells deliver.
        self.log.tiles_unrepaired += 1
        _log.warning(
            "layer %d tile %d left unrepaired (policy %s exhausted); "
            "serving degraded",
            layer_index, tile_index, policy.value,
        )
        _metric_counter("repro_tiles_unrepaired_total").inc()
        _emit_event(
            "degradation", layer=layer_index, tile=tile_index, policy=policy.value
        )

    def _pe_of(self, layer_index: int, tile_index: int) -> int:
        return self.acc.layers[layer_index].tiles[tile_index][4]

    def _screen(self, layer_index: int, tile_index: int) -> None:
        """Self-test this tile's bank once, then restore its weights."""
        pe_index = self._pe_of(layer_index, tile_index)
        if pe_index in self._screened:
            return
        bank = self.acc.pes[pe_index].bank
        self.detector.screen(pe_index, bank, self.acc.verify_writer)
        self._screened.add(pe_index)
        # The test clobbered the weights; the restore write is the
        # screening's second (charged) half and refreshes the readback.
        self.acc.reprogram_tile(layer_index, tile_index)

    def _remap_worn_rows(self, layer_index: int, tile_index: int) -> bool:
        """Remap every over-threshold logical row this tile uses.

        Row choice comes from the detector's *inferred* map (no oracle);
        spare choice prefers the spare the map believes cleanest.  Stops
        when the spare pool runs dry.  Returns True if any row moved (the
        tile is reprogrammed once afterwards, paying the write cost).
        """
        pe_index = self._pe_of(layer_index, tile_index)
        bank = self.acc.pes[pe_index].bank
        fault_map = self.detector.map_for(pe_index)
        if fault_map is None:
            return False
        r0, r1, c0, c1, _ = self.acc.layers[layer_index].tiles[tile_index]
        cols_used = c1 - c0
        counts = fault_map.row_fault_counts(bank, cols_used)
        worn = sorted(
            (
                row
                for row in range(r1 - r0)
                if counts[row] >= self.config.row_fault_threshold
            ),
            key=lambda row: -counts[row],
        )
        moved = False
        for row in worn:
            spares = fault_map.spare_fault_counts(bank, cols_used)
            if not spares:
                break
            best = min(spares, key=lambda s: (spares[s], s))
            if spares[best] >= counts[row]:
                # No spare measurably better than the worn row: remapping
                # would trade known damage for equal-or-worse damage.
                # Worst rows were served first, so no later row does
                # better either — stop and degrade gracefully.
                break
            try:
                bank.remap_row(row, best)
            except RepairError:
                break
            self.log.row_remaps += 1
            moved = True
            _log.debug(
                "remapped row %d -> spare %d on layer %d tile %d",
                row, best, layer_index, tile_index,
            )
        if moved:
            # The bank refuses MVMs until the remapped rows hold weights
            # again; the reprogram is the (charged) second half of repair.
            self.acc.reprogram_tile(layer_index, tile_index)
        return moved

    def _migrate(self, layer_index: int, tile_index: int) -> bool:
        """Move the tile to a new PE and reprogram it there."""
        if self.log.migrations >= self.config.max_migrations:
            return False
        try:
            self.acc.migrate_tile(layer_index, tile_index)
        except RepairError:
            return False
        self.log.migrations += 1
        _log.info(
            "migrated layer %d tile %d to a fresh PE", layer_index, tile_index
        )
        self.acc.reprogram_tile(layer_index, tile_index)
        return True

    # ------------------------------------------------------------------
    def note_sdc(self) -> None:
        """Charge one escalated SDC incident to this accelerator's log.

        Called by the integrity escalation ladder when a batch fails
        attestation beyond local recovery — the worker's health history
        must reflect that its silicon produced corrupt numbers even
        though no tile was (yet) condemned by readback.
        """
        self.log.sdc_escalations += 1

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the repair log, screened-bank set, and the owned
        detector's fault maps — everything a resumed run needs for the
        repair ladder to pick up exactly where it left off."""
        return {
            "log": self.log.as_dict(),
            "screened": sorted(self._screened),
            "detector": self.detector.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        log = state["log"]
        self.log = RepairLog(
            retries=int(log["retries"]),
            row_remaps=int(log["row_remaps"]),
            migrations=int(log["migrations"]),
            tiles_unrepaired=int(log["tiles_unrepaired"]),
            refreshes=int(log["refreshes"]),
            # Absent from pre-integrity snapshots; default keeps them
            # loadable.
            sdc_escalations=int(log.get("sdc_escalations", 0)),
        )
        self._screened = {int(pe) for pe in state["screened"]}
        self.detector.load_state_dict(state["detector"])

    # ------------------------------------------------------------------
    def maybe_refresh(
        self, age_s: float, temperature_k: float = 300.0
    ) -> bool:
        """Reprogram every tile if retention drift exceeds its budget.

        The scheduled-maintenance half of fault management: drift is
        deterministic aging, not a cell failure, so the fix is a plain
        refresh write (again fully charged).  Returns True if refreshed.
        """
        first_bank = self.acc.pes[0].bank if self.acc.pes else None
        step = first_bank.weight_step if first_bank is not None else 2.0 / 254.0
        health = self.detector.check_drift(
            age_s, temperature_k, weight_step=step
        )
        if not health.needs_refresh:
            return False
        for layer in self.acc.layers:
            for tile_index in range(len(layer.tiles)):
                self.acc.reprogram_tile(layer.index, tile_index)
        self.log.refreshes += 1
        return True

"""Iterative program-and-verify writing for multilevel GST cells.

Hitting one of 255 analog levels with a single optical pulse is optimistic:
real multilevel PCM programming applies a pulse, *reads back* the achieved
level, and re-pulses until the cell lands within tolerance (standard
practice in the PCM literature the paper builds on, e.g. ref [5]'s
255-level devices).  This module models that loop:

- each pulse lands at ``target + N(0, write_std)`` levels;
- each verify read observes the state through ``N(0, read_std)`` noise;
- the loop re-pulses until the *read* is within ``tolerance`` levels or the
  iteration cap is hit.

The controller reports achieved levels, pulses consumed (extra energy and
endurance), and convergence — fully vectorized over a whole weight bank.
The loop keeps the still-unconverged cells as a compacted, ascending array
of flat indices (their targets shrink along with it), so each iteration
touches only the cells it pulses and draws their noise in flat cell order;
there are no per-cell Python loops and no full-size mask re-indexing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import PJ
from repro.errors import ConfigError, ProgrammingError


@dataclass(frozen=True)
class ProgramVerifyConfig:
    """Stochastic write/read model + acceptance policy."""

    #: Per-pulse placement error [levels, 1 sigma].
    write_std_levels: float = 1.5
    #: Verify-read observation noise [levels, 1 sigma].
    read_std_levels: float = 0.3
    #: Accept when the verify read is within this many levels of target.
    tolerance_levels: float = 1.0
    #: Give up (keep best effort) after this many pulses per cell.
    max_iterations: int = 10
    #: Level grid size (255 for 8-bit GST).
    levels: int = 255
    write_energy_j: float = 660 * PJ
    read_energy_j: float = 20 * PJ

    def __post_init__(self) -> None:
        if self.write_std_levels < 0 or self.read_std_levels < 0:
            raise ConfigError("noise sigmas must be non-negative")
        if self.tolerance_levels <= 0:
            raise ConfigError("tolerance must be positive")
        if self.max_iterations < 1:
            raise ConfigError("need at least one iteration")
        if self.levels < 2:
            raise ConfigError("need at least 2 levels")


def _on_grid(levels: np.ndarray, top: int) -> bool:
    """True iff every level lies in [0, top]; written so NaN fails it."""
    return bool(np.all((levels >= 0) & (levels <= top)))


@dataclass(frozen=True)
class ProgramVerifyResult:
    """Outcome of one bank-wide program-verify operation."""

    achieved_levels: np.ndarray
    #: Write pulses per cell; every pulse is followed by one verify read.
    pulses: np.ndarray
    converged: np.ndarray
    config: ProgramVerifyConfig

    @property
    def total_pulses(self) -> int:
        """Total write pulses across all cells."""
        return int(self.pulses.sum())

    @property
    def total_reads(self) -> int:
        """Total verify reads across all cells (one per pulse)."""
        return self.total_pulses

    @property
    def mean_pulses_per_cell(self) -> float:
        """Average pulses a cell needed."""
        return float(self.pulses.mean())

    @property
    def convergence_rate(self) -> float:
        """Fraction of cells that landed within tolerance."""
        return float(self.converged.mean())

    @property
    def energy_j(self) -> float:
        """Total programming energy including verify reads."""
        return (
            self.total_pulses * self.config.write_energy_j
            + self.total_reads * self.config.read_energy_j
        )

    def level_errors(self, targets: np.ndarray) -> np.ndarray:
        """Achieved-minus-target, in levels."""
        return self.achieved_levels - np.asarray(targets, dtype=np.float64)


class ProgramVerifyWriter:
    """Vectorized iterative program-and-verify controller.

    ``rng`` lets a caller (e.g. :class:`repro.arch.TridentAccelerator`)
    thread one shared seeded generator through every write so repeated
    campaign runs with the same seed are bit-identical; without it the
    writer owns a private ``default_rng(seed)``.
    """

    def __init__(
        self,
        config: ProgramVerifyConfig | None = None,
        seed: int = 0,
        rng: np.random.Generator | None = None,
    ) -> None:
        self.config = config or ProgramVerifyConfig()
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def escalated(self, factor: float) -> "ProgramVerifyWriter":
        """A writer with ``factor``-times the iteration budget, same RNG.

        The retry-with-backoff repair policy re-attempts a failed write
        with an escalating pulse budget; sharing the generator keeps the
        whole campaign on one deterministic draw stream.
        """
        if factor < 1.0:
            raise ConfigError(f"escalation factor must be >= 1, got {factor}")
        from dataclasses import replace

        cfg = replace(
            self.config,
            max_iterations=max(int(self.config.max_iterations * factor), 1),
        )
        writer = ProgramVerifyWriter(cfg)
        writer._rng = self._rng
        return writer

    def write(
        self,
        target_levels: np.ndarray,
        frozen_mask: np.ndarray | None = None,
        frozen_levels: np.ndarray | None = None,
    ) -> ProgramVerifyResult:
        """Program every cell to its integer target level.

        One pass per iteration over the still-unconverged cells, kept as
        an ascending array of flat indices; all draws vectorized, one per
        pending cell in flat order.  Cells flagged in ``frozen_mask``
        model worn-out PCM: pulses land them at ``frozen_levels``
        regardless of target (the cell no longer switches), so they
        converge only when their frozen level already sits within
        tolerance of the target — otherwise they burn the full iteration
        budget and surface in the ``converged`` mask, which is exactly the
        readback signal online fault detection keys on.
        """
        cfg = self.config
        top = cfg.levels - 1
        targets = np.asarray(target_levels, dtype=np.float64)
        if not _on_grid(targets, top):
            raise ProgrammingError(f"targets must be finite and lie in [0, {top}]")
        frozen = None
        if frozen_mask is not None:
            frozen = np.asarray(frozen_mask, dtype=bool)
            if frozen.shape != targets.shape:
                raise ProgrammingError(
                    f"frozen mask shape {frozen.shape} != targets {targets.shape}"
                )
            frozen_levels = np.asarray(frozen_levels, dtype=np.float64)
            if frozen_levels.shape != targets.shape:
                raise ProgrammingError(
                    f"frozen levels shape {frozen_levels.shape} != targets "
                    f"{targets.shape}"
                )
            if not _on_grid(frozen_levels[frozen], top):
                raise ProgrammingError(
                    f"frozen levels must be finite and lie in [0, {top}]"
                )
            frozen = frozen.ravel()
            frozen_levels = frozen_levels.ravel()
        shape = targets.shape
        achieved = np.full(targets.size, np.nan)
        pulses = np.zeros(targets.size, dtype=np.int64)
        # Flat indices of the unconverged cells; ``targets`` (and the frozen
        # arrays) are compacted alongside, so entry i belongs to pending[i].
        pending = np.arange(targets.size)
        targets = targets.ravel()

        for pulse in range(1, cfg.max_iterations + 1):
            n = pending.size
            if not n:
                break
            # Pulse: land near the target with placement error.
            landed = targets + self._rng.standard_normal(n) * cfg.write_std_levels
            landed.clip(0, top, out=landed)
            if frozen is not None:
                # Worn cells ignore the pulse and stay at their stuck level.
                landed = np.where(frozen, frozen_levels, landed)
            achieved[pending] = landed
            pulses[pending] = pulse
            # Verify read; a cell retries unless the read is within
            # tolerance (written so a NaN read retries too).
            observed = landed + self._rng.standard_normal(n) * cfg.read_std_levels
            retry = ~(np.abs(observed - targets) <= cfg.tolerance_levels)
            pending = pending[retry]
            targets = targets[retry]
            if frozen is not None:
                frozen = frozen[retry]
                frozen_levels = frozen_levels[retry]

        converged = np.ones(achieved.size, dtype=bool)
        converged[pending] = False
        return ProgramVerifyResult(
            achieved_levels=achieved.reshape(shape),
            pulses=pulses.reshape(shape),
            converged=converged.reshape(shape),
            config=cfg,
        )

    def expected_pulses_per_cell(self) -> float:
        """Analytical expectation of pulses per cell.

        Acceptance probability per attempt: P(|N(0, s)| <= tol) with
        s^2 = write_std^2 + read_std^2; the pulse count is geometric,
        truncated at max_iterations.
        """
        from math import erf, sqrt

        cfg = self.config
        s = sqrt(cfg.write_std_levels**2 + cfg.read_std_levels**2)
        if s == 0:
            return 1.0
        p = erf(cfg.tolerance_levels / (s * sqrt(2.0)))
        if p <= 0:
            return float(cfg.max_iterations)
        expected = 0.0
        survive = 1.0
        for k in range(1, cfg.max_iterations + 1):
            if k == cfg.max_iterations:
                expected += survive * k
            else:
                expected += survive * p * k
                survive *= 1 - p
        return expected

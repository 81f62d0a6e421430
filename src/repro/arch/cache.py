"""Cache hierarchy energy model.

Each PE owns a 16 kB L1 scratchpad; a 32 MB L2 is shared across the chip
(paper Sec. IV).  The dataflow cost model charges this module for every
byte of input-feature, output-feature, and partial-sum traffic; anything
that does not fit in L2 spills to (modeled) LPDDR.

Per-byte access energies are standard edge-SoC figures; they matter mostly
for the *baselines*, whose ADC + digital-activation path makes a memory
round-trip between every pair of layers that Trident's photonic activation
avoids (paper Sec. III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.constants import KB, MB, PJ
from repro.errors import ConfigError, require_finite_fields


@dataclass(frozen=True)
class CacheConfig:
    """Capacities and per-byte access energies for the hierarchy."""

    l1_bytes: int = 16 * KB
    l2_bytes: int = 32 * MB
    l1_energy_per_byte_j: float = 0.5 * PJ
    l2_energy_per_byte_j: float = 2.0 * PJ
    dram_energy_per_byte_j: float = 20.0 * PJ
    #: Sustainable external-memory bandwidth [bytes/s] (LPDDR4x-class).
    dram_bandwidth_bytes_per_s: float = 25.6e9

    def __post_init__(self) -> None:
        require_finite_fields(self)
        if self.l1_bytes <= 0 or self.l2_bytes <= 0:
            raise ConfigError("cache capacities must be positive")
        for name in (
            "l1_energy_per_byte_j",
            "l2_energy_per_byte_j",
            "dram_energy_per_byte_j",
        ):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.dram_bandwidth_bytes_per_s <= 0:
            raise ConfigError("DRAM bandwidth must be positive")


@dataclass(frozen=True)
class TrafficCost:
    """Energy and transfer-time cost of a block of memory traffic."""

    energy_j: float
    dram_bytes: int
    transfer_time_s: float


@dataclass(frozen=True)
class CacheModel:
    """Charges memory traffic against the hierarchy.

    The model is deliberately simple (the paper's Maestro analysis works at
    the same altitude): a tensor is served by the innermost level it fits
    in, and only DRAM traffic costs wall-clock transfer time (on-chip
    accesses are overlapped with compute).
    """

    config: CacheConfig = CacheConfig()

    def level_for(self, tensor_bytes: int) -> str:
        """Which level serves a tensor of this size: 'l1' | 'l2' | 'dram'."""
        if tensor_bytes < 0:
            raise ConfigError(f"tensor size must be non-negative, got {tensor_bytes}")
        if tensor_bytes <= self.config.l1_bytes:
            return "l1"
        if tensor_bytes <= self.config.l2_bytes:
            return "l2"
        return "dram"

    def energy_per_byte(self, level: str) -> float:
        """Access energy [J/byte] at the named level."""
        try:
            return {
                "l1": self.config.l1_energy_per_byte_j,
                "l2": self.config.l2_energy_per_byte_j,
                "dram": self.config.dram_energy_per_byte_j,
            }[level]
        except KeyError:
            raise ConfigError(f"unknown cache level {level!r}") from None

    def access(self, tensor_bytes: int, times: int = 1) -> TrafficCost:
        """Cost of streaming a tensor ``times`` times through its level."""
        if times < 0:
            raise ConfigError(f"times must be non-negative, got {times}")
        level = self.level_for(tensor_bytes)
        total = tensor_bytes * times
        energy = total * self.energy_per_byte(level)
        dram_bytes = total if level == "dram" else 0
        transfer = dram_bytes / self.config.dram_bandwidth_bytes_per_s
        return TrafficCost(energy_j=energy, dram_bytes=dram_bytes, transfer_time_s=transfer)

    @cached_property
    def _levels(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Upper size bounds of levels 0 and 1, then per level (L1, L2,
        DRAM) the per-byte energy and whether traffic there is DRAM."""
        cfg = self.config
        bounds = np.array((cfg.l1_bytes, max(cfg.l1_bytes, cfg.l2_bytes)))
        energies = np.array(
            (cfg.l1_energy_per_byte_j, cfg.l2_energy_per_byte_j, cfg.dram_energy_per_byte_j)
        )
        return bounds, energies, np.array((0, 0, 1))

    def access_columns(
        self, tensor_bytes: np.ndarray, times: np.ndarray | int
    ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`access` over int64 columns: (energy [J], transfer time [s]).

        Each entry is the float :meth:`access` gives for that tensor size
        and count, from the same checks, levels and operations.  One
        ``searchsorted`` finds each tensor's level as :meth:`level_for`
        does: 0 (L1), 1 (L2) or 2 (DRAM), and a tensor larger than L1 goes
        to DRAM when L2 is the smaller level.
        """
        low = np.asarray(times).min(initial=0)
        if low < 0:
            raise ConfigError(f"times must be non-negative, got {low}")
        low = tensor_bytes.min(initial=0)
        if low < 0:
            raise ConfigError(f"tensor size must be non-negative, got {low}")
        bounds, energies, in_dram = self._levels
        level = np.searchsorted(bounds, tensor_bytes)
        total = tensor_bytes * times
        dram_bytes = total * in_dram[level]
        return (
            total * energies[level],
            dram_bytes / self.config.dram_bandwidth_bytes_per_s,
        )

"""Cache hierarchy energy model.

Each PE owns a 16 kB L1 scratchpad; a 32 MB L2 is shared across the chip
(paper Sec. IV).  The dataflow cost model charges this module for every
byte of input-feature, output-feature, and partial-sum traffic; anything
that does not fit in L2 spills to (modeled) LPDDR.

Per-byte access energies are standard edge-SoC figures; they matter mostly
for the *baselines*, whose ADC + digital-activation path makes a memory
round-trip between every pair of layers that Trident's photonic activation
avoids (paper Sec. III-C).

:meth:`CacheModel.access_columns` is the one cache path: it prices a whole
column of tensors in one pass.  ``tests/test_cost_model_oracle.py`` keeps a
scalar per-tensor copy as the oracle it is checked against.
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
class CacheModel:
    """Charges memory traffic against the hierarchy.

    The model is deliberately simple (the paper's Maestro analysis works at
    the same altitude): a tensor is served by the innermost level it fits
    in, and only DRAM traffic costs wall-clock transfer time (on-chip
    accesses are overlapped with compute).
    """

    config: CacheConfig = CacheConfig()

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
        """Cost of streaming each tensor ``times`` times through its level,
        over int64 columns: (energy [J], transfer time [s]).

        A tensor of ``b`` bytes is served by L1 when ``b <= l1_bytes``, else
        by L2 when ``b <= l2_bytes``, else by DRAM; both bounds are
        inclusive, and a tensor larger than L1 goes to DRAM when L2 is the
        smaller level.  One ``searchsorted`` finds each level: 0 (L1), 1
        (L2) or 2 (DRAM).  The ``b x times`` bytes cost that level's energy
        per byte, and only DRAM bytes take transfer time, at the DRAM
        bandwidth.  A negative size or count raises :class:`ConfigError`.
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

"""Stochastic noise machinery shared by the analog device models.

The functional simulator is deterministic unless a :class:`NoiseModel` is
enabled.  All randomness flows through a single :class:`numpy.random.Generator`
owned by the noise model so that experiments are reproducible from one seed,
and so that the hot paths can draw vectorized samples in one call (the
HPC-style rule: never loop over per-element ``rng.normal`` calls).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError


@dataclass
class NoiseModel:
    """Aggregate analog noise description for photonic MAC paths.

    Parameters
    ----------
    enabled:
        Master switch.  When ``False`` every ``apply_*`` method is an exact
        pass-through, which keeps unit tests of the linear algebra exact.
    shot_noise_coeff:
        Standard deviation of signal-dependent (shot-like) noise expressed as
        a fraction of ``sqrt(|signal|)``.  Photodetector shot noise grows with
        the square root of optical power.
    thermal_noise_std:
        Standard deviation of signal-independent additive noise (detector /
        TIA thermal noise), in normalized signal units.
    rin_coeff:
        Relative-intensity-noise coefficient: multiplicative noise whose
        standard deviation is ``rin_coeff * |signal|``.
    crosstalk_floor:
        Residual inter-channel crosstalk power fraction leaking between WDM
        channels after filtering (applied by bank-level models).
    seed:
        Seed for the owned generator.
    """

    enabled: bool = False
    shot_noise_coeff: float = 0.002
    thermal_noise_std: float = 0.001
    rin_coeff: float = 0.001
    crosstalk_floor: float = 1e-4
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("shot_noise_coeff", "thermal_noise_std", "rin_coeff", "crosstalk_floor"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} must be non-negative, got {value}")
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------
    @classmethod
    def ideal(cls) -> "NoiseModel":
        """A disabled (exact) noise model."""
        return cls(enabled=False)

    @classmethod
    def realistic(cls, seed: int = 0) -> "NoiseModel":
        """Default-calibrated enabled noise model."""
        return cls(enabled=True, seed=seed)

    def reseed(self, seed: int) -> None:
        """Reset the generator; subsequent draws repeat from this seed."""
        self.seed = seed
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The owned generator (for models needing custom draws)."""
        return self._rng

    # ------------------------------------------------------------------
    def apply_detection_noise(self, signal: np.ndarray) -> np.ndarray:
        """Apply shot + thermal + RIN noise to a detected photocurrent array.

        One standard-normal draw into a C-ordered scratch buffer (shape order
        for any input layout).  Returns a new array; the input is never mutated.
        """
        signal = np.asarray(signal, dtype=np.float64)
        if not self.enabled:
            return signal.copy()
        std = np.abs(signal, out=np.empty(signal.shape))
        std *= self.shot_noise_coeff**2
        std += self.thermal_noise_std**2
        z = np.multiply(signal, self.rin_coeff, out=np.empty(signal.shape))
        std += np.square(z, out=z)  # shot² |x| + thermal² + (rin x)²
        self._rng.standard_normal(out=z)
        z *= np.sqrt(std, out=std)
        return np.add(z, signal, out=z)

    def apply_programming_noise(self, levels: np.ndarray, level_std: float) -> np.ndarray:
        """Perturb programmed PCM levels by ``level_std`` (in level units)."""
        levels = np.asarray(levels, dtype=np.float64)
        if not self.enabled or level_std == 0:
            return levels.copy()
        return levels + self._rng.standard_normal(levels.shape) * level_std

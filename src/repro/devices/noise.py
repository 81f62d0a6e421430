"""Stochastic noise machinery shared by the analog device models.

The functional simulator is deterministic unless a :class:`NoiseModel` is
enabled.  All randomness flows through a single :class:`numpy.random.Generator`
owned by the noise model so that experiments are reproducible from one seed,
and so that the hot paths can draw vectorized samples in one call (the
HPC-style rule: never loop over per-element ``rng.normal`` calls).
"""

from __future__ import annotations

import math
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
    seed:
        Seed for the owned generator.
    """

    enabled: bool = False
    shot_noise_coeff: float = 0.002
    thermal_noise_std: float = 0.001
    rin_coeff: float = 0.001
    seed: int = 0
    _rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self) -> None:
        for name in ("shot_noise_coeff", "thermal_noise_std", "rin_coeff"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
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
    def detection_variance(
        self, magnitude: np.ndarray, amplitude: np.ndarray, weight: float = 1.0
    ) -> np.ndarray:
        """Detection-noise variance of one observed value (the noise law).

        One detection of ``x`` has variance shot²·|x| + thermal² + (rin·x)²:
        pass ``magnitude=|x|`` and ``amplitude=x``.  A weighted electronic
        sum of independent detections, Σ_k w_k·x_k, is observed as one value
        whose variance is the weighted sum of theirs: pass ``magnitude`` =
        Σ w_k²·|x_k|, ``amplitude`` = sqrt(Σ w_k²·x_k²) and ``weight`` =
        Σ w_k².  Returns a new array; the arguments are never mutated.
        """
        variance = np.multiply(magnitude, self.shot_noise_coeff**2)
        variance += self.thermal_noise_std**2 * weight
        rin = np.multiply(amplitude, self.rin_coeff)
        variance += np.square(rin, out=rin)
        return variance

    def apply_detection_noise(
        self, signal: np.ndarray, variance: np.ndarray | None = None
    ) -> np.ndarray:
        """Apply shot + thermal + RIN noise to a detected photocurrent array.

        ``variance`` defaults to :meth:`detection_variance` of ``signal`` as
        one detection; a caller observing a sum of detections passes the sum
        of their variances, so each observed value takes one draw.  One
        standard-normal draw in C (shape) order for any input layout.
        Returns a new array; the inputs are never mutated.
        """
        signal = np.asarray(signal, dtype=np.float64)
        if not self.enabled:
            return signal.copy()
        if variance is None:
            variance = self.detection_variance(np.abs(signal), signal)
        z = self._rng.standard_normal(signal.shape)
        z *= np.sqrt(variance)
        return np.add(z, signal, out=z)

    def apply_programming_noise(self, levels: np.ndarray, level_std: float) -> np.ndarray:
        """Perturb programmed PCM levels by ``level_std`` (in level units)."""
        levels = np.asarray(levels, dtype=np.float64)
        if not self.enabled or level_std == 0:
            return levels.copy()
        return levels + self._rng.standard_normal(levels.shape) * level_std

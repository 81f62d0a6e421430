"""Photodetector models: single PD and the balanced pair (BPD).

A balanced photodetector subtracts the photocurrents of two matched diodes.
In Trident each weight-bank row terminates in a BPD whose two inputs are the
summed *drop* and *through* ports of the row's rings — the subtraction is
what turns the add-drop differential transmission into a signed weighted sum
(paper Sec. III-A, ref [2]).

Power/energy figures come from the paper's Table III: the BPD + TIA pair
draws 12.1 mW (ref [19], a co-designed sub-pJ/bit receiver).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import BOLTZMANN, ELEMENTARY_CHARGE, MW, ROOM_TEMPERATURE
from repro.devices.noise import NoiseModel
from repro.errors import ConfigError, DeviceError


@dataclass
class Photodetector:
    """A single photodiode converting optical power to photocurrent.

    Parameters
    ----------
    responsivity_a_per_w:
        Conversion gain [A/W]; Ge-on-Si detectors reach ~1 A/W at 1550 nm.
    dark_current_a:
        Dark current [A], added to every detection.
    bandwidth_hz:
        Detection bandwidth [Hz]; enters the shot/thermal noise variances.
    load_ohms:
        Effective load for thermal (Johnson) noise.
    """

    responsivity_a_per_w: float = 1.0
    dark_current_a: float = 10e-9
    bandwidth_hz: float = 5e9
    load_ohms: float = 50.0

    def __post_init__(self) -> None:
        if self.responsivity_a_per_w <= 0:
            raise ConfigError("responsivity must be positive")
        if self.dark_current_a < 0:
            raise ConfigError("dark current must be non-negative")
        if self.bandwidth_hz <= 0 or self.load_ohms <= 0:
            raise ConfigError("bandwidth and load must be positive")

    def photocurrent(self, optical_power_w: np.ndarray | float) -> np.ndarray:
        """Mean photocurrent [A] for the given optical power (vectorized)."""
        p = np.asarray(optical_power_w, dtype=np.float64)
        if np.any(p < 0):
            raise DeviceError("optical power must be non-negative")
        return self.responsivity_a_per_w * p + self.dark_current_a

    def shot_noise_std(self, optical_power_w: np.ndarray | float) -> np.ndarray:
        """Shot-noise current std [A]: sqrt(2 q I B)."""
        current = self.photocurrent(optical_power_w)
        return np.sqrt(2.0 * ELEMENTARY_CHARGE * current * self.bandwidth_hz)

    def thermal_noise_std(self) -> float:
        """Johnson noise current std [A]: sqrt(4 k T B / R)."""
        return float(
            np.sqrt(4.0 * BOLTZMANN * ROOM_TEMPERATURE * self.bandwidth_hz / self.load_ohms)
        )

    def snr_db(self, optical_power_w: float) -> float:
        """Electrical SNR [dB] of a detection at the given power."""
        if optical_power_w <= 0:
            raise DeviceError("optical power must be positive for SNR")
        signal = self.responsivity_a_per_w * optical_power_w
        noise = np.hypot(self.shot_noise_std(optical_power_w), self.thermal_noise_std())
        return 20.0 * float(np.log10(signal / noise))


@dataclass
class BalancedPhotodetector:
    """Matched photodiode pair producing I_plus - I_minus.

    The subtraction cancels common-mode terms (dark current, bias power) so
    the output is directly proportional to the *signed* optical differential.
    """

    detector: Photodetector = field(default_factory=Photodetector)
    noise: NoiseModel = field(default_factory=NoiseModel.ideal)
    #: Electrical power draw of the BPD half of the receiver [W].
    power_w: float = 4.0 * MW

    def detect(
        self,
        plus_power_w: np.ndarray | float,
        minus_power_w: np.ndarray | float,
    ) -> np.ndarray:
        """Differential photocurrent [A] with optional noise (vectorized)."""
        plus = np.asarray(plus_power_w, dtype=np.float64)
        minus = np.asarray(minus_power_w, dtype=np.float64)
        if plus.shape != minus.shape:
            raise DeviceError(
                f"branch shapes differ: {plus.shape} vs {minus.shape}"
            )
        if np.any(plus < 0) or np.any(minus < 0):
            raise DeviceError("optical powers must be non-negative")
        r = self.detector.responsivity_a_per_w
        diff = r * (plus - minus)  # dark currents cancel
        return self.noise.apply_detection_noise(diff)

    def detect_normalized(
        self,
        differential: np.ndarray | float,
        scale_w: float = 1.0e-3,
    ) -> np.ndarray:
        """Detect a normalized differential signal.

        ``differential`` is a dimensionless signed quantity (e.g. a weighted
        sum of transmissions in [-N, N]) carried at ``scale_w`` watts per unit
        on the two branches and renormalized after detection.  The functional
        MVM uses this entry point: the noise path of :meth:`detect` without
        absolute power units.  -0.0 detects as +0.0; NaN propagates.
        """
        if not scale_w > 0:
            raise DeviceError(f"scale_w must be positive, got {scale_w}")
        r = self.detector.responsivity_a_per_w
        exact = np.asarray(differential, dtype=np.float64) * scale_w  # plus - minus
        exact += 0.0  # -0.0 -> +0.0, as the plus/minus split gave
        if r != 1.0:
            exact *= r
        exact /= r * scale_w
        return self.noise.apply_detection_noise(exact)  # coefficients: normalized units

"""End-to-end physical simulation of one PCM-MRR weight bank.

Everything in absolute units: the laser comb in watts, modulator / bus /
splitter losses in dB, per-ring drop and through powers at the programmed
GST states, balanced photocurrents in amperes with physical shot and
thermal noise, and TIA voltages.  A calibration constant derived from the
link (not fitted) recovers the normalized matrix-vector product, and the
tests assert it agrees with the normalized-domain
:class:`repro.arch.weight_bank.WeightBank`.

Physical conventions the normalized model hides:

- Optical amplitudes are non-negative: inputs here are activations in
  [0, 1] (post-ReLU, exactly the NN case).  Signed *weights* come from the
  balanced drop-minus-through detection.
- Broadcasting to J rows costs an honest 1/J splitter loss.
- Shot noise scales with the *total* power on each photodiode, not the
  difference — large balanced terms still add noise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import BOLTZMANN, ELEMENTARY_CHARGE, MW, ROOM_TEMPERATURE
from repro.devices.gst import patch_transmission
from repro.devices.mrr import AddDropMRR
from repro.devices.pcm_mrr import WeightCalibration, build_calibration
from repro.devices.photodetector import Photodetector
from repro.devices.tia import TransimpedanceAmplifier
from repro.devices.waveguide import WDMBus, WDMChannelPlan
from repro.errors import DeviceError, ProgrammingError, ShapeError


@dataclass(frozen=True)
class PhysicalBankOutput:
    """One symbol's worth of physical readout."""

    #: Differential photocurrent per row [A].
    currents_a: np.ndarray
    #: TIA output voltage per row [V].
    voltages_v: np.ndarray
    #: Recovered normalized weighted sums (comparable to WeightBank.matmat).
    normalized: np.ndarray
    #: Per-row electrical SNR [dB] (signal over shot+thermal noise).
    snr_db: np.ndarray


@dataclass
class PhysicalWeightBank:
    """A J x N bank simulated at the optical/electrical physical layer."""

    rows: int = 16
    plan: WDMChannelPlan = field(default_factory=lambda: WDMChannelPlan(16))
    reference_ring: AddDropMRR = field(default_factory=AddDropMRR)
    bus: WDMBus | None = None
    detector: Photodetector = field(default_factory=Photodetector)
    tia: TransimpedanceAmplifier = field(default_factory=TransimpedanceAmplifier)
    calibration: WeightCalibration | None = None
    #: Optical power per laser channel [W].
    channel_power_w: float = 1.0 * MW
    #: Modulator insertion loss applied at encode [linear].
    modulator_transmission: float = 0.89
    #: Excess loss of the 1-to-J row splitter beyond the ideal 1/J [linear].
    splitter_excess: float = 0.9
    #: GST patch parameters (must match the calibration build).
    patch_length_m: float = 0.3e-6
    confinement: float = 0.2
    noise_enabled: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rows < 1:
            raise ShapeError(f"rows must be positive, got {self.rows}")
        if self.channel_power_w <= 0:
            raise DeviceError("channel power must be positive")
        if not 0 < self.modulator_transmission <= 1:
            raise DeviceError("modulator transmission must be in (0, 1]")
        if not 0 < self.splitter_excess <= 1:
            raise DeviceError("splitter excess must be in (0, 1]")
        if self.bus is None:
            self.bus = WDMBus(self.plan)
        if self.calibration is None:
            self.calibration = build_calibration(
                self.reference_ring,
                patch_length_m=self.patch_length_m,
                confinement=self.confinement,
            )
        self._rng = np.random.default_rng(self.seed)
        self._fractions: np.ndarray | None = None
        self._t_drop: np.ndarray | None = None
        self._t_through: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def cols(self) -> int:
        """Column (wavelength) count."""
        return self.plan.n_channels

    def program(self, weights: np.ndarray) -> np.ndarray:
        """Program signed weights; returns the realized (quantized) ones.

        Weight -> level -> crystalline fraction -> ring transmission, all
        through the shared device calibration (vectorized).
        """
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (self.rows, self.cols):
            raise ShapeError(
                f"expected weights of shape ({self.rows}, {self.cols}), got {w.shape}"
            )
        if np.any(np.abs(w) > 1 + 1e-12):
            raise ProgrammingError("weights must lie in [-1, 1]")
        levels = self.calibration.weights_to_levels(w)
        realized = self.calibration.levels_to_weights(levels)
        fractions = self.calibration.weight_to_fraction(realized)
        self._fractions = fractions

        # On-resonance port transmissions, vectorized over the whole bank.
        amp = np.sqrt(
            patch_transmission(
                fractions, self.patch_length_m, confinement=self.confinement
            )
        )
        r1 = self.reference_ring.input_coupling
        r2 = self.reference_ring.drop_coupling
        a = self.reference_ring.ring_loss * amp
        den = (1.0 - r1 * r2 * a) ** 2
        self._t_through = (r2 * a - r1) ** 2 / den
        self._t_drop = (1.0 - r1 * r1) * (1.0 - r2 * r2) * a / den
        return realized

    # ------------------------------------------------------------------
    @property
    def power_per_channel_at_bank_w(self) -> float:
        """Per-channel power reaching one row's rings at full modulation."""
        ideal_split = 1.0 / self.rows
        return (
            self.channel_power_w
            * self.modulator_transmission
            * self.bus.transmission
            * ideal_split
            * self.splitter_excess
        )

    @property
    def current_scale_a(self) -> float:
        """Photocurrent corresponding to a normalized weighted sum of 1.

        Derived from the link, not fitted: responsivity x per-channel power
        at the bank x the calibration's symmetric differential swing.
        """
        return (
            self.detector.responsivity_a_per_w
            * self.power_per_channel_at_bank_w
            * self.calibration.d_sym
        )

    def forward(self, x: np.ndarray) -> PhysicalBankOutput:
        """One analog symbol: activations in [0, 1] through the bank."""
        if self._t_drop is None:
            raise ProgrammingError("program the bank before forwarding")
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.cols,):
            raise ShapeError(f"expected input of shape ({self.cols},), got {x.shape}")
        if np.any(x < 0) or np.any(x > 1 + 1e-12):
            raise DeviceError(
                "physical amplitudes are activations in [0, 1]; encode signed "
                "data differentially upstream"
            )
        p_channel = self.power_per_channel_at_bank_w * x  # (N,)
        p_drop = self._t_drop * p_channel  # (J, N)
        p_through = self._t_through * p_channel
        plus = p_drop.sum(axis=1)
        minus = p_through.sum(axis=1)
        r = self.detector.responsivity_a_per_w
        current = r * (plus - minus)

        shot_var = (
            2.0 * ELEMENTARY_CHARGE * r * (plus + minus) * self.detector.bandwidth_hz
        )
        thermal_var = (
            4.0
            * BOLTZMANN
            * ROOM_TEMPERATURE
            * self.detector.bandwidth_hz
            / self.detector.load_ohms
        )
        noise_std = np.sqrt(shot_var + thermal_var)
        if self.noise_enabled:
            current = current + self._rng.standard_normal(self.rows) * noise_std

        voltages = self.tia.amplify(current)
        normalized = current / self.current_scale_a
        with np.errstate(divide="ignore"):
            snr = np.where(
                np.abs(current) > 0,
                20.0 * np.log10(np.maximum(np.abs(current), 1e-30) / noise_std),
                -np.inf,
            )
        return PhysicalBankOutput(
            currents_a=current,
            voltages_v=voltages,
            normalized=normalized,
            snr_db=snr,
        )

    # ------------------------------------------------------------------
    def expected_normalized(self, x: np.ndarray) -> np.ndarray:
        """The normalized weighted sum the link *should* produce (exact
        ring physics, no noise) — used by cross-validation tests."""
        if self._fractions is None:
            raise ProgrammingError("program the bank first")
        d = self._t_drop - self._t_through
        return (d @ np.asarray(x, dtype=np.float64)) / self.calibration.d_sym

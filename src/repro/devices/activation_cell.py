"""GST photonic activation cell — the paper's Fig 2e / Fig 3 nonlinearity.

A 60 um-radius ring with a GST patch at the ring/waveguide crossing.  Below a
threshold pulse energy (430 pJ) the weighted-sum pulse couples into the ring
and no output emerges; above it, the pulse switches the GST amorphous, the
ring falls out of resonance and the pulse is transmitted.  The measured
transfer function at 1553.4 nm is ReLU-like with slope 0.34 above threshold
(Fig 3) — which is why the LDSU only needs one bit to store the derivative.

Two views of the same device:

* :meth:`response_energy` — physical: output pulse energy vs input pulse
  energy [J], reproducing Fig 3.
* :meth:`activate` — normalized: the control unit biases the weighted-sum
  pulse so that logit h = 0 lands exactly at the switching threshold, so in
  the NN's normalized units the cell computes ``slope * max(0, h)``.

Every firing event requires recrystallization before the next symbol
(Table III: 53.3 mW reset budget); the cell counts events against PCM
endurance (~1e12 cycles, ref [17]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import ACTIVATION_WAVELENGTH, PJ
from repro.devices.gst import DEFAULT_ENDURANCE_CYCLES
from repro.errors import ConfigError, DeviceError, EnduranceExceededError


@dataclass(frozen=True)
class GSTActivationConfig:
    """Parameters of the activation cell (paper Sec. III-C)."""

    #: Switching threshold pulse energy [J] (paper: 430.0 pJ).
    threshold_j: float = 430.0 * PJ
    #: Transfer-function slope above threshold (paper: 0.34).
    slope: float = 0.34
    #: Sub-threshold leakage as a fraction of the input (ideally 0).
    leakage: float = 0.0
    #: Measurement wavelength [m] (paper Fig 3: 1553.4 nm).
    wavelength_m: float = ACTIVATION_WAVELENGTH
    #: Recrystallization (reset) energy per firing event [J].  Derived from
    #: Table III: 53.3 mW reset budget per PE across 16 rows at the effective
    #: symbol rate — ~0.8 nJ per event.
    reset_energy_j: float = 0.8e-9
    #: Rated switching endurance (ref [17]).
    endurance_cycles: int = DEFAULT_ENDURANCE_CYCLES

    def __post_init__(self) -> None:
        if self.threshold_j <= 0:
            raise ConfigError("threshold must be positive")
        if self.slope <= 0:
            raise ConfigError("slope must be positive")
        if not 0.0 <= self.leakage < 1.0:
            raise ConfigError("leakage must lie in [0, 1)")
        if self.reset_energy_j < 0 or self.endurance_cycles <= 0:
            raise ConfigError("reset energy must be >= 0 and endurance positive")


@dataclass
class GSTActivationCell:
    """Stateful activation cell for one weight-bank row."""

    config: GSTActivationConfig = field(default_factory=GSTActivationConfig)
    #: When True the cell is parked fully amorphous and acts as a wire
    #: (paper: "the GST activation cell can be set to a fully amorphous
    #: state, effectively eliminating the activation cell").
    bypass: bool = False

    firing_events: int = 0
    reset_energy_spent_j: float = 0.0

    # ------------------------------------------------------------------
    # Physical view (Fig 3)
    # ------------------------------------------------------------------
    def response_energy(self, input_energy_j: np.ndarray | float) -> np.ndarray:
        """Output pulse energy [J] vs input pulse energy [J] (vectorized).

        Reproduces Fig 3: ~zero below threshold, linear with slope 0.34
        above.  Stateless — use :meth:`fire` for the event-counting path.
        """
        e = np.asarray(input_energy_j, dtype=np.float64)
        if np.any(e < 0):
            raise DeviceError("pulse energy must be non-negative")
        if self.bypass:
            return e.copy()
        above = e > self.config.threshold_j
        out = np.where(
            above,
            self.config.slope * (e - self.config.threshold_j),
            self.config.leakage * e,
        )
        return out

    # ------------------------------------------------------------------
    # Normalized view (what the NN math sees)
    # ------------------------------------------------------------------
    def activate(self, logits: np.ndarray | float) -> np.ndarray:
        """Normalized activation ``slope * max(0, h)`` (vectorized).

        The control unit biases the optical pulse so h = 0 coincides with
        the physical threshold; the downstream E/O calibration can absorb
        the 0.34 slope, but we keep it explicit so training sees the same
        scale the hardware produces.
        """
        h = np.asarray(logits, dtype=np.float64)
        if self.bypass:
            return h.copy()
        return self.config.slope * np.maximum(h, 0.0)

    def derivative(self, logits: np.ndarray | float) -> np.ndarray:
        """f'(h): ``slope`` above threshold, 0 below (paper Sec. III-C)."""
        h = np.asarray(logits, dtype=np.float64)
        if self.bypass:
            return np.ones_like(h)
        return np.where(h > 0.0, self.config.slope, 0.0)

    # ------------------------------------------------------------------
    # Stateful firing path (endurance + reset accounting)
    # ------------------------------------------------------------------
    def fire(self, logits: np.ndarray | float) -> np.ndarray:
        """Activate and account for switching events and reset energy.

        Each element whose logit exceeds threshold switches the cell once
        and must be recrystallized before the next symbol.
        """
        h = np.asarray(logits, dtype=np.float64)
        out = self.activate(h)
        if not self.bypass:
            events = int(np.count_nonzero(h > 0.0))
            if self.firing_events + events > self.config.endurance_cycles:
                raise EnduranceExceededError(
                    f"activation cell exceeded endurance of "
                    f"{self.config.endurance_cycles} switching cycles"
                )
            self.firing_events += events
            self.reset_energy_spent_j += events * self.config.reset_energy_j
        return out

    @property
    def remaining_endurance(self) -> int:
        """Switching cycles left before the cell is out of spec."""
        return max(0, self.config.endurance_cycles - self.firing_events)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the wear counters and bypass flag."""
        return {
            "firing_events": self.firing_events,
            "reset_energy_spent_j": self.reset_energy_spent_j,
            "bypass": self.bypass,
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        events = int(state["firing_events"])
        if events < 0:
            raise DeviceError(f"firing_events must be non-negative, got {events}")
        self.firing_events = events
        self.reset_energy_spent_j = float(state["reset_energy_spent_j"])
        self.bypass = bool(state["bypass"])

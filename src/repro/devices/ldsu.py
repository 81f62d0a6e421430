"""Linear Derivative Storage Unit (LDSU) — paper Fig 2d / Sec. III-C.

Because the GST activation function has exactly two derivative values
(0.34 above threshold, 0 below), storing f'(h_k) for the backward pass needs
only one bit per neuron.  The LDSU is an analog voltage comparator (is the
weighted sum above the activation threshold?) feeding a D flip-flop.  During
the backward pass the stored bit programs the row's TIA gain to f'(h_k),
realizing the Hadamard product of Eq. (3) with zero memory traffic.

Table III attributes 0.09 mW to the LDSU (refs [3], [16]).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import MW
from repro.errors import ConfigError, DeviceError


@dataclass
class AnalogComparator:
    """Voltage comparator: output bit = (input > threshold).

    ``threshold_v`` is the electrical image of the activation cell's 430 pJ
    optical threshold after the BPD/TIA chain; in the normalized signal
    domain the control unit calibrates it to logit 0.
    """

    threshold_v: float = 0.0
    #: Input-referred offset/noise band; inputs within +/- this of the
    #: threshold resolve nondeterministically on real silicon, so the model
    #: (conservatively, deterministically) resolves them to False.
    uncertainty_v: float = 0.0

    def __post_init__(self) -> None:
        if self.uncertainty_v < 0:
            raise ConfigError("uncertainty must be non-negative")

    def compare(self, inputs: np.ndarray | float) -> np.ndarray:
        """Vectorized comparison; returns a boolean array."""
        v = np.asarray(inputs, dtype=np.float64)
        return v > (self.threshold_v + self.uncertainty_v)


@dataclass
class DFlipFlop:
    """One-bit storage element with explicit clocking semantics."""

    state: bool = False

    def latch(self, d: bool) -> None:
        """Capture the input on the (modeled) clock edge."""
        self.state = bool(d)

    @property
    def q(self) -> bool:
        """Stored output."""
        return self.state


@dataclass
class LDSU:
    """Comparator + per-row flip-flop bank storing f'(h) for one PE.

    One bit per weight-bank row (J bits total).  ``capture_batch`` runs
    during the forward pass; ``derivative_gains_batch`` replays the stored
    bits as TIA gain values during the gradient-vector step.
    """

    n_rows: int = 16
    comparator: AnalogComparator = field(default_factory=AnalogComparator)
    #: The two-valued derivative of the GST activation (paper: 0.34 / 0).
    derivative_high: float = 0.34
    power_w: float = 0.09 * MW
    _bits: np.ndarray = field(init=False, repr=False)
    _batch_bits: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.n_rows < 1:
            raise ConfigError(f"n_rows must be positive, got {self.n_rows}")
        if not 0.0 < self.derivative_high:
            raise ConfigError("derivative_high must be positive")
        self._bits = np.zeros(self.n_rows, dtype=bool)

    # ------------------------------------------------------------------
    def capture_batch(self, logits: np.ndarray) -> np.ndarray:
        """Latch comparator outputs for a (n_rows, B) batch of logit columns.

        One column per streamed sample: the flip-flops latch per symbol and
        the control unit shifts each sample's bit plane out before the next
        arrives.  Stores the full (n_rows, B) plane for the backward pass
        and leaves the flip-flops holding the final column, which
        :attr:`bits` and the checkpoint report.  Raises if the row count
        does not match — a mis-sized capture means the layer was mapped
        onto the wrong PE geometry.
        """
        h = np.asarray(logits, dtype=np.float64)
        if h.ndim != 2 or h.shape[0] != self.n_rows:
            raise DeviceError(
                f"expected logits of shape ({self.n_rows}, B), got {h.shape}"
            )
        self._batch_bits = self.comparator.compare(h)
        if h.shape[1]:
            self._bits = self._batch_bits[:, -1].copy()
        return self._batch_bits.copy()

    @property
    def bits(self) -> np.ndarray:
        """Currently stored bits (copy; storage is not externally mutable)."""
        return self._bits.copy()

    @property
    def batch_bits(self) -> np.ndarray:
        """The (n_rows, B) bit plane of the last batched capture (copy)."""
        if self._batch_bits is None:
            raise DeviceError("no batched capture has run (call capture_batch)")
        return self._batch_bits.copy()

    def derivative_gains_batch(self) -> np.ndarray:
        """f'(h) per row per sample from the last batched capture."""
        if self._batch_bits is None:
            raise DeviceError("no batched capture has run (call capture_batch)")
        return np.where(self._batch_bits, self.derivative_high, 0.0)

    def clear(self) -> None:
        """Reset all flip-flops and drop the batched bit plane."""
        self._bits = np.zeros(self.n_rows, dtype=bool)
        self._batch_bits = None

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the flip-flop bits and any held batched bit plane."""
        return {
            "bits": self._bits.copy(),
            "batch_bits": None if self._batch_bits is None else self._batch_bits.copy(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot (shape-checked)."""
        bits = np.asarray(state["bits"], dtype=bool)
        if bits.shape != (self.n_rows,):
            raise DeviceError(
                f"LDSU snapshot has {bits.shape[0] if bits.ndim else 0} rows, "
                f"this LDSU has {self.n_rows}"
            )
        self._bits = bits.copy()
        batch = state["batch_bits"]
        self._batch_bits = None if batch is None else np.asarray(batch, dtype=bool)

"""Control unit: operating modes, the Table II encoding map, and analog
range normalization.

The same physical PE computes three different products depending on what the
external control unit encodes where (paper Table II):

=====================  ==================  =========================  ========================
Device                 Inference           Training: gradient vector  Training: outer product
=====================  ==================  =========================  ========================
Input laser sources    x_k                 delta_h_{k+1}              delta_h_k
MRR weight bank        W_k                 W_{k+1}^T                  y_{k-1}^T
BPD output             y_k = W_k x_k       W_{k+1}^T delta_h_{k+1}    delta_W_k rows
TIA / E-O lasers       y (unit gain)       x f'(h_k) (LDSU gains)     delta_W_k (unit gain)
=====================  ==================  =========================  ========================

Analog hardware only represents values in [-1, 1]; :class:`RangeNormalizer`
tracks the scale factors the control unit applies on encode and removes on
decode, so the functional simulation is exact for in-range data and
faithfully *clips* out-of-range data the way the physical E/O stage would.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import DeviceError


class OperatingMode(enum.Enum):
    """The three PE operating modes of Table II."""

    INFERENCE = "inference"
    GRADIENT_VECTOR = "gradient_vector"
    OUTER_PRODUCT = "outer_product"


def table2_mapping() -> dict[OperatingMode, dict[str, str]]:
    """The paper's Table II as data (used by docs/tests/benches)."""
    return {
        OperatingMode.INFERENCE: {
            "input_laser_sources": "x_k",
            "mrr_weight_bank": "W_k",
            "bpd_output": "y_k = W_k x_k",
            "tia_eo_lasers": "y",
        },
        OperatingMode.GRADIENT_VECTOR: {
            "input_laser_sources": "delta_h_{k+1}",
            "mrr_weight_bank": "W_{k+1}^T",
            "bpd_output": "W_{k+1}^T * delta_h_{k+1}",
            "tia_eo_lasers": "f'(h_k)",
        },
        OperatingMode.OUTER_PRODUCT: {
            "input_laser_sources": "delta_h_k",
            "mrr_weight_bank": "y_{k-1}^T",
            "bpd_output": "delta_W_k = delta_h_k * y_{k-1}^T",
            "tia_eo_lasers": "delta_W_k",
        },
    }


@dataclass(frozen=True)
class NormalizedVector:
    """A vector scaled into the analog range, with its restore factor."""

    values: np.ndarray  # in [-1, 1]
    scale: float  # original = values * scale

    def restore(self, transformed: np.ndarray | float) -> np.ndarray:
        """Undo the normalization on a linearly transformed result."""
        return np.asarray(transformed, dtype=np.float64) * self.scale


class RangeNormalizer:
    """Encode/decode between real-valued tensors and the analog [-1, 1] range.

    ``normalize`` divides by the max magnitude (or 1 if already in range —
    keeping small signals at full precision relative to the quantizer).
    Because the photonic MVM is linear, multiplying the output by the same
    scale restores the true product exactly; the activation threshold is
    applied in normalized units by the hardware, matching how the control
    unit biases the physical pulse.
    """

    @staticmethod
    def normalize(values: np.ndarray) -> NormalizedVector:
        """Scale a vector into [-1, 1]; rejects non-finite input."""
        v = np.asarray(values, dtype=np.float64)
        if not np.all(np.isfinite(v)):
            raise DeviceError("cannot encode non-finite values onto the laser array")
        peak = float(np.max(np.abs(v))) if v.size else 0.0
        scale = peak if peak > 1.0 else 1.0
        return NormalizedVector(values=v / scale, scale=scale)

    @staticmethod
    def normalize_columns(
        values: np.ndarray, *, return_l1: bool = False
    ) -> tuple[np.ndarray, ...]:
        """Per-column :meth:`normalize` for a (features, B) batch.

        Each column is one sample's laser encoding and gets its own scale
        (max magnitude, or 1 if already in range), exactly as B sequential
        ``normalize`` calls would — the batched execution engine's entry
        point.  Returns ``(normalized, scales)`` with ``scales`` of shape
        (B,); the original batch is ``normalized * scales``.

        With ``return_l1`` the per-column L1 norms ride along as a third
        element: the peak scan already materializes ``|values|``, so the
        extra column sum is one reduce over a hot buffer — much cheaper
        than the separate ``|x|`` pass the integrity verifier would
        otherwise spend on its residual normalization.
        """
        v = np.asarray(values, dtype=np.float64)
        if v.ndim != 2:
            raise DeviceError(f"expected a (features, B) batch, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise DeviceError("cannot encode non-finite values onto the laser array")
        magnitudes = np.abs(v)
        peaks = magnitudes.max(axis=0) if v.shape[0] else np.zeros(v.shape[1])
        scales = np.maximum(peaks, 1.0)
        if return_l1:
            return v / scales, scales, magnitudes.sum(axis=0)
        return v / scales, scales

    @staticmethod
    def clip(values: np.ndarray) -> np.ndarray:
        """Hard-clip to [-1, 1] — what the E/O stage does to overrange data."""
        return np.clip(np.asarray(values, dtype=np.float64), -1.0, 1.0)


@dataclass
class ControlUnit:
    """Tracks the current operating mode and validates mode transitions.

    The control unit is electronic and external to the PE chain (paper
    Sec. III-A: "an external control unit handling encoding").  Mode changes
    are free in the functional model but each implies a weight-bank
    reprogram, which the accelerator's event counters charge.
    """

    mode: OperatingMode = OperatingMode.INFERENCE
    mode_switches: int = 0

    def set_mode(self, mode: OperatingMode) -> bool:
        """Switch modes; returns True if this was an actual transition."""
        if not isinstance(mode, OperatingMode):
            raise DeviceError(f"not an operating mode: {mode!r}")
        if mode is self.mode:
            return False
        self.mode = mode
        self.mode_switches += 1
        return True

    def encoding_for(self, mode: OperatingMode | None = None) -> dict[str, str]:
        """What each device encodes in the given (or current) mode."""
        return table2_mapping()[mode or self.mode]

    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of the current mode and transition counter."""
        return {"mode": self.mode.value, "mode_switches": self.mode_switches}

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot."""
        try:
            self.mode = OperatingMode(state["mode"])
        except ValueError as exc:
            raise DeviceError(f"unknown operating mode {state['mode']!r}") from exc
        self.mode_switches = int(state["mode_switches"])

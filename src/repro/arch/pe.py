"""One Trident processing element (paper Fig 1, right).

A PE is: a J x N PCM-MRR weight bank, J balanced photodetectors (one per
row), J programmable-gain TIAs, one LDSU (J comparator+flip-flop rows), J
E/O lasers re-encoding the row outputs onto fresh wavelengths, and J GST
activation cells.  The same silicon computes three different products
depending on the control unit's encoding (Table II):

- :meth:`forward_batch` — inference: h = W x, capturing f'(h) in the LDSU.
- :meth:`gradient_vector_batch` — training step 1:
  (W_{k+1}^T d_{k+1}) ⊙ f'(h_k), the Hadamard realized by programming the
  TIA gains from the LDSU bits.
- :meth:`outer_product_batch` — training step 2: dW_k = d_k ⊗ y_{k-1},
  streamed one wavelength per symbol through the bank and summed over
  the batch.

Every mode takes a batch, one sample per column (or row); a single sample
is a batch of one.  All vector math is normalized to the analog [-1, 1]
range; the accelerator's control unit owns the scale factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.arch.weight_bank import WeightBank
from repro.devices.activation_cell import GSTActivationCell
from repro.devices.ldsu import LDSU
from repro.devices.photodetector import BalancedPhotodetector
from repro.devices.tia import TransimpedanceAmplifier
from repro.errors import ShapeError


@dataclass
class ProcessingElement:
    """Weight bank + row electronics + photonic activation."""

    bank: WeightBank = field(default_factory=WeightBank)
    bpd: BalancedPhotodetector = field(default_factory=BalancedPhotodetector)
    ldsu: LDSU | None = None
    activation: GSTActivationCell = field(default_factory=GSTActivationCell)
    tias: list[TransimpedanceAmplifier] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.ldsu is None:
            self.ldsu = LDSU(n_rows=self.bank.rows)
        elif self.ldsu.n_rows != self.bank.rows:
            raise ShapeError(
                f"LDSU rows {self.ldsu.n_rows} != bank rows {self.bank.rows}"
            )
        if not self.tias:
            self.tias = [TransimpedanceAmplifier() for _ in range(self.bank.rows)]
        elif len(self.tias) != self.bank.rows:
            raise ShapeError(
                f"need one TIA per row ({self.bank.rows}), got {len(self.tias)}"
            )

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        """Weight-bank row count (J)."""
        return self.bank.rows

    @property
    def cols(self) -> int:
        """Weight-bank column count (N)."""
        return self.bank.cols

    def program_weights(self, weights: np.ndarray) -> np.ndarray:
        """Program the weight matrix for whatever mode comes next."""
        return self.bank.program(weights)

    def _tia_gains(self) -> np.ndarray:
        return np.array([t.gain for t in self.tias], dtype=np.float64)

    def set_tia_gains(self, gains: np.ndarray) -> None:
        """Program per-row TIA multipliers (vector of length rows)."""
        gains = np.asarray(gains, dtype=np.float64)
        if gains.shape != (self.bank.rows,):
            raise ShapeError(
                f"expected {self.bank.rows} gains, got shape {gains.shape}"
            )
        for tia, g in zip(self.tias, gains):
            tia.set_gain(float(g))

    def reset_tia_gains(self) -> None:
        """Return every TIA to unit gain (inference / outer-product modes)."""
        for tia in self.tias:
            tia.set_gain(1.0)

    # ------------------------------------------------------------------
    # Mode 1: inference (Table II column 1)
    # ------------------------------------------------------------------
    def forward_batch(
        self,
        x: np.ndarray,
        capture_derivative: bool = True,
        validate: bool = True,
        variance: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batched inference: a (cols_used, B) slab streams in one pass.

        Returns the detected (rows_used, B) logits in normalized units.
        Activation firing happens at the accelerator level after partial
        sums from all of a layer's tiles have accumulated, so this method
        never fires the cell.  With ``capture_derivative`` the LDSU latches
        the whole batch's bit plane (see :meth:`LDSU.capture_batch`).
        ``validate=False`` forwards to :meth:`WeightBank.matmat` for slabs
        the encoder already bounded.  ``variance`` marks the result as one
        partial of an electronically summed output (see
        :func:`stream_tiles`): it comes back noise-free and its detection
        variance is added into ``variance``.
        """
        diff = self.bank.matmat(x, validate=validate)
        logits = self.bpd.detect_normalized(diff, variance=variance)
        if capture_derivative:
            self.latch_derivative(logits)
        return logits

    def latch_derivative(self, logits: np.ndarray) -> None:
        """Latch the LDSU bit plane of detected (rows_used, B) logits."""
        padded = np.zeros((self.bank.rows, logits.shape[1]), dtype=np.float64)
        padded[: logits.shape[0]] = logits
        self.ldsu.capture_batch(padded)

    # ------------------------------------------------------------------
    # Mode 2: gradient vector (Table II column 2)
    # ------------------------------------------------------------------
    def gradient_vector_batch(self, delta_next: np.ndarray) -> np.ndarray:
        """Batched Eq. (3): one (cols_used, B) slab of deltas in one pass.

        The bank holds W_{k+1}^T once for the whole batch (the grouped
        reprogramming that makes batched training O(layers) writes for
        this step instead of O(layers x batch)); the per-sample Hadamard
        comes from the LDSU's batched bit plane captured during the
        batched forward pass.  Returns (rows_used, B).
        """
        diff = self.bank.matmat(delta_next)
        detected = self.bpd.detect_normalized(diff)
        gains = self.ldsu.derivative_gains_batch()[: detected.shape[0]]
        return detected * gains

    # ------------------------------------------------------------------
    # Mode 3: outer product (Table II column 3)
    # ------------------------------------------------------------------
    def outer_product_batch(
        self,
        delta_h: np.ndarray,
        y_prev: np.ndarray,
        scales: np.ndarray | None = None,
    ) -> np.ndarray:
        """Batch-summed dW_k = sum_b s_b * (d_b ⊗ y_b), as one (d, y) block.

        ``delta_h`` is (B, d) and ``y_prev`` is (B, y), both normalized;
        ``scales`` are the (B,) per-sample weights s_b (unit weights when
        omitted).  Physically each sample programs the bank
        column-constant with its own y_{k-1} (each ring of row j holds
        y_{k-1}[j]) and streams its d_k one wavelength per symbol, so
        symbol i reads out column i of (y ⊗ d^T), i.e. row i of dW; the
        control unit sums the B weighted blocks electronically.  That
        hardware cost — B programming events of y*d cells and B*d symbols
        — is charged to the bank's stats; the arithmetic is three small
        GEMMs over the batch, through the same quantization +
        programming-noise model as a real program.  Detection noise is
        drawn once per (d, y) cell of the sum, with the weighted sum of
        the B detections' variances
        (:meth:`~repro.devices.noise.NoiseModel.detection_variance`).  The
        bank's realized state is left untouched; callers reprogram the
        forward weights afterwards anyway.
        """
        delta_h = np.atleast_2d(np.asarray(delta_h, dtype=np.float64))
        y_prev = np.atleast_2d(np.asarray(y_prev, dtype=np.float64))
        if delta_h.shape[0] != y_prev.shape[0]:
            raise ShapeError(
                f"batch mismatch: {delta_h.shape[0]} deltas vs "
                f"{y_prev.shape[0]} layer inputs"
            )
        batch, d = delta_h.shape
        y = y_prev.shape[1]
        scales = np.ones(batch) if scales is None else np.asarray(scales, dtype=np.float64)
        if scales.shape != (batch,):
            raise ShapeError(f"expected {batch} sample scales, got shape {scales.shape}")
        if y > self.bank.rows:
            raise ShapeError(
                f"y_prev width {y} exceeds bank rows {self.bank.rows}"
            )
        if d > self.bank.cols:
            raise ShapeError(
                f"delta_h width {d} exceeds bank cols {self.bank.cols}"
            )
        if np.any(np.abs(delta_h) > 1.0 + 1e-9):
            raise ShapeError("delta_h must lie in [-1, 1] (normalize first)")
        realized_y = self.bank.realize_virtually(y_prev)  # (B, y)
        # matmat(diag(delta)) on a column-constant bank reduces to the outer
        # product scaled by the crosstalk column sums (identity -> ones).
        if self.bank.crosstalk is not None:
            colsum = self.bank.crosstalk[:d, :d].sum(axis=0)
        else:
            colsum = np.ones(d)
        streamed = delta_h * colsum  # (B, d)
        self.bank.account_writes(batch, y * d)
        self.bank.account_symbols(batch * d)
        dw = (streamed * scales[:, None]).T @ realized_y  # (d, y)
        noise = self.bpd.noise
        if not noise.enabled:
            return dw
        weight = np.square(scales)[:, None]
        magnitude = (np.abs(streamed) * weight).T @ np.abs(realized_y)
        power = (np.square(streamed) * weight).T @ np.square(realized_y)
        variance = noise.detection_variance(
            magnitude, np.sqrt(power, out=power), float(weight.sum())
        )
        return noise.apply_detection_noise(dw, variance)

    # ------------------------------------------------------------------
    # Checkpoint / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """Snapshot of everything mutable in the PE: bank state, LDSU
        bits, TIA gains, and the activation cell's wear counters."""
        return {
            "bank": self.bank.state_dict(),
            "ldsu": self.ldsu.state_dict(),
            "tia_gains": self._tia_gains(),
            "activation": self.activation.state_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Restore a :meth:`state_dict` snapshot onto this PE."""
        self.bank.load_state_dict(state["bank"])
        self.ldsu.load_state_dict(state["ldsu"])
        self.set_tia_gains(np.asarray(state["tia_gains"], dtype=np.float64))
        self.activation.load_state_dict(state["activation"])

    # ------------------------------------------------------------------
    @property
    def write_energy_j(self) -> float:
        """Total programming energy spent by this PE's bank."""
        return self.bank.stats.write_energy_j


def stream_tiles(
    pes: list[ProcessingElement],
    tiles: list[tuple[int, int, int, int, int]],
    slab: np.ndarray,
    rows: int,
    capture_derivative: bool = False,
) -> np.ndarray:
    """A tiled MVM: the (rows, B) electronic sum of its tiles' detections.

    Each ``(r0, r1, c0, c1, pe_index)`` tile streams ``slab[c0:c1]`` (an
    encoder-bounded (cols, B) slab) through its PE's
    :meth:`ProcessingElement.forward_batch`, and the detected partial adds
    into output rows ``r0:r1``.  Detection noise is drawn once per layer:
    with noisy receivers each tile returns its exact partial and adds the
    partial's variance into an accumulator, and one draw covers each
    (output, sample), because a sum of independent Gaussians is one
    Gaussian with the summed variance.  Noise-free runs allocate no
    accumulator.  With ``capture_derivative`` each tile's LDSU latches its
    rows of the detected sum, after the draw.

    The one (rows, B) draw reads the standard normals in C order, so where
    each output row has a single tile (one column block) it reads exactly
    the per-tile draws of that block's tiles in tile order, as long as the
    block's tiles ascend by ``r0`` and cover the rows.  Every mapper builds
    its tiles row-major, which keeps that true.
    """
    out = np.zeros((rows, slab.shape[1]), dtype=np.float64)
    noise = pes[tiles[0][4]].bpd.noise
    variance = np.zeros_like(out) if noise.enabled else None
    for r0, r1, c0, c1, pe_index in tiles:
        out[r0:r1] += pes[pe_index].forward_batch(
            slab[c0:c1],
            capture_derivative=False,
            validate=False,
            variance=None if variance is None else variance[r0:r1],
        )
    if variance is not None:
        out = noise.apply_detection_noise(out, variance)
    if capture_derivative:
        for r0, r1, _, _, pe_index in tiles:
            pes[pe_index].latch_derivative(out[r0:r1])
    return out

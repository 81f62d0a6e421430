"""Functional in-situ backpropagation on the Trident accelerator.

Implements the paper's training flow (Sec. III-A-2, Table II) against the
*functional* photonic model — real numbers through quantized, noisy banks:

1. **Forward**: each layer's PE computes y = f(W x) for the whole
   minibatch; its LDSU latches the one-bit derivative f'(h) per sample.
2. **Gradient vector**: the control unit reprograms PE k's bank with
   W_{k+1}^T; the error delta_{k+1} streams through; the LDSU-programmed
   TIA gains apply the Hadamard with f'(h_k) — Eq. (3).
3. **Outer product**: delta_k and y_{k-1} stream through a bank programmed
   column-constant with y_{k-1}, yielding dW_k — Eq. (2).
4. **Update**: the control unit applies W -= lr * dW and reprograms the
   GST levels — Eq. (1).  Weights therefore live *on the hardware grid*:
   every update is re-quantized to 255 levels, exactly the constraint the
   paper's 8-bit-training argument is about.

:meth:`InSituTrainer.train_step` runs the minibatch as one batch: it
streams through each layer's bank as one blocked ``matmat``, the LDSU
latches the batch's bit plane, the W^T reprogram of the gradient-vector
pass is *grouped* (once per layer per batch, not once per sample), and
the per-sample outer products collapse to one batch-summed gradient per
layer (three small GEMMs and one detection-noise draw per gradient cell)
with per-sample write accounting.  A minibatch costs O(layers) Python
iterations.  On noise-free hardware the summed gradients equal the sum of
single-sample backward passes; only the grouped W^T writes differ.

Because the trained weights are the physically realized (quantized + noisy)
ones, there is no train/deploy mismatch — the property the paper contrasts
with offline-trained photonic accelerators (Sec. I).
"""

from __future__ import annotations

import numpy as np

from repro.arch.accelerator import TridentAccelerator
from repro.arch.control import OperatingMode, RangeNormalizer
from repro.errors import MappingError, ShapeError
from repro.nn.reference import cross_entropy_loss
from repro.telemetry.metrics import NULL_INSTRUMENT
from repro.telemetry.session import (
    counter as _metric_counter,
    gauge as _metric_gauge,
    histogram as _metric_histogram,
    trace_span as _trace_span,
)

_GRAD_EPS = 1e-12


class InSituTrainer:
    """SGD trainer whose every linear-algebra step runs on the photonic PEs."""

    def __init__(self, accelerator: TridentAccelerator, lr: float = 0.05) -> None:
        if not 0 < lr < np.inf:  # NaN fails both comparisons
            raise MappingError(
                f"learning rate must be positive and finite, got {lr}"
            )
        for layer in accelerator.layers:
            if len(layer.tiles) != 1:
                raise MappingError(
                    "in-situ training requires each layer to fit one PE "
                    f"(layer {layer.index} uses {len(layer.tiles)} tiles); "
                    "use a larger bank or a smaller network"
                )
        if not accelerator.layers:
            raise MappingError("map and program a network before training")
        self.acc = accelerator
        self.lr = lr

    # ------------------------------------------------------------------
    def _pe_for(self, layer_index: int):
        return self.acc.pes[self.acc.layers[layer_index].tiles[0][4]]

    # ------------------------------------------------------------------
    # Backward pass
    # ------------------------------------------------------------------
    def _gradient_vector_batch(self, layer_index: int, delta_next: np.ndarray) -> np.ndarray:
        """Batched Eq. (3): (B, out_{k+1}) deltas -> (B, out_k) deltas.

        Grouped reprogramming: PE k's bank receives W_{k+1}^T *once* for
        the whole batch, then every sample's delta streams through it; the
        per-sample Hadamard comes from the LDSU bit plane the batched
        forward pass latched.
        """
        layers = self.acc.layers
        w_next = layers[layer_index + 1].weights
        pe = self._pe_for(layer_index)

        w_norm = RangeNormalizer.normalize(w_next.T.ravel())
        pe.program_weights(w_next.T / w_norm.scale)
        self.acc.counters.bank_writes += 1
        self.acc.counters.cells_written += w_next.size
        if self.acc.control.set_mode(OperatingMode.GRADIENT_VECTOR):
            self.acc.counters.mode_switches += 1

        d_norm, d_scales = RangeNormalizer.normalize_columns(delta_next.T)
        out = pe.gradient_vector_batch(d_norm)  # (out_k, B)
        self.acc.counters.symbols += delta_next.shape[0]
        return (out * w_norm.scale * d_scales).T

    def _outer_product_batch(
        self, layer_index: int, delta: np.ndarray, y_prev: np.ndarray
    ) -> np.ndarray:
        """Batch-summed Eq. (2): sum_b delta_b (x) y_prev_b on PE k's bank.

        The hardware still pays one bank program + len(delta) symbols per
        sample (the PE charges them); the PE returns the scale-weighted sum
        over the batch, with one detection-noise draw per gradient cell.
        """
        pe = self._pe_for(layer_index)
        if self.acc.control.set_mode(OperatingMode.OUTER_PRODUCT):
            self.acc.counters.mode_switches += 1
        d_norm, d_scales = RangeNormalizer.normalize_columns(delta.T)
        y_norm, y_scales = RangeNormalizer.normalize_columns(y_prev.T)
        grad = pe.outer_product_batch(d_norm.T, y_norm.T, d_scales * y_scales)
        batch, d = delta.shape
        self.acc.counters.bank_writes += batch
        self.acc.counters.cells_written += batch * d * y_prev.shape[1]
        self.acc.counters.symbols += batch * d
        return grad

    def backward_batch(self, grad_logits: np.ndarray) -> list[np.ndarray]:
        """Batched photonic backward pass for the last recorded batch.

        ``grad_logits`` is (B, n_out) of *per-sample* dL/dh for the final
        layer.  Returns per-layer weight gradients summed over the batch —
        the same totals as summing single-sample backward passes on
        noise-free hardware.  Must follow a
        ``forward_batch(..., record=True)``.
        """
        layers = self.acc.layers
        if layers[-1].last_input_batch is None:
            raise MappingError(
                "run a recorded forward_batch before backward_batch"
            )
        delta = np.atleast_2d(np.asarray(grad_logits, dtype=np.float64))
        batch = layers[-1].last_input_batch.shape[0]
        if delta.shape != (batch, layers[-1].out_dim):
            raise ShapeError(
                f"grad_logits shape {delta.shape} != ({batch}, {layers[-1].out_dim})"
            )
        grads: list[np.ndarray] = [np.zeros(0)] * len(layers)
        alive = np.arange(batch)
        for k in reversed(range(len(layers))):
            grads[k] = self._outer_product_batch(
                k, delta, layers[k].last_input_batch[alive]
            )
            if k > 0:
                delta = self._gradient_vector_batch(k - 1, delta)
                # Dead-path compaction: a sample whose delta has died
                # contributes nothing upstream, and the control unit (which
                # holds the deltas digitally) does not stream its zero
                # column — so a batch charges exactly the symbols and
                # outer-product writes its samples would one at a time.
                live = np.max(np.abs(delta), axis=1) >= _GRAD_EPS
                if not live.all():
                    alive = alive[live]
                    delta = delta[live]
                    if alive.size == 0:
                        for j in range(k):
                            layer = layers[j]
                            grads[j] = np.zeros((layer.out_dim, layer.in_dim))
                        break
        return grads

    # ------------------------------------------------------------------
    def train_step(self, x_batch: np.ndarray, labels: np.ndarray) -> float:
        """One SGD step on a minibatch (softmax cross-entropy), batched.

        The minibatch streams through every bank as blocked ``matmat``
        calls, :meth:`backward_batch` computes the summed gradients, and
        one reprogram per layer applies the update — O(layers) Python
        iterations per batch.  An empty batch raises
        :class:`~repro.errors.ShapeError` before any hardware work.
        """
        x_batch = np.atleast_2d(np.asarray(x_batch, dtype=np.float64))
        labels = np.atleast_1d(np.asarray(labels))
        if x_batch.shape[0] != labels.shape[0]:
            raise ShapeError("batch and labels must have matching lengths")
        if x_batch.shape[0] == 0:
            raise ShapeError("cannot train on an empty batch")
        layers = self.acc.layers
        batch = x_batch.shape[0]
        # Live power gauge: the step's mean power over its write +
        # streaming window (see forward_batch); skipped when telemetry is
        # off.
        power_gauge = _metric_gauge(
            "repro_power_draw_w", "Chip power draw over hardware time [W]"
        )
        if power_gauge is not NULL_INSTRUMENT:
            energy_before = self.acc.energy_estimate_j()
            time_before = self.acc.time_estimate_s()
        with _trace_span("train_step", accelerator=self.acc, batch=batch):
            logits = self.acc.forward_batch(x_batch, record=True)
            loss, grad = cross_entropy_loss(logits, labels)
            # cross_entropy_loss returns the mean-loss gradient (divided by
            # B); the backward pass streams per-sample deltas, so undo the
            # division here and reapply it at the update.
            with _trace_span("backward_batch", accelerator=self.acc, batch=batch):
                grads = self.backward_batch(grad * batch)
            new_weights = [
                layer.weights - self.lr * g / batch for layer, g in zip(layers, grads)
            ]
            # One reprogram per layer per batch: weights re-enter the grid.
            with _trace_span("weight_update", accelerator=self.acc, batch=batch):
                self.acc.set_weights(new_weights)
            if self.acc.control.set_mode(OperatingMode.INFERENCE):
                self.acc.counters.mode_switches += 1
        _metric_counter("repro_train_steps_total").inc()
        _metric_histogram("repro_train_loss").observe(loss)
        if power_gauge is not NULL_INSTRUMENT:
            time_after = self.acc.time_estimate_s()
            if time_after > time_before:
                mean_power_w = (
                    self.acc.energy_estimate_j() - energy_before
                ) / (time_after - time_before)
                power_gauge.set(mean_power_w)
        return loss

    # ------------------------------------------------------------------
    def predict(self, x_batch: np.ndarray) -> np.ndarray:
        """Argmax classes from hardware forward passes."""
        logits = self.acc.forward_batch(np.atleast_2d(x_batch))
        return np.argmax(logits, axis=-1)

    def accuracy(self, x_batch: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy measured on the hardware."""
        return float(np.mean(self.predict(x_batch) == np.asarray(labels)))

    @property
    def weights(self) -> list[np.ndarray]:
        """The control unit's digital shadow of the programmed weights."""
        return [layer.weights.copy() for layer in self.acc.layers]

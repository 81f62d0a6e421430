"""Direct Feedback Alignment (DFA) on the photonic hardware.

The paper's Related Work discusses Filipovich et al. [9], who train
photonic networks with DFA instead of backpropagation, and argues Trident's
true-gradient training is preferable ("DFA is not effective for training
convolutional layers" [35]).  This module implements DFA on the same
functional hardware so the comparison is quantitative:

- **DFA**: the error at the *output* layer is projected to every hidden
  layer through a fixed random feedback matrix B_k:
  ``delta_k = (B_k e) ⊙ f'(h_k)`` — no transposed weights anywhere.
- **Hardware consequence**: B_k never changes, so it can live permanently
  in *dedicated* feedback PEs.  Unlike backprop, the backward pass then
  costs **zero weight-bank retuning** — DFA's genuine attraction for
  photonics, which this model captures (and prices: extra PEs).

Both the photonic :class:`DFATrainer` and a :class:`DigitalDFA` reference
are provided; the ablation bench races them against true backprop.
"""

from __future__ import annotations

import numpy as np

from repro.arch.accelerator import TridentAccelerator
from repro.arch.control import RangeNormalizer
from repro.arch.pe import ProcessingElement
from repro.errors import MappingError
from repro.nn.reference import ACTIVATIONS, DigitalMLP, cross_entropy_loss
from repro.training.insitu import InSituTrainer


class DigitalDFA:
    """Reference DFA trainer for a bias-free MLP (same API as DigitalMLP)."""

    def __init__(self, dims: list[int], activation: str = "gst", seed: int = 0) -> None:
        self.mlp = DigitalMLP(dims, activation=activation, seed=seed)
        rng = np.random.default_rng(seed + 1)
        n_out = dims[-1]
        self.feedback = [
            rng.normal(0.0, 1.0 / np.sqrt(n_out), size=(n, n_out))
            for n in dims[1:-1]
        ]
        self._act_grad = ACTIVATIONS[activation][1]

    @property
    def weights(self) -> list[np.ndarray]:
        """The trained weight matrices."""
        return self.mlp.weights

    def train_step(self, x: np.ndarray, labels: np.ndarray, lr: float = 0.05) -> float:
        """One DFA step; returns the batch loss."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        _, inputs, logits = self.mlp.forward(x, return_intermediates=True)
        loss, error = cross_entropy_loss(logits[-1], labels)
        n_layers = self.mlp.n_layers
        for k in range(n_layers):
            if k == n_layers - 1:
                delta = error
            else:
                delta = (error @ self.feedback[k].T) * self._act_grad(logits[k])
            self.mlp.weights[k] -= lr * delta.T @ inputs[k]
        return loss

    def accuracy(self, x: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a batch."""
        return self.mlp.accuracy(x, labels)


class DFATrainer(InSituTrainer):
    """DFA on the functional Trident accelerator.

    The step is :meth:`InSituTrainer.train_step` with a DFA backward pass:
    one recorded ``forward_batch``, one ``matmat`` per feedback
    projection, the outer products through ``outer_product_batch`` and
    one ``set_weights``.  With ``dedicated_feedback`` (default), one extra
    PE per hidden layer, allocated on the accelerator, holds its feedback
    matrix permanently — the backward projection costs symbols but *no*
    bank writes.  Without it, each batch programs the feedback matrices
    into the layer PEs (costed like backprop's W^T).
    """

    def __init__(
        self,
        accelerator: TridentAccelerator,
        lr: float = 0.05,
        seed: int = 0,
        dedicated_feedback: bool = True,
    ) -> None:
        super().__init__(accelerator, lr=lr)
        self.dedicated_feedback = dedicated_feedback

        rng = np.random.default_rng(seed + 1)
        n_out = accelerator.layers[-1].out_dim
        cfg = accelerator.config
        if n_out > cfg.bank_cols:
            raise MappingError(
                f"output width {n_out} exceeds bank columns {cfg.bank_cols}"
            )
        hidden = accelerator.layers[:-1]
        total_pes = len(accelerator.pes) + (len(hidden) if dedicated_feedback else 0)
        if total_pes > cfg.n_pes:
            raise MappingError(
                f"network + dedicated feedback needs {total_pes} PEs; "
                f"configuration has {cfg.n_pes}"
            )
        self.feedback = [
            rng.normal(0.0, 1.0 / np.sqrt(n_out), size=(layer.out_dim, n_out))
            for layer in hidden
        ]
        #: Analog scale of each feedback matrix (true = programmed * scale).
        self.feedback_scales = [
            RangeNormalizer.normalize(b.ravel()).scale for b in self.feedback
        ]
        self.feedback_pes: list[ProcessingElement] = []
        if dedicated_feedback:
            # Ordinary PEs of this chip, so the accelerator's counters and
            # energy/time estimates see their writes and streaming.
            for b, scale in zip(self.feedback, self.feedback_scales):
                pe = accelerator._new_pe()
                pe.program_weights(b / scale)
                accelerator.counters.bank_writes += 1
                accelerator.counters.cells_written += b.size
                self.feedback_pes.append(pe)

    # ------------------------------------------------------------------
    def _project_error(self, k: int, error: np.ndarray) -> np.ndarray:
        """B_k e for a (B, n_out) error batch: one ``matmat`` through the
        dedicated feedback PE, or through layer k's PE after programming
        B_k into it (one write per batch)."""
        b, scale = self.feedback[k], self.feedback_scales[k]
        if self.dedicated_feedback:
            pe = self.feedback_pes[k]
        else:
            pe = self._pe_for(k)
            pe.program_weights(b / scale)
            self.acc.counters.bank_writes += 1
            self.acc.counters.cells_written += b.size
        e_norm, e_scales = RangeNormalizer.normalize_columns(error.T)
        out = pe.bpd.detect_normalized(pe.bank.matmat(e_norm))
        self.acc.counters.symbols += error.shape[0]
        return (out * scale * e_scales).T

    def backward_batch(self, grad_logits: np.ndarray) -> list[np.ndarray]:
        """DFA backward pass for the last recorded batch.

        The output layer's gradient uses the true error; every hidden
        layer's delta is the projected error gated by its LDSU bits,
        ``(B_k e) ⊙ f'(h_k)``.  Samples whose delta is exactly zero stream
        nothing into the outer product.  Returns per-layer gradients
        summed over the batch.
        """
        layers = self.acc.layers
        if layers[-1].last_input_batch is None:
            raise MappingError(
                "run a recorded forward_batch before backward_batch"
            )
        error = np.atleast_2d(np.asarray(grad_logits, dtype=np.float64))
        last = len(layers) - 1
        grads = [np.zeros(0)] * len(layers)
        grads[last] = self._outer_product_batch(
            last, error, layers[last].last_input_batch
        )
        for k, layer in enumerate(layers[:last]):
            gains = self._pe_for(k).ldsu.derivative_gains_batch()[: layer.out_dim]
            delta = self._project_error(k, error) * gains.T
            live = np.max(np.abs(delta), axis=1) > 0
            grads[k] = self._outer_product_batch(
                k, delta[live], layer.last_input_batch[live]
            )
        return grads

    @property
    def feedback_writes(self) -> int:
        """Total bank writes spent on feedback projection so far."""
        return sum(pe.bank.stats.write_events for pe in self.feedback_pes)

"""Epoch-level training loop and the offline-vs-in-situ experiment.

Works with any classifier exposing ``train_step(x, labels) -> loss`` and
``accuracy(x, labels) -> float`` — i.e. both :class:`~repro.nn.reference.
DigitalMLP` (the paper's "train a digital model first" strawman) and
:class:`~repro.training.insitu.InSituTrainer` (Trident).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.errors import ConfigError
from repro.nn.datasets import Dataset


class Classifier(Protocol):
    """Minimal trainable-classifier interface."""

    def train_step(self, x_batch: np.ndarray, labels: np.ndarray) -> float:
        """One optimization step; returns the batch loss."""
        ...

    def accuracy(self, x_batch: np.ndarray, labels: np.ndarray) -> float:
        """Classification accuracy on a batch."""
        ...


@dataclass
class TrainingHistory:
    """Per-epoch metrics from :func:`train_classifier`."""

    losses: list[float] = field(default_factory=list)
    train_accuracies: list[float] = field(default_factory=list)
    test_accuracies: list[float] = field(default_factory=list)
    epoch_times_s: list[float] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float:
        """Test accuracy after the last epoch."""
        if not self.test_accuracies:
            raise ConfigError("no epochs recorded")
        return self.test_accuracies[-1]

    @property
    def epochs(self) -> int:
        """Number of recorded epochs."""
        return len(self.losses)


def train_classifier(
    model: Classifier,
    train: Dataset,
    test: Dataset,
    epochs: int = 10,
    batch_size: int = 16,
    seed: int = 0,
) -> TrainingHistory:
    """Train for ``epochs`` passes; record loss and accuracies per epoch."""
    if epochs < 1:
        raise ConfigError(f"epochs must be positive, got {epochs}")
    history = TrainingHistory()
    for epoch in range(epochs):
        t0 = time.perf_counter()
        epoch_losses = []
        for xb, yb in train.batches(batch_size, seed=seed + epoch):
            epoch_losses.append(model.train_step(xb, yb))
        history.epoch_times_s.append(time.perf_counter() - t0)
        history.losses.append(float(np.mean(epoch_losses)))
        history.train_accuracies.append(model.accuracy(train.x, train.y))
        history.test_accuracies.append(model.accuracy(test.x, test.y))
    return history

"""Synthetic datasets for in-situ training experiments.

The paper trains on 50 000 images; offline image corpora are not available
here, so these generators provide classification tasks of controllable
difficulty that exercise the identical training code path (DESIGN.md's
substitution table).  All generators take an explicit seed and return
float64 features + integer labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class Dataset:
    """Features (n, d) and integer labels (n,)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self) -> None:
        if self.x.ndim != 2 or self.y.ndim != 1:
            raise ConfigError(
                f"x must be 2-D and y 1-D, got {self.x.shape} / {self.y.shape}"
            )
        if self.x.shape[0] != self.y.shape[0]:
            raise ConfigError("x and y must have matching lengths")

    @property
    def n_samples(self) -> int:
        """Number of samples."""
        return self.x.shape[0]

    @property
    def n_features(self) -> int:
        """Feature dimensionality."""
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        """Number of distinct labels."""
        return int(self.y.max()) + 1 if self.y.size else 0

    def split(self, train_fraction: float = 0.8, seed: int = 0) -> tuple["Dataset", "Dataset"]:
        """Shuffled train/test split."""
        if not 0.0 < train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {train_fraction}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.n_samples)
        cut = int(round(self.n_samples * train_fraction))
        if cut == 0 or cut == self.n_samples:
            raise ConfigError("split produced an empty partition")
        tr, te = order[:cut], order[cut:]
        return Dataset(self.x[tr], self.y[tr]), Dataset(self.x[te], self.y[te])

    def batches(self, batch_size: int, seed: int = 0):
        """Yield shuffled (x, y) minibatches covering the dataset once."""
        if batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {batch_size}")
        rng = np.random.default_rng(seed)
        order = rng.permutation(self.n_samples)
        for start in range(0, self.n_samples, batch_size):
            idx = order[start : start + batch_size]
            yield self.x[idx], self.y[idx]


def standardize(x: np.ndarray) -> np.ndarray:
    """Zero-mean, unit-variance per feature (constant features pass through)."""
    x = np.asarray(x, dtype=np.float64)
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    return (x - mean) / std


def one_hot(labels: np.ndarray, n_classes: int) -> np.ndarray:
    """(n,) integer labels -> (n, n_classes) one-hot floats."""
    y = np.asarray(labels)
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ConfigError(f"labels out of range for {n_classes} classes")
    out = np.zeros((y.shape[0], n_classes), dtype=np.float64)
    out[np.arange(y.shape[0]), y] = 1.0
    return out


def make_blobs(
    n_samples: int = 400,
    n_features: int = 8,
    n_classes: int = 4,
    spread: float = 0.6,
    seed: int = 0,
) -> Dataset:
    """Gaussian clusters, one per class, centers on a scaled hypercube."""
    if n_samples < n_classes or n_classes < 2:
        raise ConfigError("need >= 2 classes and at least one sample each")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-2.0, 2.0, size=(n_classes, n_features))
    y = rng.integers(0, n_classes, size=n_samples)
    x = centers[y] + rng.normal(0.0, spread, size=(n_samples, n_features))
    return Dataset(x=x, y=y)


def clipped_blobs(
    n_samples: int,
    n_features: int,
    n_classes: int,
    spread: float = 0.6,
    seed: int = 0,
) -> Dataset:
    """:func:`make_blobs`, standardized and squeezed into [-1, 1], the
    optical input range of a mapped network."""
    data = make_blobs(n_samples, n_features, n_classes, spread, seed)
    return Dataset(x=np.clip(standardize(data.x) / 3, -1, 1), y=data.y)


def make_moons(n_samples: int = 400, noise: float = 0.1, seed: int = 0) -> Dataset:
    """Two interleaved half circles in 2-D (binary)."""
    if n_samples < 4:
        raise ConfigError("need at least 4 samples")
    rng = np.random.default_rng(seed)
    n0 = n_samples // 2
    n1 = n_samples - n0
    t0 = rng.uniform(0.0, np.pi, n0)
    t1 = rng.uniform(0.0, np.pi, n1)
    x0 = np.stack([np.cos(t0), np.sin(t0)], axis=1)
    x1 = np.stack([1.0 - np.cos(t1), 0.5 - np.sin(t1)], axis=1)
    x = np.concatenate([x0, x1]) + rng.normal(0.0, noise, size=(n_samples, 2))
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n1, dtype=np.int64)])
    return Dataset(x=x, y=y)


def make_teacher(
    n_samples: int = 500,
    n_features: int = 12,
    n_classes: int = 3,
    hidden: int = 16,
    seed: int = 0,
) -> Dataset:
    """Labels produced by a random two-layer teacher network.

    Harder than blobs: the decision boundary is a genuine composition of a
    linear map and a ReLU, i.e. exactly the function family the photonic
    hardware trains.
    """
    if n_classes < 2 or hidden < 1:
        raise ConfigError("need >= 2 classes and a positive hidden width")
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, size=(n_samples, n_features))
    w1 = rng.normal(0.0, 1.0, size=(hidden, n_features)) / np.sqrt(n_features)
    w2 = rng.normal(0.0, 1.0, size=(n_classes, hidden)) / np.sqrt(hidden)
    logits = np.maximum(x @ w1.T, 0.0) @ w2.T
    return Dataset(x=x, y=np.argmax(logits, axis=1))


def make_shapes(
    n_samples: int = 300,
    size: int = 8,
    noise: float = 0.15,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Tiny image-classification task for the functional CNN path.

    Three classes of ``size x size x 1`` images in [0, 1]: vertical
    stripes, horizontal stripes, and a checkerboard, each corrupted by
    additive noise and a random phase shift.  Returns (images, labels)
    with images shaped (n, size, size, 1).
    """
    if n_samples < 3:
        raise ConfigError("need at least 3 samples")
    if size < 4:
        raise ConfigError("size must be at least 4")
    if noise < 0:
        raise ConfigError("noise must be non-negative")
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n_samples)
    idx = np.arange(size)
    images = np.empty((n_samples, size, size, 1), dtype=np.float64)
    for i, label in enumerate(labels):
        phase = int(rng.integers(0, 2))
        if label == 0:  # vertical stripes
            pattern = ((idx[None, :] + phase) % 2).astype(float)
            img = np.broadcast_to(pattern, (size, size)).copy()
        elif label == 1:  # horizontal stripes
            pattern = ((idx[:, None] + phase) % 2).astype(float)
            img = np.broadcast_to(pattern, (size, size)).copy()
        else:  # checkerboard
            img = ((idx[:, None] + idx[None, :] + phase) % 2).astype(float)
        img = img + rng.normal(0.0, noise, size=(size, size))
        images[i, :, :, 0] = np.clip(img, 0.0, 1.0)
    return images, labels

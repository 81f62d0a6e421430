"""Detection noise is drawn once per observed sum.

A tiled layer sums its reduction tiles' detections electronically, and the
training outer product sums the batch's weighted gradient blocks.  The
engine draws one Gaussian per summed value, with the summed variance of
the detections it stands for.  The oracles below are the per-partial path
that came before it, kept as test code only: every partial (reduction
tile, or per-sample (y, d) block) takes its own draw, then the partials
are summed.

- Exact: the mean and variance handed to the single draw equal the
  noise-free sum and the sum of the oracle's per-partial variances; with
  noise off, the two paths agree.
- Statistical: over many seeds the two paths have the same per-cell means
  and the same pooled variance.
"""

import numpy as np
import pytest

from repro.arch import TridentAccelerator, TridentConfig
from repro.arch.control import RangeNormalizer
from repro.arch.pe import ProcessingElement
from repro.arch.weight_bank import WeightBank
from repro.devices.noise import NoiseModel
from repro.devices.photodetector import BalancedPhotodetector

SEEDS = 400
#: One 64-wide layer on 16x16 banks: every output sums four reduction tiles.
WIDTH, BANK, BATCH = 64, 16, 4
#: Outer product: B samples of d deltas and y layer inputs.
OP_B, OP_D, OP_Y = 8, 10, 16


def law(noise, x):
    """Per-detection variance, written out independently of the engine."""
    return (
        noise.shot_noise_coeff**2 * np.abs(x)
        + noise.thermal_noise_std**2
        + (noise.rin_coeff * x) ** 2
    )


class DrawSpy:
    """Records ``(signal, variance)`` of every detection-noise draw."""

    def __init__(self, monkeypatch):
        self.calls = []
        original = NoiseModel.apply_detection_noise

        def spy(noise, signal, variance=None):
            self.calls.append(
                (np.array(signal), None if variance is None else np.array(variance))
            )
            return original(noise, signal, variance)

        monkeypatch.setattr(NoiseModel, "apply_detection_noise", spy)


# ---------------------------------------------------------------------------
# Tiled layer
# ---------------------------------------------------------------------------
def tiled_layer(enabled: bool = True) -> TridentAccelerator:
    acc = TridentAccelerator(
        config=TridentConfig(n_pes=32, bank_rows=BANK, bank_cols=BANK),
        noise=NoiseModel(enabled=enabled, seed=0),
        seed=0,
    )
    acc.map_mlp([WIDTH, WIDTH])
    rng = np.random.default_rng(1)
    acc.set_weights([rng.normal(0.0, 0.3, (WIDTH, WIDTH))])
    return acc


def per_partial_forward(acc: TridentAccelerator, xs: np.ndarray) -> np.ndarray:
    """Oracle: every reduction tile's detection takes its own draw."""
    (layer,) = acc.layers
    enc, scales = RangeNormalizer.normalize_columns(xs.T)
    logits = np.zeros((layer.out_dim, xs.shape[0]))
    for r0, r1, c0, c1, pe_index in layer.tiles:
        logits[r0:r1] += acc.pes[pe_index].forward_batch(
            enc[c0:c1], capture_derivative=False, validate=False
        )
    return (logits * scales * layer.weight_scale).T


def layer_inputs() -> np.ndarray:
    return np.random.default_rng(2).uniform(-1.0, 1.0, (BATCH, WIDTH))


def test_tiled_layer_draws_once_with_summed_variance(monkeypatch):
    acc, xs = tiled_layer(), layer_inputs()
    assert len(acc.layers[0].tiles) == 16
    spy = DrawSpy(monkeypatch)
    acc.forward_batch(xs)
    ((mean, variance),) = spy.calls
    assert mean.shape == variance.shape == (WIDTH, BATCH)

    spy.calls.clear()
    per_partial_forward(acc, xs)
    assert len(spy.calls) == 16
    oracle_mean = np.zeros((WIDTH, BATCH))
    oracle_variance = np.zeros((WIDTH, BATCH))
    for (r0, r1, *_), (partial, given) in zip(acc.layers[0].tiles, spy.calls):
        assert given is None
        oracle_mean[r0:r1] += partial
        oracle_variance[r0:r1] += law(acc.noise, partial)
    np.testing.assert_allclose(mean, oracle_mean, rtol=1e-12)
    np.testing.assert_allclose(variance, oracle_variance, rtol=1e-12)


def test_tiled_layer_noise_free_matches_oracle():
    acc, xs = tiled_layer(enabled=False), layer_inputs()
    np.testing.assert_allclose(
        acc.forward_batch(xs), per_partial_forward(acc, xs), rtol=0, atol=1e-12
    )


def test_tiled_layer_matches_oracle_in_distribution():
    acc, xs = tiled_layer(), layer_inputs()
    new, oracle = [], []
    for seed in range(SEEDS):
        acc.noise.reseed(seed)
        new.append(acc.forward_batch(xs))
        acc.noise.reseed(SEEDS + seed)  # independent of the new path's draws
        oracle.append(per_partial_forward(acc, xs))
    assert_same_distribution(np.array(new), np.array(oracle))


# ---------------------------------------------------------------------------
# Outer product
# ---------------------------------------------------------------------------
def crosstalk_pe(enabled: bool = True) -> ProcessingElement:
    noise = NoiseModel(enabled=enabled, seed=0)
    crosstalk = np.eye(BANK) + 0.01 * np.eye(BANK, k=1) + 0.02 * np.eye(BANK, k=-1)
    return ProcessingElement(
        bank=WeightBank(rows=BANK, cols=BANK, noise=noise, crosstalk=crosstalk),
        bpd=BalancedPhotodetector(noise=noise),
    )


def per_sample_outer_product(pe, delta_h, y_prev, scales) -> np.ndarray:
    """Oracle: detect each sample's (y, d) block, then sum them weighted."""
    realized_y = pe.bank.realize_virtually(y_prev)
    colsum = pe.bank.crosstalk[:OP_D, :OP_D].sum(axis=0)
    streamed = realized_y[:, :, None] * (delta_h * colsum)[:, None, :]
    detected = pe.bpd.detect_normalized(streamed)  # (B, y, d)
    return np.einsum("byd,b->dy", detected, scales)


def outer_product_inputs():
    rng = np.random.default_rng(3)
    return (
        rng.uniform(-1.0, 1.0, (OP_B, OP_D)),
        rng.uniform(-1.0, 1.0, (OP_B, OP_Y)),
        rng.uniform(0.2, 3.0, OP_B),
    )


def test_outer_product_draws_once_with_summed_variance(monkeypatch):
    pe, (delta_h, y_prev, scales) = crosstalk_pe(), outer_product_inputs()
    spy = DrawSpy(monkeypatch)
    pe.outer_product_batch(delta_h, y_prev, scales)
    ((mean, variance),) = spy.calls
    assert mean.shape == variance.shape == (OP_D, OP_Y)

    spy.calls.clear()
    per_sample_outer_product(pe, delta_h, y_prev, scales)
    ((blocks, given),) = spy.calls  # the exact (B, y, d) detections
    assert given is None
    oracle_mean = np.einsum("byd,b->dy", blocks, scales)
    oracle_variance = np.einsum("byd,b->dy", law(pe.bpd.noise, blocks), scales**2)
    np.testing.assert_allclose(mean, oracle_mean, rtol=1e-12)
    np.testing.assert_allclose(variance, oracle_variance, rtol=1e-12)


def test_outer_product_noise_free_matches_oracle():
    pe, (delta_h, y_prev, scales) = crosstalk_pe(enabled=False), outer_product_inputs()
    np.testing.assert_allclose(
        pe.outer_product_batch(delta_h, y_prev, scales),
        per_sample_outer_product(pe, delta_h, y_prev, scales),
        rtol=0,
        atol=1e-12,
    )


def test_outer_product_matches_oracle_in_distribution():
    pe, (delta_h, y_prev, scales) = crosstalk_pe(), outer_product_inputs()
    new, oracle = [], []
    for seed in range(SEEDS):
        pe.bpd.noise.reseed(seed)
        new.append(pe.outer_product_batch(delta_h, y_prev, scales))
        pe.bpd.noise.reseed(SEEDS + seed)
        oracle.append(per_sample_outer_product(pe, delta_h, y_prev, scales))
    assert_same_distribution(np.array(new), np.array(oracle))


def assert_same_distribution(new: np.ndarray, oracle: np.ndarray) -> None:
    """Per-cell means within 4.5 standard errors; pooled variance within 5%."""
    n = new.shape[0]
    var_new, var_oracle = new.var(axis=0, ddof=1), oracle.var(axis=0, ddof=1)
    z = (new.mean(axis=0) - oracle.mean(axis=0)) / np.sqrt((var_new + var_oracle) / n)
    assert np.max(np.abs(z)) < 4.5
    assert var_new.sum() / var_oracle.sum() == pytest.approx(1.0, abs=0.05)

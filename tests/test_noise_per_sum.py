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
- Bits: where every output has one tile (one column block), the single
  draw equals the per-tile draws under ``==`` at the same seed, because
  every mapper lays its tiles out row-major (also checked here).
"""

import numpy as np
import pytest

from repro.arch import TridentAccelerator, TridentConfig
from repro.arch.control import RangeNormalizer
from repro.arch.convnet import FunctionalConvNet
from repro.arch.pe import ProcessingElement
from repro.arch.weight_bank import WeightBank
from repro.devices.noise import NoiseModel
from repro.devices.photodetector import BalancedPhotodetector
from repro.integrity.abft import ChecksumUnit

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
def tiled_layer(enabled: bool = True, n_in: int = WIDTH, n_out: int = WIDTH) -> TridentAccelerator:
    acc = TridentAccelerator(
        config=TridentConfig(n_pes=32, bank_rows=BANK, bank_cols=BANK),
        noise=NoiseModel(enabled=enabled, seed=0),
        seed=0,
    )
    acc.map_mlp([n_in, n_out])
    rng = np.random.default_rng(1)
    acc.set_weights([rng.normal(0.0, 0.3, (n_out, n_in))])
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


def layer_inputs(n_in: int = WIDTH) -> np.ndarray:
    return np.random.default_rng(2).uniform(-1.0, 1.0, (BATCH, n_in))


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


def test_one_column_block_draws_once_with_the_per_tile_bits(monkeypatch):
    """Row tiles of one column block: one draw, equal to per-tile draws.

    The (rows, B) draw reads the standard normals in C order, which is
    the order the per-tile draws read them when the tiles ascend by row.
    """
    acc, xs = tiled_layer(n_in=BANK), layer_inputs(BANK)
    tiles = acc.layers[0].tiles
    assert len(tiles) == WIDTH // BANK and {c0 for _, _, c0, _, _ in tiles} == {0}
    spy = DrawSpy(monkeypatch)
    for seed in range(3):
        spy.calls.clear()
        acc.noise.reseed(seed)
        out = acc.forward_batch(xs)
        ((_, variance),) = spy.calls
        assert variance.shape == (WIDTH, BATCH)
        acc.noise.reseed(seed)
        oracle = per_partial_forward(acc, xs)
        assert np.array_equal(out, oracle)
        assert not np.array_equal(out, tiled_layer(False, BANK).forward_batch(xs))


def test_single_tile_latches_the_noisy_output():
    """A one-tile layer's LDSU bits come from the detected, noisy sum."""
    acc, xs = tiled_layer(n_in=BANK, n_out=BANK), layer_inputs(BANK)
    ((_, _, _, _, pe_index),) = acc.layers[0].tiles
    pe = acc.pes[pe_index]
    enc, scales = RangeNormalizer.normalize_columns(xs.T)
    acc.noise.reseed(0)
    out = acc.forward_batch(xs)
    bits = pe.ldsu.derivative_gains_batch()
    acc.noise.reseed(0)
    # The per-tile path: the PE draws inside detection, then latches.
    logits = pe.forward_batch(enc, capture_derivative=True, validate=False)
    assert np.array_equal(out, (logits * scales * acc.layers[0].weight_scale).T)
    assert np.array_equal(bits, pe.ldsu.derivative_gains_batch())


def column_blocks_ascend_and_cover(tiles, rows: int) -> bool:
    """Each column block's tiles ascend by ``r0`` and tile ``[0, rows)``."""
    blocks: dict[int, list[tuple[int, int]]] = {}
    for r0, r1, c0, _, _ in tiles:
        blocks.setdefault(c0, []).append((r0, r1))
    return all(
        [r0 for r0, _ in spans] == [0] + [r1 for _, r1 in spans[:-1]]
        and spans[-1][1] == rows
        for spans in blocks.values()
    )


@pytest.mark.parametrize("bank", [(4, 4), (8, 4), (4, 8), (16, 16)])
@pytest.mark.parametrize("dims", [[3, 5], [8, 24, 16, 4], [17, 9, 33]])
def test_every_mapper_builds_tiles_row_major(bank, dims):
    """The layout the single draw's bits rely on (see ``stream_tiles``)."""
    rows, cols = bank
    config = TridentConfig(n_pes=2048, bank_rows=rows, bank_cols=cols)
    acc = TridentAccelerator(config=config, seed=0)
    acc.map_mlp(dims)
    for layer in acc.layers:
        assert column_blocks_ascend_and_cover(layer.tiles, layer.out_dim)
    rng = np.random.default_rng(0)
    acc.set_weights([rng.normal(0.0, 0.3, (o, i)) for i, o in zip(dims, dims[1:])])
    checksums = ChecksumUnit(acc)
    for layer_tiles in checksums.tiles:
        tiles = [(0, 1, c0, c1, pe_index) for c0, c1, pe_index in layer_tiles]
        assert column_blocks_ascend_and_cover(tiles, 1)
    net = FunctionalConvNet(
        (6, 6, 2), [("conv", dims[1], 3, 1, 1), ("flatten",), ("dense", dims[-1])],
        config=config,
    )
    net.set_weights([
        rng.normal(0.0, 0.3, (dims[1], 3, 3, 2)),
        rng.normal(0.0, 0.3, (dims[-1], 6 * 6 * dims[1])),
    ])
    assert len(net._pe_of_layer) == 2
    for index, tiles in net._pe_of_layer.items():
        kind, layer = net.layers[index]
        m = layer.out_channels if kind == "conv" else layer.out_features
        assert column_blocks_ascend_and_cover(tiles, m)


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

"""Tests for the processing element's three operating modes.

Every mode takes a batch; a single sample is a batch of one.
"""

import numpy as np
import pytest

from repro.arch.pe import ProcessingElement
from repro.arch.weight_bank import WeightBank
from repro.devices.ldsu import LDSU
from repro.errors import ShapeError


@pytest.fixture
def pe():
    return ProcessingElement()


class TestConstruction:
    def test_defaults(self, pe):
        assert pe.rows == 16
        assert pe.cols == 16
        assert len(pe.tias) == 16
        assert pe.ldsu.n_rows == 16

    def test_ldsu_row_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            ProcessingElement(bank=WeightBank(rows=8), ldsu=LDSU(n_rows=16))

    def test_tia_count_mismatch_rejected(self):
        from repro.devices.tia import TransimpedanceAmplifier

        with pytest.raises(ShapeError):
            ProcessingElement(tias=[TransimpedanceAmplifier()])


class TestForward:
    def test_matches_digital_gst_network(self, pe, rng):
        w = rng.uniform(-1, 1, (16, 16))
        x = rng.uniform(-1, 1, 16)
        pe.program_weights(w)
        out = pe.activation.fire(pe.forward_batch(x[:, None])[:, 0])
        expected = 0.34 * np.maximum(w @ x, 0)
        assert np.max(np.abs(out - expected)) < 0.1

    def test_no_activation_returns_logits(self, pe, rng):
        w = rng.uniform(-1, 1, (8, 8))
        x = rng.uniform(-1, 1, 8)
        pe.program_weights(w)
        logits = pe.forward_batch(x[:, None])[:, 0]
        assert pe.activation.firing_events == 0  # the accelerator fires
        assert np.max(np.abs(logits - w @ x)) < 0.05

    def test_ldsu_captures_derivative_bits(self, pe, rng):
        w = rng.uniform(-1, 1, (16, 16))
        x = rng.uniform(-1, 1, 16)
        pe.program_weights(w)
        logits = pe.forward_batch(x[:, None])[:, 0]
        expected_bits = logits > 0
        assert np.array_equal(pe.ldsu.bits, expected_bits)

    def test_capture_can_be_disabled(self, pe, rng):
        pe.program_weights(rng.uniform(-1, 1, (16, 16)))
        pe.forward_batch(rng.uniform(-1, 1, (16, 1)), capture_derivative=False)
        assert not pe.ldsu.bits.any()

    def test_activation_firing_counted(self, pe, rng):
        pe.program_weights(rng.uniform(-1, 1, (16, 16)))
        pe.activation.fire(pe.forward_batch(rng.uniform(-1, 1, (16, 1))))
        assert pe.activation.firing_events > 0


class TestGradientVector:
    def test_hadamard_with_ldsu_gains(self, pe, rng):
        n = 16
        # Forward pass on W to latch f'(h).
        w = rng.uniform(-1, 1, (n, n))
        x = rng.uniform(-1, 1, n)
        pe.program_weights(w)
        h = pe.forward_batch(x[:, None])[:, 0]
        # Backward with W_next^T programmed.
        w_next = rng.uniform(-1, 1, (n, n))
        pe.program_weights(w_next.T)
        delta = rng.uniform(-1, 1, n)
        got = pe.gradient_vector_batch(delta[:, None])[:, 0]
        expected = (w_next.T @ delta) * np.where(h > 0, 0.34, 0.0)
        assert np.max(np.abs(got - expected)) < 0.1

    def test_dead_rows_zeroed(self, pe, rng):
        n = 8
        pe.program_weights(-np.ones((n, n)))  # all logits negative
        pe.forward_batch(np.full((n, 1), 0.5))
        pe.program_weights(rng.uniform(-1, 1, (n, n)))
        out = pe.gradient_vector_batch(rng.uniform(-1, 1, (n, 1)))
        assert np.allclose(out, 0.0)


class TestOuterProduct:
    def test_matches_numpy_outer(self, pe, rng):
        d = rng.uniform(-1, 1, (3, 10))
        y = rng.uniform(-1, 1, (3, 12))
        scales = rng.uniform(0.5, 2.0, 3)
        got = pe.outer_product_batch(d, y, scales)
        assert got.shape == (10, 12)
        expected = np.einsum("b,bi,bj->ij", scales, d, y)
        assert np.max(np.abs(got - expected)) < 0.05

    def test_full_bank(self, pe, rng):
        d = rng.uniform(-1, 1, 16)
        y = rng.uniform(-1, 1, 16)
        got = pe.outer_product_batch(d[None], y[None])
        assert got.shape == (16, 16)
        assert np.max(np.abs(got - np.outer(d, y))) < 0.05

    def test_rejects_oversize(self, pe, rng):
        with pytest.raises(ShapeError):
            pe.outer_product_batch(rng.uniform(-1, 1, (1, 17)), rng.uniform(-1, 1, (1, 4)))
        with pytest.raises(ShapeError):
            pe.outer_product_batch(rng.uniform(-1, 1, (1, 4)), rng.uniform(-1, 1, (1, 17)))

    def test_costs_one_write_and_len_delta_symbols(self, pe, rng):
        d = rng.uniform(-1, 1, 6)
        y = rng.uniform(-1, 1, 4)
        pe.outer_product_batch(d[None], y[None])
        assert pe.bank.stats.write_events == 1
        assert pe.bank.stats.symbols == 6


def physical_outer_product(d: np.ndarray, y: np.ndarray) -> np.ndarray:
    """dW = d ⊗ y the way the silicon computes it: program a fresh bank
    column-constant with y, stream d one wavelength per symbol, detect."""
    pe = ProcessingElement()
    pe.bank.program(np.tile(y[:, None], (1, d.shape[0])))
    return pe.bpd.detect_normalized(pe.bank.matmat(np.diag(d))).T


class TestBatchedModes:
    """Batch invariance: a B-sample call equals B single-sample calls."""

    def test_forward_batch_matches_per_sample(self, rng):
        w = rng.uniform(-1, 1, (16, 16))
        xs = rng.uniform(-1, 1, (16, 5))
        batched_pe = ProcessingElement()
        batched_pe.program_weights(w)
        got = batched_pe.forward_batch(xs)
        single_pe = ProcessingElement()
        single_pe.program_weights(w)
        expected = np.concatenate(
            [single_pe.forward_batch(xs[:, b : b + 1]) for b in range(5)], axis=1
        )
        assert np.allclose(got, expected, atol=1e-12)
        assert np.array_equal(batched_pe.ldsu.batch_bits, got > 0)
        # The flip-flops hold the last sample's bits either way.
        assert np.array_equal(batched_pe.ldsu.bits, single_pe.ldsu.bits)
        # Same streamed-symbol cost as five single-sample passes.
        assert batched_pe.bank.stats.symbols == single_pe.bank.stats.symbols

    def test_gradient_vector_batch_matches_per_sample(self, rng):
        n, B = 16, 4
        w = rng.uniform(-1, 1, (n, n))
        x_cols = rng.uniform(-1, 1, (n, B))
        w_next = rng.uniform(-1, 1, (n, n))
        deltas = rng.uniform(-1, 1, (n, B))

        pe_b = ProcessingElement()
        pe_b.program_weights(w)
        pe_b.forward_batch(x_cols)
        pe_b.program_weights(w_next.T)
        got = pe_b.gradient_vector_batch(deltas)

        symbols = 0
        for b in range(B):
            pe_s = ProcessingElement()
            pe_s.program_weights(w)
            pe_s.forward_batch(x_cols[:, b : b + 1])
            pe_s.program_weights(w_next.T)
            single = pe_s.gradient_vector_batch(deltas[:, b : b + 1])
            assert np.allclose(got[:, b], single[:, 0], atol=1e-12)
            symbols += pe_s.bank.stats.symbols
        assert pe_b.bank.stats.symbols == symbols

    def test_outer_product_batch_matches_per_sample(self, rng):
        B, d, y = 3, 6, 4
        deltas = rng.uniform(-1, 1, (B, d))
        ys = rng.uniform(-1, 1, (B, y))
        scales = rng.uniform(0.5, 2.0, B)
        pe_b = ProcessingElement()
        got = pe_b.outer_product_batch(deltas, ys, scales)
        assert got.shape == (d, y)
        expected = np.zeros((d, y))
        for b in range(B):
            single = ProcessingElement().outer_product_batch(deltas[b : b + 1], ys[b : b + 1])
            # The emulation against a real bank program + stream.
            assert np.allclose(single, physical_outer_product(deltas[b], ys[b]), atol=1e-12)
            expected += scales[b] * single
        assert np.allclose(got, expected, atol=1e-12)

    def test_outer_product_batch_charges_per_sample_costs(self, rng):
        B, d, y = 5, 6, 4
        pe = ProcessingElement()
        pe.outer_product_batch(rng.uniform(-1, 1, (B, d)), rng.uniform(-1, 1, (B, y)))
        # B programming events of y*d cells and B*d symbols — exactly what
        # B sequential column-constant programs and streams would charge.
        assert pe.bank.stats.write_events == B
        assert pe.bank.stats.cells_written == B * d * y
        assert pe.bank.stats.symbols == B * d
        assert pe.bank.stats.write_energy_j == pytest.approx(B * d * y * 660e-12)

    def test_outer_product_batch_validation(self, rng):
        pe = ProcessingElement()
        with pytest.raises(ShapeError):
            pe.outer_product_batch(np.zeros((2, 6)), np.zeros((3, 4)))
        with pytest.raises(ShapeError):
            pe.outer_product_batch(np.zeros((2, 17)), np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            pe.outer_product_batch(np.full((2, 6), 2.0), np.zeros((2, 4)))


class TestTIAGains:
    def test_set_and_reset(self, pe):
        gains = np.linspace(0, 1, 16)
        pe.set_tia_gains(gains)
        assert np.allclose([t.gain for t in pe.tias], gains)
        pe.reset_tia_gains()
        assert all(t.gain == 1.0 for t in pe.tias)

    def test_rejects_wrong_length(self, pe):
        with pytest.raises(ShapeError):
            pe.set_tia_gains(np.ones(4))

    def test_write_energy_property(self, pe, rng):
        pe.program_weights(rng.uniform(-1, 1, (16, 16)))
        assert pe.write_energy_j == pytest.approx(256 * 660e-12)

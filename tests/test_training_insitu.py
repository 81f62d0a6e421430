"""Tests for in-situ photonic backpropagation."""

import numpy as np
import pytest

from repro.arch.accelerator import TridentAccelerator
from repro.devices.noise import NoiseModel
from repro.errors import MappingError, ShapeError
from repro.nn.datasets import Dataset, make_blobs, standardize
from repro.nn.reference import DigitalMLP, cross_entropy_loss
from repro.training.insitu import InSituTrainer


def make_accelerator(dims, seed=0, noise=None):
    acc = TridentAccelerator(noise=noise)
    acc.map_mlp(dims)
    mlp = DigitalMLP(dims, activation="gst", seed=seed)
    acc.set_weights([w.copy() for w in mlp.weights])
    return acc, mlp


def single_sample_gradients(acc, trainer, xb, grads_logits):
    """Summed gradients of B single-sample backward passes, each after its
    own recorded B=1 forward, plus the symbols and bank writes those
    backward passes charged."""
    accum = [np.zeros((layer.out_dim, layer.in_dim)) for layer in acc.layers]
    symbols = writes = 0
    for x, g in zip(xb, grads_logits):
        # The previous backward pass left W^T in the banks: restore the
        # forward weights before the next sample's forward.
        acc.set_weights([layer.weights for layer in acc.layers])
        acc.forward_batch(x[None], record=True)
        before = acc.counters.snapshot()
        for a, gr in zip(accum, trainer.backward_batch(g[None])):
            a += gr
        spent = acc.counters.diff(before)
        symbols += spent.symbols
        writes += spent.bank_writes
    return accum, symbols, writes


def single_sample_step(trainer, xb, yb):
    """The batch's SGD step built from B=1 batches: per-sample losses and
    gradients, one update with the batch mean.  Returns the mean loss."""
    acc = trainer.acc
    losses, grads_logits = [], []
    for x, label in zip(xb, yb):
        acc.set_weights([layer.weights for layer in acc.layers])
        loss, g = cross_entropy_loss(acc.forward_batch(x[None]), np.array([label]))
        losses.append(loss)
        grads_logits.append(g[0])
    accum, _, _ = single_sample_gradients(acc, trainer, xb, grads_logits)
    acc.set_weights(
        [layer.weights - trainer.lr * a / len(xb) for layer, a in zip(acc.layers, accum)]
    )
    return float(np.mean(losses))


@pytest.fixture
def blob_data():
    data = make_blobs(n_samples=240, n_features=8, n_classes=3, spread=0.7, seed=1)
    data = Dataset(x=np.clip(standardize(data.x) / 3, -1, 1), y=data.y)
    return data.split(0.8, seed=0)


class TestConstruction:
    def test_requires_mapped_network(self):
        with pytest.raises(MappingError):
            InSituTrainer(TridentAccelerator())

    def test_rejects_tiled_layers(self):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])  # multi-tile layers
        with pytest.raises(MappingError):
            InSituTrainer(acc)

    def test_rejects_bad_lr(self):
        acc, _ = make_accelerator([8, 4])
        with pytest.raises(MappingError):
            InSituTrainer(acc, lr=0.0)
        for lr in (float("nan"), float("inf")):
            with pytest.raises(MappingError, match="finite"):
                InSituTrainer(acc, lr=lr)


class TestGradientFidelity:
    def test_photonic_gradients_match_digital(self):
        """The three photonic passes must reproduce Eqs. (1)-(3) up to
        quantization error."""
        dims = [8, 10, 4]
        acc, mlp = make_accelerator(dims, seed=3)
        trainer = InSituTrainer(acc, lr=0.1)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 8)
        label = 2

        logits_hw = acc.forward_batch(x[None], record=True)
        _, grad = cross_entropy_loss(logits_hw, np.array([label]))
        grads_hw = trainer.backward_batch(grad)

        grads_ref = mlp.gradients(x[None, :], grad).weights
        for g_hw, g_ref in zip(grads_hw, grads_ref):
            assert g_hw.shape == g_ref.shape
            assert np.max(np.abs(g_hw - g_ref)) < 0.05

    def test_backward_requires_recorded_forward(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        with pytest.raises(MappingError):
            trainer.backward_batch(np.zeros((1, 4)))

    def test_backward_shape_checked(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        acc.forward_batch(np.zeros((1, 8)), record=True)
        with pytest.raises(ShapeError):  # gradients for 2 samples, 1 recorded
            trainer.backward_batch(np.zeros((2, 4)))


class TestTrainStep:
    def test_reduces_loss(self, blob_data):
        train, _ = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        xb, yb = train.x[:32], train.y[:32]
        first = trainer.train_step(xb, yb)
        for _ in range(8):
            last = trainer.train_step(xb, yb)
        assert last < first

    def test_weights_stay_on_quantized_grid(self, blob_data):
        """After an update the programmed weights are re-quantized — the
        8-bit constraint the paper's training argument hinges on."""
        train, _ = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        trainer.train_step(train.x[:16], train.y[:16])
        for layer, pe_index in zip(acc.layers, range(len(acc.pes))):
            bank = acc.pes[layer.tiles[0][4]].bank
            realized = bank.realized_weights[: layer.out_dim, : layer.in_dim]
            levels = (realized + 1) / 2 * (bank.levels - 1)
            assert np.allclose(levels, np.rint(levels), atol=1e-6)

    def test_batch_shape_mismatch_rejected(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        with pytest.raises(ShapeError):
            trainer.train_step(np.zeros((4, 8)), np.zeros(3, dtype=int))

    def test_empty_batch_rejected_before_hardware_work(self):
        """A (0, n) batch used to return a NaN loss and write NaN into
        every layer's weight shadow and bank."""
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        counters = acc.counters.as_dict()
        weights = trainer.weights
        with pytest.raises(ShapeError):
            trainer.train_step(np.zeros((0, 8)), np.zeros(0, dtype=int))
        assert acc.counters.as_dict() == counters
        for before, after in zip(weights, trainer.weights):
            assert np.array_equal(before, after)

    def test_hardware_events_accumulate(self, blob_data):
        train, _ = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        trainer.train_step(train.x[:8], train.y[:8])
        # Training is write-heavy even batched: every sample still pays its
        # outer-product bank program, plus the grouped W^T and update writes.
        assert acc.counters.bank_writes > 8
        assert acc.counters.mode_switches > 0
        assert acc.energy_estimate_j() > 0


class TestEndToEnd:
    def test_learns_blobs_to_high_accuracy(self, blob_data):
        train, test = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        from repro.training.trainer import train_classifier

        hist = train_classifier(trainer, train, test, epochs=6, batch_size=16)
        assert hist.final_test_accuracy > 0.85

    def test_tracks_digital_twin(self, blob_data):
        """In-situ training must land close to an identically-initialized
        digital run (the no-mismatch property)."""
        train, test = blob_data
        dims = [8, 12, 3]
        acc, _ = make_accelerator(dims, seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        digital = DigitalMLP(dims, activation="gst", seed=2)
        from repro.training.trainer import train_classifier

        class Wrap:
            def train_step(self, x, y):
                return digital.train_step(x, y, lr=0.3)

            def accuracy(self, x, y):
                return digital.accuracy(x, y)

        h_hw = train_classifier(trainer, train, test, epochs=5, batch_size=16)
        h_dig = train_classifier(Wrap(), train, test, epochs=5, batch_size=16)
        assert abs(h_hw.final_test_accuracy - h_dig.final_test_accuracy) < 0.1

    def test_training_with_noise_still_learns(self, blob_data):
        train, test = blob_data
        acc, _ = make_accelerator([8, 12, 3], seed=2, noise=NoiseModel.realistic(seed=6))
        trainer = InSituTrainer(acc, lr=0.3)
        from repro.training.trainer import train_classifier

        hist = train_classifier(trainer, train, test, epochs=6, batch_size=16)
        assert hist.final_test_accuracy > 0.8

    def test_weights_property_returns_copies(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        ws = trainer.weights
        ws[0][:] = 99.0
        assert not np.allclose(trainer.weights[0], 99.0)


class TestBatchedMatchesStreaming:
    """Batch invariance of training: a B-sample batch must reproduce its
    samples run as single-sample batches on noise-free hardware — same
    losses, same summed gradients, same updated weights."""

    def test_identical_losses_and_weights(self, blob_data):
        train, _ = blob_data
        acc_b, _ = make_accelerator([8, 12, 3], seed=2)
        acc_s, _ = make_accelerator([8, 12, 3], seed=2)
        batched = InSituTrainer(acc_b, lr=0.3)
        streaming = InSituTrainer(acc_s, lr=0.3)
        for start in (0, 16, 32):
            xb = train.x[start : start + 16]
            yb = train.y[start : start + 16]
            loss_b = batched.train_step(xb, yb)
            loss_s = single_sample_step(streaming, xb, yb)
            assert np.isclose(loss_b, loss_s, rtol=0, atol=1e-12)
        for w_b, w_s in zip(batched.weights, streaming.weights):
            np.testing.assert_allclose(w_b, w_s, rtol=0, atol=1e-12)

    def test_backward_batch_matches_accumulated_samples(self, blob_data):
        train, _ = blob_data
        B = 6
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.3)
        xb, yb = train.x[:B], train.y[:B]

        logits = acc.forward_batch(xb, record=True)
        _, grad = cross_entropy_loss(logits, yb)
        before = acc.counters.snapshot()
        grads_batch = trainer.backward_batch(grad * B)
        spent = acc.counters.diff(before)

        accum, symbols, writes = single_sample_gradients(acc, trainer, xb, grad * B)
        for g_b, g_s in zip(grads_batch, accum):
            np.testing.assert_allclose(g_b, g_s, rtol=0, atol=1e-10)
        assert spent.symbols == symbols
        # The one hidden layer's W^T is programmed once per batch instead
        # of once per sample: that grouping is the only write saving.
        assert writes - spent.bank_writes == B - 1

    def test_dead_path_accounting_parity(self):
        """A sample whose hidden layer never fires dies after one
        gradient-vector hop.  Run alone, it skips its upstream outer
        product; in a batch the engine must compact the dead column out
        and charge exactly the same symbols — not stream a zero vector
        the control unit already knows is dead."""
        dims = [8, 12, 3]
        weights = [w.copy() for w in DigitalMLP(dims, activation="gst", seed=2).weights]
        # All-positive first layer + an all-negative sample => its hidden
        # pre-activations are all negative, so no GST cell fires and the
        # LDSU derivative bits are all zero for that sample.
        weights[0] = np.abs(weights[0])
        xb = np.vstack([np.full(8, 0.4), np.full(8, -0.4), np.full(8, 0.2)])
        yb = np.array([0, 1, 2])
        B = len(yb)

        def fresh():
            acc = TridentAccelerator()
            acc.map_mlp(dims)
            acc.set_weights([w.copy() for w in weights])
            return acc, InSituTrainer(acc, lr=0.1)

        acc_b, batched = fresh()
        logits = acc_b.forward_batch(xb, record=True)
        _, grad = cross_entropy_loss(logits, yb)
        before = acc_b.counters.symbols
        grads_batch = batched.backward_batch(grad * B)
        symbols_batch = acc_b.counters.symbols - before

        acc_s, streaming = fresh()
        accum, symbols_sample, _ = single_sample_gradients(
            acc_s, streaming, xb, grad * B
        )
        assert symbols_batch == symbols_sample
        # The dead sample really was skipped: one layer-0 outer product
        # (12 symbols) short of the no-dead-path law B*(3 + 1 + 12).
        assert symbols_batch == B * (3 + 1 + 12) - 12
        for g_b, g_s in zip(grads_batch, accum):
            np.testing.assert_allclose(g_b, g_s, rtol=0, atol=1e-10)

    def test_backward_batch_requires_recorded_forward_batch(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        acc.forward_batch(np.zeros((1, 8)))  # not recorded
        with pytest.raises(MappingError):
            trainer.backward_batch(np.zeros((1, 4)))

    def test_backward_batch_shape_checked(self):
        acc, _ = make_accelerator([8, 4])
        trainer = InSituTrainer(acc)
        acc.forward_batch(np.zeros((3, 8)), record=True)
        with pytest.raises(ShapeError):
            trainer.backward_batch(np.zeros((3, 5)))


class TestWriteCostLaw:
    def test_batched_bank_writes_follow_closed_form(self, blob_data):
        """Grouped reprogramming is *the* saving of a batch: B*L per-sample
        outer-product programs survive, but the W^T programs collapse to
        one per hidden layer and no forward weights need restoring
        between samples."""
        train, _ = blob_data
        for B in (1, 4, 9):
            acc, _ = make_accelerator([8, 12, 3], seed=2)
            trainer = InSituTrainer(acc, lr=0.1)
            L = len(acc.layers)
            base = acc.counters.bank_writes
            trainer.train_step(train.x[:B], train.y[:B])
            got = acc.counters.bank_writes - base
            predicted = B * L + (L - 1) + L
            assert got == predicted, (B, got, predicted)

    def test_symbols_follow_closed_form(self, blob_data):
        """Symbols per batch: B forward symbols per layer + B gradient
        symbols per hidden layer + B outer-product streams (one symbol per
        delta element).  Batching saves writes, not symbols."""
        train, _ = blob_data
        B = 5
        # forward: 2 layers -> 2B; gradient: 1 hidden -> B;
        # outer: layer1 streams len(delta1)=3, layer0 streams len(delta0)=12.
        predicted = 2 * B + B + B * (3 + 12)
        acc, _ = make_accelerator([8, 12, 3], seed=2)
        trainer = InSituTrainer(acc, lr=0.1)
        base = acc.counters.symbols
        trainer.train_step(train.x[:B], train.y[:B])
        got = acc.counters.symbols - base
        assert got == predicted, (got, predicted)

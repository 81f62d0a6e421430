"""Tests: physical WDM crosstalk and its calibration compensation.

Ties the physical tier to the functional tier: the cascaded-ring leakage
matrix from :mod:`repro.optics.spectrum` degrades a naive bank, and the
control unit's pre-compensation (``W' = W C^{-1}``) absorbs it — the
per-weight calibration story quantified end to end.
"""

import numpy as np
import pytest

from repro.arch.weight_bank import WeightBank, compensate_crosstalk
from repro.devices.waveguide import WDMChannelPlan
from repro.errors import ProgrammingError, ShapeError
from repro.optics import physical_crosstalk_matrix


@pytest.fixture(scope="module")
def crosstalk():
    return physical_crosstalk_matrix(WDMChannelPlan(8))


class TestCompensationMath:
    def test_exact_inverse_property(self, crosstalk, rng):
        w = rng.uniform(-0.5, 0.5, (8, 8))
        comp = compensate_crosstalk(w, crosstalk)
        assert np.allclose(comp @ crosstalk, w, atol=1e-12)

    def test_identity_crosstalk_is_noop(self, rng):
        w = rng.uniform(-1, 1, (4, 4))
        assert np.allclose(compensate_crosstalk(w, np.eye(4)), w)

    def test_shape_validation(self, crosstalk):
        with pytest.raises(ShapeError):
            compensate_crosstalk(np.zeros((4, 7)), crosstalk)
        with pytest.raises(ShapeError):
            compensate_crosstalk(np.zeros((4, 4)), np.zeros((4, 5)))

    def test_singular_matrix_rejected(self):
        singular = np.ones((4, 4))
        with pytest.raises(ProgrammingError):
            compensate_crosstalk(np.full((4, 4), 0.1), singular)

    def test_overrange_compensation_rejected(self):
        # Strong leakage + alternating full-swing weights: the inverse
        # amplifies beyond the programmable range.
        c = np.eye(4) + 0.3 * (np.ones((4, 4)) - np.eye(4))
        w = np.tile(np.array([[1.0, -1.0, 1.0, -1.0]]), (4, 1))
        with pytest.raises(ProgrammingError):
            compensate_crosstalk(w, c)


class TestEndToEnd:
    def test_compensation_restores_mvm_accuracy(self, crosstalk, rng):
        w = rng.uniform(-0.6, 0.6, (8, 8))
        x = rng.uniform(-1, 1, 8)

        naive = WeightBank(rows=8, cols=8, crosstalk=crosstalk)
        naive.program(w)
        naive_err = np.max(np.abs(naive.matmat(x[:, None])[:, 0] - w @ x))

        comp = WeightBank(rows=8, cols=8, crosstalk=crosstalk)
        comp.program(compensate_crosstalk(w, crosstalk))
        comp_err = np.max(np.abs(comp.matmat(x[:, None])[:, 0] - w @ x))

        assert comp_err < naive_err / 3
        # Compensated error is quantization-floor scale.
        assert comp_err < 8 * comp.weight_step

    def test_compensation_restores_classifier_accuracy(self, rng):
        """A trained network deployed onto a leaky WDM bank: uncompensated
        crosstalk costs accuracy; calibration recovers it."""
        from repro.nn.datasets import Dataset, make_blobs, standardize
        from repro.nn.reference import DigitalMLP

        plan = WDMChannelPlan(10)
        c10 = physical_crosstalk_matrix(plan)
        dims = [10, 14, 3]
        data = make_blobs(n_samples=300, n_features=10, n_classes=3, spread=2.0, seed=5)
        data = Dataset(x=np.clip(standardize(data.x) / 3, -1, 1), y=data.y)
        train, test = data.split(0.8, seed=1)
        mlp = DigitalMLP(dims, activation="gst", seed=7)
        for epoch in range(8):
            for xb, yb in train.batches(16, seed=epoch):
                mlp.train_step(xb, yb, lr=0.4)
        clean_acc = mlp.accuracy(test.x, test.y)

        def deploy(compensate: bool) -> float:
            # First layer sees the WDM bus (10 channels); evaluate its
            # crosstalk effect digitally via the realized effective matrix.
            w0 = mlp.weights[0]
            # Normalize with 1.5x headroom so compensation stays in range.
            scale = 1.5 * max(1.0, float(np.max(np.abs(w0))))
            target = w0 / scale
            bank = WeightBank(rows=14, cols=10, crosstalk=c10)
            bank.program(
                compensate_crosstalk(target, c10) if compensate else target
            )
            eval_mlp = DigitalMLP(dims, activation="gst", seed=7)
            eval_mlp.weights = [w.copy() for w in mlp.weights]
            eval_mlp.weights[0] = (bank.realized_weights[:14, :10] @ c10) * scale
            return eval_mlp.accuracy(test.x, test.y)

        naive_acc = deploy(compensate=False)
        comp_acc = deploy(compensate=True)
        assert comp_acc >= naive_acc
        assert comp_acc >= clean_acc - 0.05

"""Ablation: in-situ training vs offline-train-then-deploy mismatch.

The paper's motivating claim (Sec. I): training digitally and mapping the
weights onto analog hardware leaves accuracy on the table because the
digital model cannot capture quantization and device noise; training on the
hardware itself absorbs them.  This bench measures both on the functional
simulator.
"""

import numpy as np

from repro import InSituTrainer, NoiseModel, TridentAccelerator
from repro.nn.datasets import Dataset, make_blobs, standardize
from repro.nn.reference import DigitalMLP
from repro.training.trainer import train_classifier

DIMS = [10, 14, 3]


def insitu_ablation(seed: int = 5):
    # Overlapping clusters: the decision boundary passes near many points,
    # so analog noise + 8-bit quantization visibly move predictions.
    data = make_blobs(n_samples=400, n_features=10, n_classes=3, spread=2.0, seed=seed)
    data = Dataset(x=np.clip(standardize(data.x) / 3, -1, 1), y=data.y)
    train, test = data.split(0.8, seed=1)
    noise = NoiseModel(
        enabled=True, thermal_noise_std=0.1, shot_noise_coeff=0.02,
        rin_coeff=0.01, seed=11,
    )

    # Digital ceiling.
    digital = DigitalMLP(DIMS, activation="gst", seed=7)
    for epoch in range(8):
        for xb, yb in train.batches(16, seed=epoch):
            digital.train_step(xb, yb, lr=0.4)
    digital_acc = digital.accuracy(test.x, test.y)

    # Offline-trained weights deployed on noisy quantized hardware.
    deployed = TridentAccelerator(noise=noise)
    deployed.map_mlp(DIMS)
    deployed.set_weights([w.copy() for w in digital.weights])
    offline_acc = float(
        np.mean(np.argmax(deployed.forward_batch(test.x), axis=1) == test.y)
    )

    # In-situ training on the same hardware.
    acc = TridentAccelerator(noise=noise)
    acc.map_mlp(DIMS)
    acc.set_weights([w.copy() for w in DigitalMLP(DIMS, activation="gst", seed=7).weights])
    trainer = InSituTrainer(acc, lr=0.4)
    hist = train_classifier(trainer, train, test, epochs=8, batch_size=16)

    return [
        ["digital (no hardware)", digital_acc],
        ["offline-trained, deployed", offline_acc],
        ["in-situ trained on hardware", hist.final_test_accuracy],
    ]


def test_ablation_insitu_vs_offline():
    rows = insitu_ablation()
    by_name = {r[0]: r[1] for r in rows}
    insitu = by_name["in-situ trained on hardware"]
    offline = by_name["offline-trained, deployed"]
    digital = by_name["digital (no hardware)"]
    # In-situ absorbs the hardware mismatch: it beats the deployed
    # offline model and lands within a few points of the digital ceiling.
    assert insitu > offline
    assert insitu >= digital - 0.05
    assert insitu > 0.85

"""Scenario: on-device learning for a battery-powered sensor node.

A wearable classifies 10-channel sensor windows into 3 activities.  The
deployment must adapt to each user *on the device* — the paper's in-situ
training use case.  This script:

1. trains a digital model (cloud-style) and deploys it onto the noisy,
   8-bit photonic hardware — showing the train/deploy mismatch;
2. trains the same network *in situ*, every MAC and gradient flowing
   through the simulated photonic PEs (Table II's three modes);
3. reports accuracy, convergence, and what the training cost the hardware.

Run:  python examples/insitu_training.py
"""

import numpy as np

from repro import InSituTrainer, NoiseModel, TridentAccelerator
from repro.eval.formatting import format_table
from repro.nn.datasets import Dataset, make_blobs, standardize
from repro.nn.reference import DigitalMLP
from repro.training.trainer import train_classifier

DIMS = [10, 14, 3]  # 10 sensor channels -> 14 hidden -> 3 activities


def make_task(seed: int = 5):
    """Synthetic stand-in for per-user sensor data (overlapping classes)."""
    data = make_blobs(n_samples=400, n_features=10, n_classes=3, spread=2.0, seed=seed)
    data = Dataset(x=np.clip(standardize(data.x) / 3, -1, 1), y=data.y)
    return data.split(0.8, seed=1)


def main() -> None:
    train, test = make_task()
    noise = NoiseModel(
        enabled=True, thermal_noise_std=0.1, shot_noise_coeff=0.02,
        rin_coeff=0.01, seed=11,
    )

    # --- cloud-trained digital model --------------------------------------
    digital = DigitalMLP(DIMS, activation="gst", seed=7)
    for epoch in range(8):
        for xb, yb in train.batches(16, seed=epoch):
            digital.train_step(xb, yb, lr=0.4)
    digital_acc = digital.accuracy(test.x, test.y)

    # --- deploy those weights on the physical (simulated) hardware --------
    deployed = TridentAccelerator(noise=noise)
    deployed.map_mlp(DIMS)
    deployed.set_weights([w.copy() for w in digital.weights])
    deployed_acc = float(
        np.mean(np.argmax(deployed.forward_batch(test.x), axis=1) == test.y)
    )

    # --- train in situ on the same hardware -------------------------------
    acc = TridentAccelerator(noise=noise)
    acc.map_mlp(DIMS)
    acc.set_weights(
        [w.copy() for w in DigitalMLP(DIMS, activation="gst", seed=7).weights]
    )
    trainer = InSituTrainer(acc, lr=0.4)
    history = train_classifier(trainer, train, test, epochs=8, batch_size=16)

    print(
        format_table(
            ["configuration", "test accuracy"],
            [
                ["digital model (no hardware effects)", digital_acc],
                ["offline-trained weights deployed on hardware", deployed_acc],
                ["trained in situ on the hardware", history.final_test_accuracy],
            ],
            title="Train/deploy mismatch vs in-situ training (paper Sec. I)",
        )
    )

    print("\nconvergence (test accuracy per epoch):")
    print("  " + "  ".join(f"{a:.3f}" for a in history.test_accuracies))

    stats = acc.bank_stats()
    print(
        format_table(
            ["hardware cost of in-situ training", "value"],
            [
                ["weight-bank writes", stats.write_events],
                ["GST cells programmed", stats.cells_written],
                ["analog symbols", stats.symbols],
                ["mode switches (Table II)", acc.counters.mode_switches],
                ["energy (uJ)", acc.energy_estimate_j() * 1e6],
                ["PE-busy time (ms)", acc.time_estimate_s() * 1e3],
            ],
            title="",
        )
    )


if __name__ == "__main__":
    main()

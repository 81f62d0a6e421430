"""Quickstart: build a Trident accelerator, run a photonic forward pass,
and inspect the architecture's headline numbers.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import TridentAccelerator, TridentConfig
from repro.arch.area import AreaModel
from repro.arch.power import PowerModel
from repro.eval.formatting import format_table


def main() -> None:
    # ------------------------------------------------------------------
    # 1. The architecture at a glance (paper Sec. IV).
    # ------------------------------------------------------------------
    config = TridentConfig()
    power = PowerModel(config)
    area = AreaModel(config)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["processing elements", config.n_pes],
                ["MRRs per PE (16 x 16 bank)", config.mrrs_per_pe],
                ["PE power, tuning active (W)", config.pe_total_power_w],
                ["PE power, weights held (W)", config.pe_streaming_power_w],
                ["post-tuning power drop (%)", power.post_tuning_drop_fraction * 100],
                ["chip area (mm^2)", area.chip_area_mm2],
                ["peak throughput (TOPS)", config.peak_tops],
                ["TOPS per watt", config.tops_per_watt],
            ],
            title="Trident at 30 W (paper Sec. IV / Table III)",
        )
    )

    # ------------------------------------------------------------------
    # 2. Program a small network and run light through it.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(0)
    acc = TridentAccelerator()
    acc.map_mlp([16, 16, 8])  # two layers, one PE each
    weights = [rng.uniform(-1, 1, (16, 16)), rng.uniform(-1, 1, (8, 16))]
    acc.set_weights(weights)

    x = rng.uniform(-1, 1, 16)
    y_photonic = acc.forward_batch(x[None])[0]  # one sample = a batch of one

    # The same math digitally (GST activation = 0.34 * relu).
    hidden = 0.34 * np.maximum(weights[0] @ x, 0)
    y_digital = weights[1] @ hidden

    print("\nphotonic output :", np.round(y_photonic, 4))
    print("digital output  :", np.round(y_digital, 4))
    print(
        "max deviation   :",
        f"{np.max(np.abs(y_photonic - y_digital)):.4f}",
        "(8-bit GST quantization)",
    )

    # ------------------------------------------------------------------
    # 3. What did that cost the hardware?
    # ------------------------------------------------------------------
    stats = acc.bank_stats()
    print(
        format_table(
            ["event", "count / value"],
            [
                ["weight-bank writes", stats.write_events],
                ["GST cells programmed", stats.cells_written],
                ["analog symbols streamed", stats.symbols],
                ["activation firings", acc.counters.activation_events],
                ["energy (nJ)", acc.energy_estimate_j() * 1e9],
                ["PE-busy time (us)", acc.time_estimate_s() * 1e6],
            ],
            title="Hardware events for one programmed inference",
        )
    )


if __name__ == "__main__":
    main()

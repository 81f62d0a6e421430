"""Scenario: graceful degradation of a worn edge accelerator.

An accelerator that has been in the field for years accumulates stuck PCM
cells.  This example walks the full fault-management loop on one worn
device, then sweeps the accuracy-vs-fault-rate curve for every repair
policy:

1. Deploy a trained classifier onto an accelerator with 10 % of its cells
   stuck at weight +1 (the damaging corner) through a ``FaultManager``.
2. Watch the detector infer the fault map from program-verify readback
   alone (no oracle), and the repair ladder remap worn rows onto spares.
3. Run the fault campaign behind ``python -m repro faults`` and print the
   recovery table.

Run:  python examples/fault_campaign.py
"""

import numpy as np

from repro import TridentAccelerator, TridentConfig
from repro.devices.program_verify import ProgramVerifyConfig
from repro.eval.formatting import format_table
from repro.faults import CampaignConfig, FaultManager, RepairConfig, run_campaign


def single_device_walkthrough() -> None:
    acc = TridentAccelerator(
        config=TridentConfig(spare_rows=8, convergence_floor=0.0),
        seed=7,
        program_verify=ProgramVerifyConfig(),
    )
    acc.map_mlp([10, 14, 3])
    n_stuck = acc.inject_stuck_faults(0.10, stuck_level=254)

    manager = FaultManager(acc, config=RepairConfig(policy="spare"))
    rng = np.random.default_rng(0)
    log = manager.deploy(
        [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
    )

    rows = [["stuck cells injected (ground truth)", n_stuck]]
    rows += [[f"repair log: {k}", v] for k, v in log.as_dict().items()]
    rows.append(["cells flagged by readback", manager.detector.total_flagged])
    for pe_index, bank in ((t[4], acc.pes[t[4]].bank)
                           for layer in acc.layers for t in layer.tiles):
        rows.append(
            [f"PE {pe_index} remapped rows", str(bank.remapped_rows)]
        )
    rows.append(["deploy+repair energy (uJ)", acc.energy_estimate_j() * 1e6])
    rows.append(
        ["deploy+repair PE-busy time (us)", acc.time_estimate_s() * 1e6]
    )
    print(format_table(["quantity", "value"], rows,
                       title="Worn device: detect -> remap -> reprogram"))
    print()


def main() -> None:
    single_device_walkthrough()
    report = run_campaign(CampaignConfig())
    print(report.render())
    print()
    lost = report.clean_accuracy - report.mean_accuracy(0.05, "none")
    print(
        f"At 5% stuck cells the unrepaired accelerator loses "
        f"{lost:.3f} accuracy; spare-remap recovers "
        f"{report.recovery(0.05, 'spare'):.0%} of that."
    )


if __name__ == "__main__":
    main()

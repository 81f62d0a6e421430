"""Runtime fault management: detection, spare-ring repair, tile remapping.

PCM cells wear out: after enough SET/RESET cycles a cell stops switching
and holds one level forever (the stuck-at model in
:meth:`repro.arch.WeightBank.inject_stuck_faults`).  A deployed edge
accelerator cannot ship every bank back to the fab, so it must *detect*
failing cells online, *repair* around them, and *degrade gracefully* when
repair runs out of resources.  This package provides that loop:

- :mod:`repro.faults.detector` — online fault inference from the only
  signal the hardware actually exposes: the program-and-verify readback
  (non-converged cells) plus the drift/retention clock.  No oracle access
  to the stuck mask.
- :mod:`repro.faults.repair` — the repair policy ladder (retry with an
  escalated pulse budget, spare-ring row remapping, whole-tile migration
  to a healthy PE), every action charged through the normal event
  accounting — repairs are never free.
- :mod:`repro.faults.campaign` — the fault-injection campaign engine
  behind ``python -m repro faults``: sweeps stuck-cell fraction x repair
  policy, measuring inference accuracy, in-situ-training survival,
  repair overhead, and batch invariance (one batch vs single-sample
  batches).
"""

from repro.faults.campaign import (
    CampaignConfig,
    CampaignReport,
    CampaignRow,
    resume_campaign,
    run_campaign,
)
from repro.faults.detector import BankFaultMap, DriftHealth, FaultDetector
from repro.faults.repair import FaultManager, RepairConfig, RepairLog, RepairPolicy

__all__ = [
    "BankFaultMap",
    "CampaignConfig",
    "CampaignReport",
    "CampaignRow",
    "DriftHealth",
    "FaultDetector",
    "FaultManager",
    "RepairConfig",
    "RepairLog",
    "RepairPolicy",
    "resume_campaign",
    "run_campaign",
]

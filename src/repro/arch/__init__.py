"""The Trident architecture: weight banks, PEs, the full accelerator, and
its power/area/cache models.

Structure (paper Fig 1):

- :mod:`repro.arch.config` — every architectural constant in one place.
- :mod:`repro.arch.weight_bank` — vectorized J x N PCM-MRR bank.
- :mod:`repro.arch.pe` — one processing element (bank + BPD + TIA + LDSU +
  GST activation) with the three operating modes of Table II.
- :mod:`repro.arch.accelerator` — the 44-PE accelerator: layer mapping,
  functional inference and in-situ training, event accounting.
- :mod:`repro.arch.control` — control unit: operating modes, Table II
  encoding map, analog range normalization.
- :mod:`repro.arch.power` — Table III power breakdown and 30 W scaling.
- :mod:`repro.arch.area` — Fig 5 chip-area breakdown.
- :mod:`repro.arch.cache` — L1/L2 cache energy model.
"""

from repro.arch.accelerator import EventCounters, TridentAccelerator
from repro.arch.area import AreaModel, PEAreaBreakdown
from repro.arch.cache import CacheConfig, CacheModel
from repro.arch.config import TridentConfig
from repro.arch.control import ControlUnit, OperatingMode, RangeNormalizer, table2_mapping
from repro.arch.pe import ProcessingElement
from repro.arch.power import PEPowerBreakdown, PowerModel
from repro.arch.weight_bank import WeightBank

__all__ = [
    "AreaModel",
    "CacheConfig",
    "CacheModel",
    "ControlUnit",
    "EventCounters",
    "OperatingMode",
    "PEAreaBreakdown",
    "PEPowerBreakdown",
    "PowerModel",
    "ProcessingElement",
    "RangeNormalizer",
    "table2_mapping",
    "TridentAccelerator",
    "TridentConfig",
]

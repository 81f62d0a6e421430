"""Trident: a PCM-enabled low-power photonic accelerator simulator.

Reproduction of Curry, Louri, Karanth & Bunescu, "PCM Enabled Low-Power
Photonic Accelerator for Inference and Training on Edge Devices"
(IPDPS 2024).

Quick tour
----------
>>> from repro import TridentConfig, TridentAccelerator
>>> acc = TridentAccelerator()
>>> acc.map_mlp([16, 16, 4])

Sub-packages:

- :mod:`repro.devices` — photonic/electronic device physics (GST, MRRs,
  WDM, photodetectors, TIAs, the GST activation cell, the LDSU).
- :mod:`repro.arch` — the Trident architecture (weight banks, PEs, the
  44-PE accelerator, power/area/cache models).
- :mod:`repro.nn` — NN substrate (layer graphs, the five-CNN model zoo,
  digital reference math, quantization, synthetic datasets).
- :mod:`repro.dataflow` — Maestro-style weight-stationary cost model and
  the electronic roofline.
- :mod:`repro.baselines` — DEAP-CNN, CrossLight, PIXEL, and the electronic
  edge accelerators.
- :mod:`repro.training` — in-situ photonic backpropagation and the
  training-latency model.
- :mod:`repro.faults` — runtime fault management: online detection from
  program-verify readback, spare-ring repair, tile remapping, and the
  fault-injection campaign engine.
- :mod:`repro.runtime` — crash-safe checkpoint/restore (hash-verified,
  atomically written snapshots of the full physical state) and the
  resilient training harness with divergence rollback and LR backoff.
- :mod:`repro.eval` — regeneration of every table and figure.
"""

from repro.arch.accelerator import TridentAccelerator
from repro.arch.config import TridentConfig
from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
from repro.devices.noise import NoiseModel
from repro.faults import FaultDetector, FaultManager, RepairConfig, RepairPolicy
from repro.runtime import CheckpointStore, ResilientTrainer
from repro.training.insitu import InSituTrainer

__version__ = "1.0.0"

__all__ = [
    "CheckpointStore",
    "FaultDetector",
    "FaultManager",
    "InSituTrainer",
    "NoiseModel",
    "PhotonicArch",
    "PhotonicCostModel",
    "RepairConfig",
    "RepairPolicy",
    "ResilientTrainer",
    "TridentAccelerator",
    "TridentConfig",
    "__version__",
]

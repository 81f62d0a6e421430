"""Serving one sharded model: the multi-stage worker preset.

:func:`build_sharded_worker` plans nothing itself: it programs one
accelerator per part of a :class:`~repro.sharding.ShardPlan` (optionally
over-provisioned with spare PEs for migrate-tier repairs), attaches a
remap-policy fault manager per part and an ABFT checker on request, and
hands the pipeline to the one serving worker,
:class:`~repro.serving.worker.AcceleratorWorker` — the same class, the
same ``execute`` and the same ``repair`` a single chip runs, here with
two or more stages, each behind its own breaker, on an overlapped
flow-shop schedule.

``ShardedWorker`` is that class under its pipeline name, and the module
keeps ``forward_batch_latency_s`` and ``_attest_batch`` next to it: the
benchmark suite's layer tracer (``benchmarks/suite/spans.py``) resolves
all three here.  The implementations live in :mod:`repro.serving.worker`.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.dataflow.cost_model import forward_batch_latency_s
from repro.errors import ServingError
from repro.integrity.checker import attest_batch as _attest_batch
from repro.serving.worker import AcceleratorWorker, remap_manager, rewrite_tiles
from repro.sharding.planner import ShardPlan

#: The one serving worker, under the name pipeline callers know it by.
ShardedWorker = AcceleratorWorker


def build_sharded_worker(
    worker_id: int,
    plan: ShardPlan,
    weights: "list[np.ndarray]",
    *,
    config=None,
    overlap: bool = True,
    seed: int = 0,
    program_verify=None,
    with_managers: bool = False,
    spare_pes: int = 0,
    stage_cooldown_s: float = 1e-5,
    with_integrity: bool = False,
    integrity_config=None,
) -> AcceleratorWorker:
    """Build, program, and (optionally) make repairable a pipeline worker.

    ``with_managers`` attaches a remap-policy :class:`~repro.faults.
    FaultManager` per part (requires ``program_verify``; use the
    deterministic zero-sigma config to keep bit-identity) and reprograms
    every tile once so the managers' detectors hold a readback baseline.
    ``spare_pes`` over-provisions each part's chip beyond the plan
    capacity so migrate-tier repairs have somewhere to go — it never
    changes outputs, only repair headroom.  ``with_integrity`` attaches
    a :class:`~repro.integrity.PipelineChecker` (ABFT checksum rows per
    part, calibrated thresholds, escalation ladder) — size ``spare_pes``
    to leave one PE per column tile of each part's layers free.
    """
    from repro.arch.config import TridentConfig
    from repro.sharding.pipeline import build_pipeline

    config = config or TridentConfig()
    if spare_pes < 0:
        raise ServingError(f"spare_pes must be >= 0, got {spare_pes}")
    build_config = (
        dataclasses.replace(config, n_pes=config.n_pes + spare_pes)
        if spare_pes
        else config
    )
    pipeline = build_pipeline(
        plan,
        weights,
        config=build_config,
        program_verify=program_verify,
        seed=seed,
    )
    stage_managers = None
    if with_managers:
        if program_verify is None:
            raise ServingError(
                "fault managers need program-verify readback; pass a "
                "ProgramVerifyConfig (zero-sigma for bit-identity)"
            )
        stage_managers = []
        for stage in pipeline.stages:
            managers = []
            for acc in stage.parts:
                managers.append(remap_manager(acc))
                # The manager attached after programming: replay every
                # tile write (same weights, same stored scale) so its
                # detector sees a baseline readback per tile.
                rewrite_tiles(acc)
            stage_managers.append(managers)
    integrity = None
    if with_integrity:
        from repro.integrity.checker import PipelineChecker

        integrity = PipelineChecker(
            pipeline, config=integrity_config, seed=seed
        )
    return AcceleratorWorker(
        worker_id,
        pipeline,
        stage_managers,
        overlap=overlap,
        stage_cooldown_s=stage_cooldown_s,
        integrity=integrity,
    )


__all__ = [
    "ShardedWorker",
    "_attest_batch",
    "build_sharded_worker",
    "forward_batch_latency_s",
]

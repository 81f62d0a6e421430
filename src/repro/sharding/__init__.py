"""Multi-accelerator model sharding: planner + pipeline builder.

One Trident has a fixed bank budget; a model that overflows it is served
by splitting it across several accelerators as a layer pipeline (with
wide layers optionally row-sharded across chips).  :func:`plan_pipeline`
chooses the cut points from the dataflow cost model;
:func:`build_pipeline` programs one accelerator per stage part and
returns the :class:`ShardedPipeline` structure, whose stage-by-stage
outputs are bit-identical to a single large reference accelerator;
:func:`single_chip_pipeline` wraps one mapped accelerator as the
one-stage case.  The serving-side worker that runs every pipeline
(overlapped stage execution, per-stage breakers/fault managers) lives in
:mod:`repro.serving.worker`.
"""

from repro.sharding.pipeline import (
    PipelineStage,
    ShardedPipeline,
    build_pipeline,
    reference_weight_scale,
    single_chip_pipeline,
    slice_stage_weights,
)
from repro.sharding.planner import (
    ShardPlan,
    StageSpec,
    layer_tile_count,
    plan_from_cuts,
    plan_pipeline,
    reduction_tile_count,
)

__all__ = [
    "PipelineStage",
    "ShardPlan",
    "ShardedPipeline",
    "StageSpec",
    "build_pipeline",
    "layer_tile_count",
    "plan_from_cuts",
    "plan_pipeline",
    "reduction_tile_count",
    "reference_weight_scale",
    "single_chip_pipeline",
    "slice_stage_weights",
]

"""Execute one model across several accelerators, bit-identically.

:func:`build_pipeline` takes a :class:`~repro.sharding.planner.ShardPlan`
plus the model's true-valued weight matrices and instantiates one
:class:`~repro.arch.TridentAccelerator` per stage part, each mapping its
contiguous layer range (or its row slice of a wide layer).  The resulting
:class:`ShardedPipeline` is structure only: the plan, its stages
(:class:`PipelineStage`), every accelerator in pipeline order and their
merged :class:`~repro.arch.accelerator.EventCounters`.  One loop runs it:
:meth:`repro.serving.worker.AcceleratorWorker.execute` forwards a batch
stage by stage through :meth:`PipelineStage.forward_batch`, under the
worker's health gates.  :func:`single_chip_pipeline` wraps one mapped
accelerator as the one-stage, one-part case, which is how the serving
layer runs every worker through the same stage loop.

Why the outputs are bit-identical to one large reference accelerator:

* **Contiguous stages.**  Each layer's forward pass normalizes its own
  input per sample, streams tiles, rescales by ``enc.scale *
  weight_scale``, and applies the activation — a pure function of
  (input, programmed levels, weight_scale).  Handing layer k's output to
  layer k+1 on a different chip changes nothing in that chain, provided
  the programmed levels match; they do, because both sides quantize the
  same weight blocks on the same level grid (use deterministic
  program-verify, ``write_std_levels=0``, or no verify at all on both
  sides — stochastic writes on *either* side break bit-identity by
  construction).
* **Row-sharded stages.**  The planner splits output rows at bank-row
  boundaries, so every part's tiles coincide with a subset of the
  reference layer's tile grid (same row/col blocks, hence identical
  quantized levels), each part receives the identical full stage input
  (identical per-sample normalization), and
  :meth:`~repro.devices.activation_cell.GSTActivationCell.fire` is
  elementwise — concatenating the parts' row slices reproduces the
  reference layer output exactly.  The one requirement is that every
  part quantizes with the *full* matrix's analog scale, which is what
  the ``weight_scales`` override on ``set_weights`` is for.

Event/energy accounting is conserved, not just approximated: the union
of all parts' tiles is the reference tile set, so ``bank_writes``,
``cells_written``, ``symbols``, and ``activation_events`` sum to the
reference counts, and each accelerator's energy and PE-busy time
estimates (pure functions of those events) sum likewise.  Only ``mode_switches`` scales with the
accelerator count — every chip pays its own inference-mode entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.accelerator import EventCounters, TridentAccelerator
from repro.arch.config import TridentConfig
from repro.devices.program_verify import ProgramVerifyConfig
from repro.errors import ShapeError, ShardingError
from repro.sharding.planner import ShardPlan, StageSpec, plan_from_cuts


def reference_weight_scale(weights: np.ndarray) -> float:
    """The analog scale one large accelerator would derive for a matrix."""
    peak = float(np.max(np.abs(weights))) if weights.size else 0.0
    return peak if peak > 1.0 else 1.0


@dataclass
class PipelineStage:
    """One executing stage: its spec and its accelerator part(s)."""

    spec: StageSpec
    #: One accelerator per row split (exactly one unless row-sharded).
    parts: list[TridentAccelerator]

    def forward_batch(self, xs: np.ndarray, record: bool = False) -> np.ndarray:
        """Run a (B, in_dim) slab through this stage's accelerators."""
        if len(self.parts) == 1:
            return self.parts[0].forward_batch(xs, record=record)
        # Row-sharded: every part sees the identical full input and owns
        # a row slice of the output; concatenation restores the layer.
        return np.concatenate(
            [part.forward_batch(xs, record=record) for part in self.parts],
            axis=1,
        )


class ShardedPipeline:
    """A model running as a layer pipeline over several accelerators."""

    def __init__(self, plan: ShardPlan, stages: list[PipelineStage]) -> None:
        if len(stages) != plan.n_stages:
            raise ShardingError(
                f"plan has {plan.n_stages} stages but {len(stages)} were built"
            )
        self.plan = plan
        self.stages = stages

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def input_dim(self) -> int:
        """Model input width."""
        return self.plan.dims[0]

    @property
    def accelerators(self) -> list[TridentAccelerator]:
        """Every accelerator in pipeline order (stage-major, then part)."""
        return [part for stage in self.stages for part in stage.parts]

    # ------------------------------------------------------------------
    # Merged accounting
    # ------------------------------------------------------------------
    def counters(self) -> EventCounters:
        """Event counters summed over every accelerator."""
        merged = EventCounters()
        for acc in self.accelerators:
            c = acc.counters
            merged.bank_writes += c.bank_writes
            merged.cells_written += c.cells_written
            merged.symbols += c.symbols
            merged.activation_events += c.activation_events
            merged.mode_switches += c.mode_switches
        return merged


def slice_stage_weights(
    plan: ShardPlan, weights: "list[np.ndarray]"
) -> "list[list[tuple[list[np.ndarray], list[float]]]]":
    """Per-stage, per-part (weight matrices, scale overrides) lists.

    Scales always come from the *full* matrices so row-sharded parts
    quantize exactly as the reference accelerator would.
    """
    if len(weights) != len(plan.dims) - 1:
        raise ShardingError(
            f"got {len(weights)} weight matrices for "
            f"{len(plan.dims) - 1} layers"
        )
    arrays = [np.asarray(w, dtype=np.float64) for w in weights]
    for k, (w, n_in, n_out) in enumerate(
        zip(arrays, plan.dims[:-1], plan.dims[1:])
    ):
        if w.shape != (n_out, n_in):
            raise ShapeError(
                f"layer {k} expects weights ({n_out}, {n_in}), got {w.shape}"
            )
    staged = []
    for spec in plan.stages:
        layer_ws = arrays[spec.layer_start : spec.layer_stop]
        scales = [reference_weight_scale(w) for w in layer_ws]
        if not spec.row_sharded:
            staged.append([(list(layer_ws), scales)])
            continue
        (wide,) = layer_ws
        staged.append(
            [([wide[r0:r1, :]], scales) for r0, r1 in spec.row_splits]
        )
    return staged


def build_pipeline(
    plan: ShardPlan,
    weights: "list[np.ndarray]",
    *,
    config: TridentConfig | None = None,
    program_verify: ProgramVerifyConfig | None = None,
    seed: int = 0,
) -> ShardedPipeline:
    """Instantiate and program accelerators for every stage of ``plan``.

    Each part gets its own noise-free accelerator (seeded ``seed + part
    ordinal``) built on the plan's shard ``config``.  Activation
    placement follows the full model: every layer but the model's last
    activates — so a stage boundary never adds or drops a nonlinearity.
    For bit-identical outputs vs a reference accelerator, pass a
    deterministic ``program_verify`` (``write_std_levels=0,
    read_std_levels=0``) or none at all, and do the same on the reference.
    """
    config = config or TridentConfig()
    staged_weights = slice_stage_weights(plan, weights)
    stages: list[PipelineStage] = []
    ordinal = 0
    for spec, part_specs in zip(plan.stages, staged_weights):
        # Does this stage's final layer activate in the full model?
        stage_activate_last = spec.index != plan.n_stages - 1
        parts: list[TridentAccelerator] = []
        for (part_weights, scales), (r0, r1) in zip(
            part_specs, spec.row_splits
        ):
            acc = TridentAccelerator(
                config=config,
                seed=seed + ordinal,
                program_verify=program_verify,
            )
            ordinal += 1
            if spec.row_sharded:
                part_dims = [spec.dims[0], r1 - r0]
            else:
                part_dims = list(spec.dims)
            acc.map_mlp(part_dims, activate_last=stage_activate_last)
            acc.set_weights(part_weights, weight_scales=scales)
            parts.append(acc)
        stages.append(PipelineStage(spec=spec, parts=parts))
    return ShardedPipeline(plan, stages)


def single_chip_pipeline(acc: TridentAccelerator) -> ShardedPipeline:
    """One mapped accelerator as a one-stage, one-part pipeline."""
    if not acc.layers:
        raise ShardingError("map a network onto the accelerator first")
    dims = [acc.layers[0].in_dim] + [layer.out_dim for layer in acc.layers]
    plan = plan_from_cuts(dims, (), acc.config)
    return ShardedPipeline(plan, [PipelineStage(plan.stages[0], [acc])])

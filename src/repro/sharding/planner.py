"""Cost-model-driven cut-point planning for multi-accelerator pipelines.

One Trident instance has a fixed bank budget (``TridentConfig.n_pes``
PEs of ``bank_rows x bank_cols`` cells), so a model whose tile count
exceeds that budget cannot be mapped at all — :class:`~repro.arch.
TridentAccelerator.map_mlp` rejects it.  The planner splits such a model
across several accelerators as a *layer pipeline*: contiguous layer
ranges become stages, each stage mapped onto its own accelerator, and a
sample flows stage 0 -> 1 -> ... -> K-1 exactly as it would flow layer
by layer on one large machine.

Cut points come from the dataflow cost model, not from heuristics
(Andrulis et al., arxiv 2405.07266: drive placement from the
architecture model).  Each candidate stage ``[i, j)`` is priced with
:func:`repro.dataflow.cost_model.forward_batch_latency_s` — the same
estimate the serving micro-batcher and admission control already trust —
and a dynamic program picks, among all partitions with the minimal
feasible stage count (or an explicitly requested count), the one that
minimizes the *bottleneck* stage latency, tie-breaking on pipeline fill
time.  The bottleneck is what bounds steady-state pipelined throughput
(one batch leaves the pipeline per bottleneck interval once it is full),
so minimizing it is exactly the latency-hiding objective; keeping the
search parameterized on :class:`~repro.dataflow.cost_model.PhotonicArch`
keeps it honest for other ring geometries too (Vatsavai et al., arxiv
2402.03149).

A single layer wider than one accelerator (its tile count alone exceeds
``n_pes``) becomes a *row-sharded* stage: its output rows split at
bank-row boundaries across several accelerators that all receive the
same input and whose row slices concatenate back into the full layer
output.  Because row strips are the unit of the reference tile grid, a
row-sharded stage reproduces the single-accelerator math bit for bit
(see :mod:`repro.sharding.pipeline` for the equivalence argument).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import TridentConfig
from repro.dataflow.cost_model import (
    DISPATCH_OVERHEAD_S,
    PhotonicArch,
    forward_batch_latency_s,
)
from repro.errors import ShardingError


def layer_tile_count(out_dim: int, in_dim: int, rows: int, cols: int) -> int:
    """PE tiles one dense layer occupies on a ``rows x cols`` bank grid."""
    return -(-out_dim // rows) * (-(-in_dim // cols))


def reduction_tile_count(in_dim: int, cols: int) -> int:
    """Column (reduction) tiles of one layer — the serialized latency term."""
    return -(-in_dim // cols)


@dataclass(frozen=True)
class StageSpec:
    """One pipeline stage: a contiguous layer range on >= 1 accelerators."""

    index: int
    #: First (inclusive) and last (exclusive) full-model layer index.
    layer_start: int
    layer_stop: int
    #: Layer widths of the stage sub-network: input width plus each
    #: member layer's output width (``len == layer_stop - layer_start + 1``).
    dims: tuple[int, ...]
    #: Output-row ranges, one per accelerator part.  A plain pipeline
    #: stage has one full-range part; a row-sharded wide layer has
    #: several, split at bank-row boundaries.
    row_splits: tuple[tuple[int, int], ...]
    #: Total PE tiles across all parts (capacity accounting).
    n_tiles: int
    #: Cost-model latency of one planning-batch dispatch through this stage.
    service_time_s: float

    @property
    def n_layers(self) -> int:
        """Member layer count."""
        return self.layer_stop - self.layer_start

    @property
    def n_parts(self) -> int:
        """Accelerators this stage spans (1 unless row-sharded)."""
        return len(self.row_splits)

    @property
    def row_sharded(self) -> bool:
        """True when a wide layer's rows are split across accelerators."""
        return len(self.row_splits) > 1

    def as_dict(self) -> dict:
        """JSON-friendly summary."""
        return {
            "index": self.index,
            "layers": [self.layer_start, self.layer_stop],
            "dims": list(self.dims),
            "row_splits": [list(r) for r in self.row_splits],
            "n_tiles": self.n_tiles,
            "n_parts": self.n_parts,
            "service_time_s": self.service_time_s,
        }


@dataclass(frozen=True)
class ShardPlan:
    """A full pipeline partition of one model, with its cost profile."""

    #: Full-model layer widths the plan was computed for.
    dims: tuple[int, ...]
    stages: tuple[StageSpec, ...]
    #: Batch size the stage latencies were priced at.
    batch: int
    #: Per-shard PE budget the plan respects.
    capacity_tiles: int

    @property
    def n_stages(self) -> int:
        """Pipeline depth."""
        return len(self.stages)

    @property
    def n_accelerators(self) -> int:
        """Total accelerators across all stages (row shards included)."""
        return sum(s.n_parts for s in self.stages)

    @property
    def bottleneck_s(self) -> float:
        """Slowest stage latency — the steady-state pipeline interval."""
        return max(s.service_time_s for s in self.stages)

    @property
    def fill_s(self) -> float:
        """One batch's end-to-end traversal (pipeline fill) time."""
        return sum(s.service_time_s for s in self.stages)

    def pipeline_latency_s(self, n_batches: int) -> float:
        """Makespan of ``n_batches`` back-to-back with stage overlap.

        Identical batches through an infinite-buffer linear pipeline:
        fill once, then one batch per bottleneck interval.
        """
        if n_batches < 1:
            raise ShardingError(f"need >= 1 batch, got {n_batches}")
        return self.fill_s + (n_batches - 1) * self.bottleneck_s

    def serialized_latency_s(self, n_batches: int) -> float:
        """Makespan with stages serialized (one batch owns the pipeline)."""
        if n_batches < 1:
            raise ShardingError(f"need >= 1 batch, got {n_batches}")
        return n_batches * self.fill_s

    def overlap_speedup(self, n_batches: int) -> float:
        """Serialized / pipelined makespan ratio for a batch stream."""
        return self.serialized_latency_s(n_batches) / self.pipeline_latency_s(
            n_batches
        )

    def as_dict(self) -> dict:
        """JSON-friendly summary."""
        return {
            "dims": list(self.dims),
            "batch": self.batch,
            "capacity_tiles": self.capacity_tiles,
            "n_stages": self.n_stages,
            "n_accelerators": self.n_accelerators,
            "bottleneck_s": self.bottleneck_s,
            "fill_s": self.fill_s,
            "stages": [s.as_dict() for s in self.stages],
        }

    def render(self) -> str:
        """Human-readable stage table."""
        lines = [
            f"shard plan: dims {list(self.dims)}, "
            f"{self.n_stages} stage(s) on {self.n_accelerators} "
            f"accelerator(s), capacity {self.capacity_tiles} tiles/shard",
        ]
        for s in self.stages:
            parts = (
                f"{s.n_parts} row shards" if s.row_sharded else "1 accelerator"
            )
            lines.append(
                f"  stage {s.index}: layers [{s.layer_start}, {s.layer_stop})"
                f" dims {list(s.dims)}  {s.n_tiles} tiles on {parts}"
                f"  service {s.service_time_s * 1e6:.3f} us"
            )
        lines.append(
            f"  bottleneck {self.bottleneck_s * 1e6:.3f} us, "
            f"fill {self.fill_s * 1e6:.3f} us, "
            f"overlap speedup at 32 batches {self.overlap_speedup(32):.2f}x"
        )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Planning
# ---------------------------------------------------------------------------
def _row_splits_for_wide_layer(
    out_dim: int, in_dim: int, config: TridentConfig
) -> tuple[tuple[int, int], ...]:
    """Split a too-wide layer's output rows at bank-row boundaries."""
    J, N = config.bank_rows, config.bank_cols
    red = reduction_tile_count(in_dim, N)
    strips_per_part = config.n_pes // red
    if strips_per_part < 1:
        raise ShardingError(
            f"layer ({out_dim} x {in_dim}) needs {red} reduction tiles per "
            f"row strip but a shard has only {config.n_pes} PEs; column "
            "sharding is not supported — enlarge the shard configuration"
        )
    total_strips = -(-out_dim // J)
    n_parts = -(-total_strips // strips_per_part)
    splits = []
    for p in range(n_parts):
        r0 = p * strips_per_part * J
        r1 = min((p + 1) * strips_per_part * J, out_dim)
        splits.append((r0, r1))
    return tuple(splits)


def _stage_spec(
    index: int,
    layer_start: int,
    layer_stop: int,
    dims: tuple[int, ...],
    arch: PhotonicArch,
    config: TridentConfig,
    batch: int,
) -> StageSpec:
    """Build one StageSpec (row-sharding the layer if it alone overflows)."""
    J, N = config.bank_rows, config.bank_cols
    stage_dims = dims[layer_start : layer_stop + 1]
    tiles = sum(
        layer_tile_count(o, i, J, N)
        for i, o in zip(stage_dims[:-1], stage_dims[1:])
    )
    if tiles <= config.n_pes:
        # A fitting stage is never row-sharded; record the full range of
        # its final layer for uniformity.
        row_splits = ((0, stage_dims[-1]),)
    else:
        if layer_stop - layer_start != 1:
            raise ShardingError(
                f"stage [{layer_start}, {layer_stop}) needs {tiles} tiles "
                f"but a shard has {config.n_pes} PEs, and only a single "
                "wide layer can be row-sharded — cut the stage further"
            )
        row_splits = _row_splits_for_wide_layer(
            stage_dims[1], stage_dims[0], config
        )
    reduction = [
        reduction_tile_count(i, N) for i in stage_dims[:-1]
    ]
    service = forward_batch_latency_s(
        arch, reduction, batch, overhead_s=DISPATCH_OVERHEAD_S
    )
    return StageSpec(
        index=index,
        layer_start=layer_start,
        layer_stop=layer_stop,
        dims=tuple(stage_dims),
        row_splits=row_splits,
        n_tiles=tiles,
        service_time_s=service,
    )


def plan_pipeline(
    dims: "list[int] | tuple[int, ...]",
    config: TridentConfig | None = None,
    *,
    n_stages: int | None = None,
    batch: int = 16,
) -> ShardPlan:
    """Choose pipeline cut points for ``dims`` under a per-shard budget.

    Searches every contiguous partition of the layer list (dynamic
    program, O(L^2 K)) for the one that, at the minimal feasible stage
    count — or exactly ``n_stages`` when given — minimizes the
    bottleneck stage latency and, among ties, the pipeline fill time.
    A stage is feasible when its tiles fit one accelerator, or when it
    is a single wide layer that row-sharding can spread (each row strip's
    reduction tiles must fit).  ``batch`` and the dispatch overhead
    (:data:`~repro.dataflow.cost_model.DISPATCH_OVERHEAD_S`) parameterize
    the cost model exactly as serving dispatch does.
    """
    config = config or TridentConfig()
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ShardingError("a model needs at least input and output widths")
    if any(d < 1 for d in dims):
        raise ShardingError(f"layer widths must be positive, got {list(dims)}")
    if batch < 1:
        raise ShardingError(f"batch must be positive, got {batch}")
    arch = PhotonicArch.trident(config)
    L = len(dims) - 1
    J, N = config.bank_rows, config.bank_cols
    tiles = [
        layer_tile_count(o, i, J, N) for i, o in zip(dims[:-1], dims[1:])
    ]

    def feasible(i: int, j: int) -> bool:
        total = sum(tiles[i:j])
        if total <= config.n_pes:
            return True
        if j - i != 1:
            return False
        # Wide single layer: row-shardable iff one strip fits.
        return config.n_pes >= reduction_tile_count(dims[i], N)

    def cost(i: int, j: int) -> float:
        reduction = [reduction_tile_count(d, N) for d in dims[i:j]]
        return forward_batch_latency_s(
            arch, reduction, batch, overhead_s=DISPATCH_OVERHEAD_S
        )

    INF = float("inf")
    # Minimal stage count to cover [i, L).
    min_stages = [INF] * (L + 1)
    min_stages[L] = 0
    for i in range(L - 1, -1, -1):
        for j in range(i + 1, L + 1):
            if feasible(i, j) and min_stages[j] + 1 < min_stages[i]:
                min_stages[i] = min_stages[j] + 1
    if min_stages[0] == INF:
        raise ShardingError(
            f"no feasible pipeline partition of dims {list(dims)} under "
            f"{config.n_pes} PEs/shard ({J} x {N} banks)"
        )
    k_min = int(min_stages[0])
    K = k_min if n_stages is None else int(n_stages)
    if K < k_min:
        raise ShardingError(
            f"{K} stage(s) requested but capacity needs at least {k_min}"
        )
    if K > L:
        raise ShardingError(
            f"{K} stage(s) requested but the model has only {L} layer(s)"
        )

    # best[k][i] = (bottleneck, fill) covering [i, L) in exactly k stages.
    best: list[list[tuple[float, float]]] = [
        [(INF, INF)] * (L + 1) for _ in range(K + 1)
    ]
    cut: list[list[int]] = [[-1] * (L + 1) for _ in range(K + 1)]
    best[0][L] = (0.0, 0.0)
    for k in range(1, K + 1):
        for i in range(L - 1, -1, -1):
            for j in range(i + 1, L + 1):
                if not feasible(i, j):
                    continue
                tail_bottleneck, tail_fill = best[k - 1][j]
                if tail_bottleneck == INF:
                    continue
                c = cost(i, j)
                candidate = (max(c, tail_bottleneck), c + tail_fill)
                if candidate < best[k][i]:
                    best[k][i] = candidate
                    cut[k][i] = j
    if best[K][0][0] == INF:
        raise ShardingError(
            f"no feasible partition of dims {list(dims)} into exactly "
            f"{K} stage(s) under {config.n_pes} PEs/shard"
        )

    stages: list[StageSpec] = []
    i, k = 0, K
    while k > 0:
        j = cut[k][i]
        stages.append(
            _stage_spec(len(stages), i, j, dims, arch, config, batch)
        )
        i, k = j, k - 1
    return ShardPlan(
        dims=dims,
        stages=tuple(stages),
        batch=batch,
        capacity_tiles=config.n_pes,
    )


def plan_from_cuts(
    dims: "list[int] | tuple[int, ...]",
    cuts: "list[int] | tuple[int, ...]",
    config: TridentConfig | None = None,
    *,
    batch: int = 16,
) -> ShardPlan:
    """Build a plan from explicit cut points (for tests and what-ifs).

    ``cuts`` are the interior layer indices where the pipeline is split:
    ``cuts=(2,)`` over a 4-layer model yields stages [0, 2) and [2, 4).
    Every stage must still respect the per-shard capacity (row-sharding
    a wide single layer as the planner would).
    """
    config = config or TridentConfig()
    dims = tuple(int(d) for d in dims)
    if len(dims) < 2:
        raise ShardingError("a model needs at least input and output widths")
    L = len(dims) - 1
    boundaries = [0, *sorted(int(c) for c in cuts), L]
    for a, b in zip(boundaries[:-1], boundaries[1:]):
        if not 0 <= a < b <= L:
            raise ShardingError(
                f"invalid cut points {list(cuts)} for {L} layer(s)"
            )
    if len(set(boundaries)) != len(boundaries):
        raise ShardingError(f"duplicate cut points in {list(cuts)}")
    arch = PhotonicArch.trident(config)
    stages = [
        _stage_spec(index, a, b, dims, arch, config, batch)
        for index, (a, b) in enumerate(zip(boundaries[:-1], boundaries[1:]))
    ]
    for stage in stages:
        if not stage.row_sharded and stage.n_tiles > config.n_pes:
            raise ShardingError(
                f"stage {stage.index} needs {stage.n_tiles} tiles but a "
                f"shard has {config.n_pes} PEs"
            )
    return ShardPlan(
        dims=dims,
        stages=tuple(stages),
        batch=batch,
        capacity_tiles=config.n_pes,
    )

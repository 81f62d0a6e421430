"""Chip scenarios: ``repro train``, ``repro trace`` and ``repro profile``.

Each scenario is a function that returns a run record plus a gate that
audits the record into an :class:`~repro.chaos.audit.AuditResult` (the
serving gates' ``run_*`` + ``*_gate`` pattern), so a test can run and
gate it in-process; the CLI only parses flags, picks artifact paths and
prints.  The pieces the scenarios share with the serving presets and the
soak harness's ``train`` cell live here once each: :func:`small_chip`,
:func:`seeded_weights`, :func:`training_data` and :func:`nan_once`.
"""

from __future__ import annotations

import tempfile
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.arch import EventCounters, TridentAccelerator, TridentConfig
from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
from repro.dataflow.schedule_sim import simulate_model
from repro.devices.program_verify import ProgramVerifyConfig
from repro.errors import ConfigError
from repro.faults import FaultManager, RepairConfig
from repro.nn import build_model
from repro.nn.datasets import Dataset, clipped_blobs
from repro.runtime import ResilientTrainer, RunReport
from repro.telemetry import SessionExport, TelemetrySession
from repro.training.insitu import InSituTrainer


def small_chip(dims: tuple[int, ...], seed: int, spare_rows: int) -> TridentAccelerator:
    """A program-verify chip mapped for ``dims``, not yet programmed: banks
    sized to the widest layer (one tile per layer), ``spare_rows`` spare
    rows per bank and no convergence floor, so readback alone decides
    health."""
    rows = max(max(dims), 2)
    config = TridentConfig(
        bank_rows=rows, bank_cols=rows, spare_rows=spare_rows, convergence_floor=0.0
    )
    acc = TridentAccelerator(config=config, seed=seed, program_verify=ProgramVerifyConfig())
    acc.map_mlp(list(dims))
    return acc


def seeded_weights(dims: tuple[int, ...], seed: int) -> list[np.ndarray]:
    """The seeded model for ``dims``: ``normal(0, 0.4)`` per layer."""
    rng = np.random.default_rng(seed + 1)
    return [rng.normal(0.0, 0.4, (n_out, n_in)) for n_in, n_out in zip(dims[:-1], dims[1:])]


def training_data(n_samples: int, dims: tuple[int, ...], seed: int) -> Dataset:
    """The seeded blob task for a ``dims`` classifier."""
    return clipped_blobs(n_samples, dims[0], dims[-1], seed=seed + 2)


def nan_once(step: int):
    """A training step hook that forces one NaN loss at ``step``."""
    fired = False

    def hook(at: int) -> float | None:
        nonlocal fired
        if at == step and not fired:
            fired = True
            return float("nan")
        return None

    return hook


@dataclass(frozen=True)
class TrainRun:
    """One resilient training run and where its checkpoints went (a
    directory :func:`run_train` removed if it made it)."""

    report: RunReport
    directory: str


def run_train(
    dims: tuple[int, ...] = (6, 8, 3),
    *,
    steps: int = 12,
    batch: int = 8,
    lr: float = 0.05,
    samples: int = 60,
    seed: int = 0,
    checkpoint_dir: str | None = None,
    checkpoint_every: int = 5,
    resume: bool = False,
    max_steps: int | None = None,
    inject_nan_step: int | None = None,
) -> TrainRun:
    """Resilient in-situ training of a small classifier.

    :class:`~repro.runtime.ResilientTrainer` on a two-spare-row
    :func:`small_chip` checkpoints into ``checkpoint_dir`` every
    ``checkpoint_every`` steps and rolls back on divergence with
    learning-rate backoff.  Without ``checkpoint_dir`` it checkpoints into
    a fresh temp dir that is removed before the call returns.  ``resume``
    restores the newest checkpoint first, ``max_steps`` halts early (a
    simulated crash) and ``inject_nan_step`` forces one NaN loss.
    """
    acc = small_chip(dims, seed, spare_rows=2)
    acc.set_weights(seeded_weights(dims, seed))
    data = training_data(samples, dims, seed)
    with (
        nullcontext(checkpoint_dir) if checkpoint_dir
        else tempfile.TemporaryDirectory(prefix="repro-train-")
    ) as directory:
        trainer = ResilientTrainer(
            InSituTrainer(acc, lr=lr),
            directory,
            checkpoint_every=checkpoint_every,
            step_hook=None if inject_nan_step is None else nan_once(inject_nan_step),
        )
        report = trainer.run(
            data,
            steps=steps,
            batch_size=batch,
            seed=seed + 3,
            resume=resume,
            max_steps_this_run=max_steps,
        )
    return TrainRun(report, directory)


def train_gate(run: TrainRun):
    """The ``repro train`` verdict: the run finished every step."""
    from repro.chaos.audit import AuditResult

    result = AuditResult()
    result.record("training completed", run.report.completed, run.report.aborted_reason or "")
    return result


@dataclass(frozen=True)
class TraceRun:
    """One instrumented end-to-end run and its exported telemetry."""

    session: TelemetrySession
    report: RunReport
    #: Fraction of root-span wall time covered by named child spans.
    coverage: float
    export: SessionExport


def run_trace(
    out: str | Path,
    dims: tuple[int, ...] = (6, 8, 3),
    *,
    steps: int = 12,
    seed: int = 0,
    model: str = "alexnet",
    metrics_out: str | Path | None = None,
    events_out: str | Path | None = None,
) -> TraceRun:
    """A workload that exercises every observability surface.

    In one telemetry session a fault-injected deployment walks the repair
    ladder, resilient training with one NaN loss rolls back, and a batched
    inference and the cost model / schedule simulator on ``model`` fill
    the span timeline.  The session is exported to ``out`` (the Chrome
    trace) and, unless ``metrics_out`` / ``events_out`` name paths, the
    metrics dump and event log beside it.
    """
    with telemetry.session() as t:
        with t.tracer.span("trace_workload"):
            with t.tracer.span("deploy_and_repair"):
                acc = small_chip(dims, seed, spare_rows=4)
                weights = seeded_weights(dims, seed)
                acc.inject_stuck_faults(0.08, stuck_level=254)
                manager = FaultManager(acc, config=RepairConfig(policy="remap"))
                manager.deploy(weights)

            with t.tracer.span("training"):
                data = training_data(60, dims, seed)
                with tempfile.TemporaryDirectory() as ckpt_dir:
                    trainer = ResilientTrainer(
                        InSituTrainer(acc, lr=0.05),
                        ckpt_dir,
                        checkpoint_every=3,
                        manager=manager,
                        step_hook=nan_once(2),
                    )
                    report = trainer.run(data, steps=steps, batch_size=8, seed=seed + 3)

            with t.tracer.span("inference"):
                acc.forward_batch(data.x)

            with t.tracer.span("modeling"):
                net = build_model(model)
                PhotonicCostModel(PhotonicArch.trident()).model_cost(net)
                simulate_model(net, keep_events=False)

        coverage = t.tracer.coverage()
        export = t.export(out, metrics_out, events_out)
    return TraceRun(t, report, coverage, export)


def trace_gate(run: TraceRun):
    """The ``repro trace --smoke`` verdict: the written trace is
    schema-valid, named spans cover >= 95% of root wall time, the metrics
    dump exposes the repair-tier and rollback counters, a rollback
    happened and training completed."""
    from repro.chaos.audit import AuditResult

    samples, problems = run.export.samples, run.export.problems
    missing = [
        key
        for key in (
            "repro_rollbacks_total",
            'repro_repairs_total{tier="retry"}',
            'repro_repairs_total{tier="spare"}',
            'repro_repairs_total{tier="migrate"}',
            "repro_tiles_unrepaired_total",
        )
        if key not in samples
    ]
    result = AuditResult()
    result.record("chrome trace schema valid", not problems, "; ".join(problems[:5]))
    result.record("span coverage >= 95%", run.coverage >= 0.95)
    result.record(
        "repair-tier + rollback counters exposed",
        not missing,
        f"missing {missing}" if missing else "",
    )
    result.record("rollback exercised", samples.get("repro_rollbacks_total", 0.0) >= 1)
    result.record("training completed", run.report.completed)
    return result


@dataclass(frozen=True)
class ProfileSide:
    """One side of a profile, read from its own telemetry session."""

    outputs: np.ndarray
    counters: EventCounters
    #: Summed ``forward_batch`` span wall time.
    wall_s: float
    #: Per layer: index, tiles, symbols, writes, cells, activations, wall ms.
    rows: list[list]


@dataclass(frozen=True)
class ProfileRun:
    """One ``batch``-sample batch against the same samples one at a time."""

    batch: int
    batched: ProfileSide
    single: ProfileSide


def run_profile(
    dims: tuple[int, ...] = (64, 48, 10), *, batch: int = 256, seed: int = 0
) -> ProfileRun:
    """Profile one batch against single-sample batches on a random MLP
    mapped on the default accelerator; each side runs in its own
    telemetry session and sums its ``layer`` spans per layer."""
    if batch < 1:
        raise ConfigError(f"batch must be positive, got {batch}")
    rng = np.random.default_rng(seed)
    acc = TridentAccelerator()
    acc.map_mlp(list(dims))
    acc.set_weights([rng.uniform(-1, 1, (o, i)) for i, o in zip(dims[:-1], dims[1:])])
    xs = rng.uniform(-1, 1, (batch, dims[0]))

    def profile(run) -> ProfileSide:
        before = acc.counters.snapshot()
        with telemetry.session() as t:
            outputs = run()
        records = t.tracer.records
        rows = [
            [
                k,
                len(acc.layers[k].tiles),
                row["symbols"],
                row["bank_writes"],
                row["cells_written"],
                row["activation_events"],
                row["duration_s"] * 1e3,
            ]
            for k, row in telemetry.span_totals(records, "layer", "layer").items()
        ]
        wall_s = sum(r.duration_s for r in records if r.name == "forward_batch")
        return ProfileSide(outputs, acc.counters.diff(before), wall_s, rows)

    batched = profile(lambda: acc.forward_batch(xs))
    single = profile(lambda: np.concatenate([acc.forward_batch(x[None]) for x in xs]))
    return ProfileRun(batch, batched, single)


def profile_gate(run: ProfileRun):
    """Batch invariance: both sides agree on outputs (noise-free
    hardware) and on every event counter."""
    from repro.chaos.audit import AuditResult

    result = AuditResult()
    result.record("outputs match", bool(np.allclose(run.batched.outputs, run.single.outputs)))
    result.record("event counters match", run.batched.counters == run.single.counters)
    return result

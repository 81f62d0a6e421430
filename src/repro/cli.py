"""Command-line interface: regenerate any paper artifact from the shell.

Usage (also via ``python -m repro``):

    python -m repro table 3            # Table I-V
    python -m repro fig 6              # Fig 3-6
    python -m repro all                # every table and figure
    python -m repro models             # zoo with MAC/parameter stats
    python -m repro compare resnet50 --budget 30
    python -m repro train-plan vgg16 --samples 50000
    python -m repro link-budget --rows 16 --cols 16 --power-mw 1.0
    python -m repro profile --dims 64 48 10 --batch 256
    python -m repro endurance resnet50
    python -m repro faults --smoke
    python -m repro faults --checkpoint-dir ckpt   # crash-safe, resumable
    python -m repro resume --checkpoint-dir ckpt   # continue after a crash
    python -m repro resume --smoke                 # CI crash-resume gate
    python -m repro train --steps 20 --inject-nan-step 7
    python -m repro checkpoint ckpt/step_0000000010.ckpt
    python -m repro trace --out run.trace.json    # Perfetto-loadable trace
    python -m repro trace --smoke                 # CI observability gate
    python -m repro shard                         # pipeline-sharded serving
    python -m repro shard --smoke                 # CI sharding gate
    python -m repro integrity                     # ABFT-attested serving run
    python -m repro integrity --smoke             # CI SDC-defense gate
    python -m repro -v train --steps 20           # INFO-level run log
    python -m repro train --metrics-out run.prom  # Prometheus dump

Global flags: ``-v`` / ``-vv`` raise log verbosity (INFO / DEBUG) on the
``repro.*`` logging hierarchy; ``--debug`` forces DEBUG.  ``--metrics-out``
(on ``train``, ``faults``, and ``trace``) enables a telemetry session for
the run and writes a Prometheus text dump when it finishes.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import Sequence

from repro.eval.formatting import format_table


@contextlib.contextmanager
def _metrics_session(path: str | None):
    """Telemetry session writing a Prometheus dump to ``path`` on success;
    a no-op (yields None) when no path was requested."""
    if path is None:
        yield None
        return
    from repro import telemetry

    with telemetry.session() as t:
        yield t
    out = t.metrics.write_prometheus(path)
    print(f"metrics written to {out}")


def _comparisons_text(comparisons) -> str:
    if not comparisons:
        return ""
    lines = ["", "paper vs measured:"]
    for c in comparisons:
        lines.append(
            f"  {c.metric:32s} paper={c.paper_value:12.3f}  "
            f"measured={c.measured_value:12.3f}  ({c.relative_error * 100:+.1f}%) {c.units}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns an exit code)
# ---------------------------------------------------------------------------
def cmd_table(args: argparse.Namespace) -> int:
    """Regenerate one paper table (1-5)."""
    from repro.eval import tables

    generators = {
        1: tables.table1_tuning,
        2: tables.table2_mapping_check,
        3: tables.table3_power,
        4: tables.table4_tops,
        5: tables.table5_training,
    }
    report = generators[args.number]()
    print(report.text)
    print(_comparisons_text(report.comparisons))
    return 0


def cmd_fig(args: argparse.Namespace) -> int:
    """Regenerate one paper figure (3-6)."""
    from repro.eval import figures

    generators = {
        3: figures.fig3_activation_transfer,
        4: figures.fig4_photonic_energy,
        5: figures.fig5_area_breakdown,
        6: figures.fig6_inferences_per_second,
    }
    report = generators[args.number]()
    print(report.title)
    if args.number == 3:
        # Curve data: print a decimated sweep.
        xs = list(report.series["input_energy_pj"].values())
        ys = list(report.series["output_energy_pj"].values())
        rows = [[x, y] for x, y in zip(xs[::20], ys[::20])]
        print(format_table(["input (pJ)", "output (pJ)"], rows))
    else:
        names = list(report.series)
        keys = list(report.series[names[0]])
        rows = [[name] + [report.series[name][k] for k in keys] for name in names]
        print(format_table(["series"] + keys, rows))
    print(_comparisons_text(report.comparisons))
    return 0


def cmd_all(args: argparse.Namespace) -> int:
    """Regenerate every table and figure."""
    for n in (1, 2, 3, 4, 5):
        cmd_table(argparse.Namespace(number=n))
        print()
    for n in (3, 4, 5, 6):
        cmd_fig(argparse.Namespace(number=n))
        print()
    return 0


def cmd_models(args: argparse.Namespace) -> int:
    """List the CNN zoo with MAC/parameter statistics."""
    from repro.nn import MODEL_BUILDERS, build_model

    rows = []
    for name in sorted(MODEL_BUILDERS):
        stats = build_model(name).stats()
        rows.append(
            [
                name,
                stats.total_macs / 1e9,
                stats.total_params / 1e6,
                stats.n_weight_layers,
                len(stats.layers),
            ]
        )
    print(
        format_table(
            ["model", "GMACs", "Mparams", "weight layers", "total layers"],
            rows,
            title="Model zoo (224 x 224 x 3 inputs)",
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Compare all seven accelerators on one model."""
    from repro.baselines import electronic_baselines, photonic_baselines
    from repro.dataflow.cost_model import PhotonicCostModel
    from repro.nn import build_model

    net = build_model(args.model)
    rows = []
    for arch in photonic_baselines(args.budget):
        cost = PhotonicCostModel(arch, batch=args.batch).model_cost(net)
        rows.append(
            [arch.name, "photonic", arch.n_pes, cost.inferences_per_second,
             cost.energy_j * 1e3, cost.effective_tops]
        )
    for acc in electronic_baselines():
        cost = acc.model_cost(net, batch=32)
        rows.append(
            [acc.name, "electronic", "-", cost.inferences_per_second,
             cost.energy_j * 1e3, cost.effective_tops]
        )
    print(
        format_table(
            ["accelerator", "kind", "PEs", "inf/s", "energy/inf (mJ)", "eff TOPS"],
            rows,
            title=f"{args.model} at {args.budget:.0f} W (batch {args.batch})",
        )
    )
    return 0


def cmd_train_plan(args: argparse.Namespace) -> int:
    """Table V-style training-time estimate for one model."""
    from repro.baselines.electronic import agx_xavier_training
    from repro.nn import build_model
    from repro.training.latency import TrainingCostModel

    net = build_model(args.model)
    tcm = TrainingCostModel(batch=args.batch)
    costs = tcm.step_costs(net)
    trident_s = tcm.training_time_s(net, args.samples)
    xavier_s = agx_xavier_training(args.model).training_time_s(
        net, args.samples, batch=args.batch
    )
    print(
        format_table(
            ["pass", "time/sample (ms)"],
            [
                ["forward", costs.forward_time_s * 1e3],
                ["gradient vector", costs.gradient_time_s * 1e3],
                ["outer product", costs.outer_time_s * 1e3],
                ["weight update", costs.update_time_s * 1e3],
            ],
            title=f"Trident training step: {args.model}, batch {args.batch}",
        )
    )
    print(
        format_table(
            ["accelerator", f"time for {args.samples} samples (s)"],
            [["agx-xavier", xavier_s], ["trident", trident_s]],
        )
    )
    return 0


def cmd_link_budget(args: argparse.Namespace) -> int:
    """Optical link budget for a bank configuration."""
    from repro.optics import LinkBudget

    budget = LinkBudget()
    rep = budget.report(args.rows, args.cols, args.power_mw * 1e-3)
    print(
        format_table(
            ["quantity", "value"],
            [
                ["bank", f"{rep.rows} x {rep.cols}"],
                ["channel power (mW)", rep.channel_power_w * 1e3],
                ["power at bank (uW)", rep.power_at_bank_w * 1e6],
                ["full-scale current (uA)", rep.full_scale_current_a * 1e6],
                ["shot noise (nA)", rep.shot_noise_a * 1e9],
                ["thermal noise (nA)", rep.thermal_noise_a * 1e9],
                ["SNR (dB)", rep.snr_db],
                ["achievable bits", rep.achievable_bits],
            ],
            title="Optical link budget",
        )
    )
    return 0


def cmd_layers(args: argparse.Namespace) -> int:
    """Per-layer cost table for one model."""
    from repro.eval.layer_report import layer_cost_table

    _, text = layer_cost_table(
        args.model, arch_name=args.arch, batch=args.batch, top=args.top
    )
    print(text)
    return 0


def cmd_export(args: argparse.Namespace) -> int:
    """Write every table/figure as CSV artifacts."""
    from repro.eval.export import export_all

    written = export_all(args.dir)
    for path in written:
        print(path)
    print(f"{len(written)} CSV artifacts written to {args.dir}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Consolidated paper-vs-measured summary."""
    from repro.eval.summary import ReproductionSummary

    summary = ReproductionSummary.collect()
    print(summary.render())
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Profile batched vs per-sample functional inference on one MLP.

    Maps a random MLP, streams one batch through ``forward_batch`` and then
    sample-by-sample through ``forward``, each under a
    :class:`~repro.arch.profiler.Profiler`, and prints both reports plus
    the wall-clock speedup.  Exits non-zero if the two paths disagree —
    outputs (noise-free hardware) or event counters — so it doubles as an
    executable statement of the parity guarantee.
    """
    import numpy as np

    from repro.arch import Profiler, TridentAccelerator
    from repro.errors import ConfigError

    if args.batch < 1:
        raise ConfigError(f"batch must be positive, got {args.batch}")
    dims = args.dims
    rng = np.random.default_rng(args.seed)
    acc = TridentAccelerator()
    acc.map_mlp(dims)
    acc.set_weights(
        [rng.uniform(-1, 1, (o, i)) for i, o in zip(dims[:-1], dims[1:])]
    )
    xs = rng.uniform(-1, 1, (args.batch, dims[0]))

    with Profiler(acc) as prof_batch:
        out_batch = acc.forward_batch(xs)
    with Profiler(acc) as prof_sample:
        out_sample = np.stack([acc.forward(x) for x in xs])

    print(prof_batch.report.render(f"forward_batch (B={args.batch})"))
    print()
    print(prof_sample.report.render(f"per-sample forward x{args.batch}"))
    wall_b = prof_batch.report.wall_time_s
    wall_s = prof_sample.report.wall_time_s
    if wall_b > 0:
        print(f"\nbatched speedup: {wall_s / wall_b:.1f}x")

    outputs_match = bool(np.allclose(out_batch, out_sample))
    counters_match = (
        prof_batch.report.counters.as_dict() == prof_sample.report.counters.as_dict()
    )
    print(f"outputs match: {outputs_match}")
    print(f"event counters match: {counters_match}")
    if not (outputs_match and counters_match):
        print("PARITY VIOLATION between forward_batch and per-sample forward")
        return 1
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injection campaign: stuck-cell fraction x repair policy.

    Sweeps inference accuracy, in-situ-training survival, and repair
    overhead under PCM stuck-at faults for each repair tier (none /
    retry / spare-remap / tile-remap).  Exits non-zero if any run's
    batched and per-sample execution paths disagree — fault repair must
    never break the parity guarantee.
    """
    from repro.faults import CampaignConfig, run_campaign

    if args.smoke:
        config = CampaignConfig.smoke()
    else:
        config = CampaignConfig(
            fault_fractions=tuple(args.fractions),
            policies=tuple(args.policies),
            trials=args.trials,
            seed=args.seed,
        )
    with _metrics_session(args.metrics_out):
        report = run_campaign(
            config, checkpoint_dir=args.checkpoint_dir, max_cells=args.max_cells
        )
    print(report.render())
    if args.export:
        from repro.eval.export import export_fault_campaign

        for path in export_fault_campaign(report, args.export):
            print(path)
    if not report.parity_ok:
        print("PARITY VIOLATION between forward_batch and per-sample forward")
        return 1
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    """Resilient in-situ training on the functional simulator.

    Runs a small classifier through :class:`~repro.runtime.ResilientTrainer`:
    checkpoints on a cadence, rolls back on divergence with exponential
    learning-rate backoff, and can resume an interrupted run from its
    checkpoint directory.  ``--inject-nan-step`` forces one NaN loss to
    demonstrate the rollback ladder.
    """
    import tempfile

    from repro.arch import TridentAccelerator, TridentConfig
    from repro.devices.program_verify import ProgramVerifyConfig
    from repro.nn.datasets import Dataset, make_blobs, standardize
    from repro.runtime import ResilienceConfig, ResilientTrainer
    from repro.training.insitu import InSituTrainer

    import numpy as np

    dims = list(args.dims)
    rows = max(max(dims), 2)
    arch = TridentConfig(
        bank_rows=rows, bank_cols=rows, spare_rows=2, convergence_floor=0.0
    )
    acc = TridentAccelerator(
        config=arch, seed=args.seed, program_verify=ProgramVerifyConfig()
    )
    acc.map_mlp(dims)
    rng = np.random.default_rng(args.seed + 1)
    acc.set_weights(
        [
            rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
            for i in range(len(dims) - 1)
        ]
    )
    raw = make_blobs(
        n_samples=args.samples,
        n_features=dims[0],
        n_classes=dims[-1],
        seed=args.seed + 2,
    )
    data = Dataset(x=np.clip(standardize(raw.x) / 3, -1, 1), y=raw.y)

    hook = None
    if args.inject_nan_step is not None:
        fired = {"done": False}

        def hook(step: int) -> float | None:
            if step == args.inject_nan_step and not fired["done"]:
                fired["done"] = True
                return float("nan")
            return None

    directory = args.checkpoint_dir or tempfile.mkdtemp(prefix="repro-train-")
    trainer = ResilientTrainer(
        InSituTrainer(acc, lr=args.lr),
        directory,
        config=ResilienceConfig(checkpoint_every=args.checkpoint_every),
        step_hook=hook,
    )
    with _metrics_session(args.metrics_out):
        report = trainer.run(
            data,
            steps=args.steps,
            batch_size=args.batch,
            seed=args.seed + 3,
            resume=args.resume,
            max_steps_this_run=args.max_steps,
        )
    print(report.render())
    print(f"checkpoints in {directory}")
    return 0 if report.completed else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Run an instrumented end-to-end workload and export its telemetry.

    The workload exercises every observability surface on purpose: a
    fault-injected deployment walks the repair ladder (repair-tier
    counters), resilient training with one injected NaN loss rolls back
    (rollback counter + structured events), a batched inference pass and
    the analytical cost model / schedule simulator fill the span
    timeline.  Artifacts: a Chrome ``trace_event`` JSON (open in
    ``chrome://tracing`` or https://ui.perfetto.dev), a Prometheus text
    metrics dump, and a JSONL structured-event log.

    The run then *audits itself*: the trace must pass the Chrome-trace
    schema check, named spans must attribute >= 95% of root wall time,
    the metrics dump must parse and expose the repair-tier and rollback
    counters, and the rollback must actually have happened.  Any failed
    check exits non-zero — with ``--smoke`` this is the CI observability
    gate.
    """
    import json
    import tempfile
    from pathlib import Path

    import numpy as np

    from repro import telemetry
    from repro.arch import TridentAccelerator, TridentConfig
    from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
    from repro.dataflow.schedule_sim import simulate_model
    from repro.devices.program_verify import ProgramVerifyConfig
    from repro.faults import FaultManager, RepairConfig
    from repro.nn import build_model
    from repro.nn.datasets import Dataset, make_blobs, standardize
    from repro.runtime import ResilienceConfig, ResilientTrainer
    from repro.training.insitu import InSituTrainer

    if args.out is None:
        base = Path(
            tempfile.mkdtemp(prefix="repro-trace-")
            if args.smoke
            else "."
        )
        args.out = str(base / "repro_run.trace.json")
    out_path = Path(args.out)
    metrics_path = Path(
        args.metrics_out or out_path.with_suffix("").with_suffix(".metrics.prom")
    )
    events_path = Path(
        args.events_out or out_path.with_suffix("").with_suffix(".events.jsonl")
    )

    dims = list(args.dims)
    steps = 6 if args.smoke else args.steps
    rows = max(max(dims), 2)
    seed = args.seed

    with telemetry.session() as t:
        with t.tracer.span("trace_workload"):
            with t.tracer.span("deploy_and_repair"):
                arch = TridentConfig(
                    bank_rows=rows,
                    bank_cols=rows,
                    spare_rows=4,
                    convergence_floor=0.0,
                )
                acc = TridentAccelerator(
                    config=arch, seed=seed,
                    program_verify=ProgramVerifyConfig(),
                )
                acc.map_mlp(dims)
                rng = np.random.default_rng(seed + 1)
                weights = [
                    rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
                    for i in range(len(dims) - 1)
                ]
                acc.inject_stuck_faults(0.08, stuck_level=254)
                manager = FaultManager(acc, config=RepairConfig(policy="remap"))
                manager.deploy([w.copy() for w in weights])

            with t.tracer.span("training"):
                raw = make_blobs(
                    n_samples=60,
                    n_features=dims[0],
                    n_classes=dims[-1],
                    seed=seed + 2,
                )
                data = Dataset(
                    x=np.clip(standardize(raw.x) / 3, -1, 1), y=raw.y
                )
                fired = {"done": False}

                def hook(step: int) -> float | None:
                    if step == 2 and not fired["done"]:
                        fired["done"] = True
                        return float("nan")
                    return None

                with tempfile.TemporaryDirectory() as ckpt_dir:
                    trainer = ResilientTrainer(
                        InSituTrainer(acc, lr=0.05),
                        ckpt_dir,
                        config=ResilienceConfig(checkpoint_every=3),
                        manager=manager,
                        step_hook=hook,
                    )
                    run_report = trainer.run(
                        data, steps=steps, batch_size=8, seed=seed + 3
                    )

            with t.tracer.span("inference"):
                acc.forward_batch(data.x)

            with t.tracer.span("modeling"):
                net = build_model(args.model)
                PhotonicCostModel(PhotonicArch.trident()).model_cost(net)
                simulate_model(net, keep_events=False)

        coverage = t.tracer.coverage()
        t.tracer.write_chrome_trace(out_path)
        t.metrics.write_prometheus(metrics_path)
        t.events.write_jsonl(events_path)
        samples = telemetry.parse_prometheus_text(
            metrics_path.read_text(encoding="utf-8")
        )
        trace_problems = telemetry.validate_chrome_trace(
            json.loads(out_path.read_text(encoding="utf-8"))
        )
        n_spans = len(t.tracer.records)
        n_events = len(t.events.records)

    rollbacks = samples.get("repro_rollbacks_total", 0.0)
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
    checks = [
        ("chrome trace schema valid", not trace_problems),
        ("span coverage >= 95%", coverage >= 0.95),
        ("repair-tier + rollback counters exposed", not missing),
        ("rollback exercised", rollbacks >= 1),
        ("training completed", run_report.completed),
    ]

    print(f"trace written to {out_path} ({n_spans} spans)")
    print(f"metrics written to {metrics_path} ({len(samples)} samples)")
    print(f"events written to {events_path} ({n_events} events)")
    print(f"span coverage of root wall time: {coverage * 100:.1f}%")
    repairs = sum(
        value
        for key, value in samples.items()
        if key.startswith("repro_repairs_total")
    )
    print(
        f"workload: {run_report.steps_completed} steps, "
        f"{int(rollbacks)} rollback(s), {int(repairs)} repair(s), "
        f"{int(samples.get('repro_tiles_unrepaired_total', 0))} tile(s) degraded"
    )
    ok = True
    for label, passed in checks:
        print(f"  {'OK  ' if passed else 'FAIL'} {label}")
        ok = ok and passed
    for problem in trace_problems[:5]:
        print(f"    trace problem: {problem}")
    for key in missing:
        print(f"    missing metric: {key}")
    return 0 if ok else 1


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a synthetic open-loop Poisson workload on simulated workers.

    Three phases — warm (under capacity), burst (overload), drain — with
    one worker forced into PCM degradation mid-run, so the full
    robustness ladder runs under live traffic: priority-aware shedding,
    deadline enforcement, retries, breaker trip / repair / restore.
    With ``--smoke``, replays the run (telemetry disabled) and audits
    the robustness invariants as a CI gate.
    """
    import json
    import tempfile
    from pathlib import Path

    from repro import telemetry
    from repro.serving import (
        Phase,
        ServerConfig,
        WorkloadConfig,
        run_serve_workload,
        shed_rate_by_priority,
        smoke_checks,
    )

    requests = args.requests
    if requests is None:
        requests = 400 if args.smoke else 800
    config = WorkloadConfig(
        dims=tuple(args.dims),
        n_workers=args.workers,
        seed=args.seed,
        phases=(
            Phase("warm", requests, 0.6),
            Phase("burst", requests, args.burst),
            Phase("drain", requests, 0.35),
        ),
        server=ServerConfig(
            max_queue_depth=args.queue_depth,
            max_batch=args.batch,
            slo_latency_s=args.slo_us * 1e-6,
            max_retries=2,
            retry_backoff_s=5e-7,
            retry_jitter_s=1e-7,
            breaker_failure_threshold=3,
            breaker_cooldown_s=5e-6,
            seed=args.seed,
            executor_threads=args.threads,
        ),
    )

    out_path = metrics_path = events_path = None
    if args.smoke and args.out is None:
        args.out = str(
            Path(tempfile.mkdtemp(prefix="repro-serve-")) / "serve.trace.json"
        )
    if args.out:
        out_path = Path(args.out)
        metrics_path = Path(
            args.metrics_out
            or out_path.with_suffix("").with_suffix(".metrics.prom")
        )
        events_path = Path(
            args.events_out or out_path.with_suffix("").with_suffix(".events.jsonl")
        )

    with telemetry.session() as t:
        report, _server = run_serve_workload(config)
        if out_path:
            t.tracer.write_chrome_trace(out_path)
            t.metrics.write_prometheus(metrics_path)
            t.events.write_jsonl(events_path)
            samples = telemetry.parse_prometheus_text(
                metrics_path.read_text(encoding="utf-8")
            )
            trace_problems = telemetry.validate_chrome_trace(
                json.loads(out_path.read_text(encoding="utf-8"))
            )

    print(report.render())
    rates = shed_rate_by_priority(report)
    if rates:
        shed_line = ", ".join(
            f"p{priority}={rate * 100:.1f}%" for priority, rate in rates.items()
        )
        print(f"  shed rate by priority: {shed_line}")
    if out_path:
        print(f"trace written to {out_path}")
        print(f"metrics written to {metrics_path} ({len(samples)} samples)")
        print(f"events written to {events_path} ({len(t.events.records)} events)")

    if not args.smoke:
        return 0

    # Replay with telemetry disabled: same decisions proves both seeded
    # determinism and that observability never perturbs the simulation.
    replay, _ = run_serve_workload(config)
    checks = smoke_checks(report, replay)
    if out_path:
        expected_samples = (
            "repro_requests_admitted_total",
            "repro_requests_completed_total",
            'repro_requests_shed_total{reason="queue_full"}',
            'repro_breaker_transitions_total{to="open"}',
            "repro_serve_queue_depth",
            "repro_power_draw_w",
        )
        missing = [key for key in expected_samples if key not in samples]
        checks.append(("chrome trace schema valid", not trace_problems))
        checks.append(("serving + power metrics exposed", not missing))
    ok = True
    for label, passed in checks:
        print(f"  {'OK  ' if passed else 'FAIL'} {label}")
        ok = ok and passed
    return 0 if ok else 1


def cmd_shard(args: argparse.Namespace) -> int:
    """Serve one model sharded across a pipeline of accelerators.

    The model provably overflows a single shard-sized chip; the
    cost-model planner cuts it into pipeline stages (row-sharding any
    single layer too wide for one chip), and a multi-stage
    :class:`~repro.serving.AcceleratorWorker` serves a seeded request
    burst with overlapped stage execution.  With ``--smoke``, runs the full self-audit instead —
    bit-identity vs a single large reference accelerator, overlap vs
    serialized makespans, stage-fault drain/repair, conservation, and
    bit-identical replay — as a CI gate.
    """
    import dataclasses

    from repro.serving import (
        ShardWorkloadConfig,
        makespan_s,
        run_shard_workload,
        shard_smoke_checks,
    )
    from repro.serving.shard_workload import (
        plan_workload,
        single_shard_mapping_error,
    )

    config = ShardWorkloadConfig()
    overrides = {}
    if args.requests is not None:
        overrides["n_requests"] = args.requests
    if args.seed is not None:
        overrides["seed"] = args.seed
    if overrides:
        config = dataclasses.replace(config, **overrides)

    if args.smoke:
        checks, details = shard_smoke_checks(config)
        plan = details["plan"]
        print(
            f"plan: {plan['n_stages']} stage(s), "
            f"{plan['n_accelerators']} accelerator(s), "
            f"bottleneck {plan['bottleneck_s'] * 1e6:.3f} us"
        )
        print(f"single-shard mapping: {details['single_shard_error']}")
        print(
            f"makespan: overlap {details['overlap_makespan_s'] * 1e6:.2f} us, "
            f"serialized {details['serialized_makespan_s'] * 1e6:.2f} us "
            f"(speedup {details['overlap_speedup']:.2f}x)"
        )
        ok = True
        for label, passed in checks:
            print(f"  {'OK  ' if passed else 'FAIL'} {label}")
            ok = ok and passed
        return 0 if ok else 1

    error = single_shard_mapping_error(config)
    if error is not None:
        print(f"single shard refuses the model: {error}")
    print(plan_workload(config).render())
    report, _, worker = run_shard_workload(
        config, overlap=not args.serialized
    )
    print(report.render())
    mode = "serialized" if args.serialized else "overlapped"
    print(
        f"  {mode} makespan: {makespan_s(report) * 1e6:.2f} us over "
        f"{len(worker.stages)} stage(s)"
    )
    return 0


def cmd_checkpoint(args: argparse.Namespace) -> int:
    """Inspect a checkpoint file: schema, kind, hash, integrity verdict."""
    from repro.runtime import describe_checkpoint

    info = describe_checkpoint(args.path)
    width = max(len(k) for k in info)
    for key, value in info.items():
        print(f"{key:<{width}}  {value}")
    return 0 if info.get("valid") else 1


def cmd_resume(args: argparse.Namespace) -> int:
    """Resume an interrupted fault campaign from its checkpoint ledger.

    With ``--smoke``, runs a self-contained crash-resume verification
    instead: a small campaign is run once uninterrupted, once halted
    after a single cell and resumed, and the two final reports must be
    bit-identical (same rows, same clean accuracy).
    """
    from repro.faults import CampaignConfig, resume_campaign, run_campaign

    if args.smoke:
        import tempfile

        config = CampaignConfig.smoke()
        baseline = run_campaign(config)
        with tempfile.TemporaryDirectory() as directory:
            partial = run_campaign(config, checkpoint_dir=directory, max_cells=1)
            resumed = resume_campaign(directory)
        same = (
            resumed.complete
            and not partial.complete
            and baseline.clean_accuracy == resumed.clean_accuracy
            and [r.as_dict() for r in baseline.rows]
            == [r.as_dict() for r in resumed.rows]
        )
        print(
            f"crash-resume smoke: halted after {len(partial.rows)} cell(s), "
            f"resumed to {len(resumed.rows)}/{len(baseline.rows)}"
        )
        print(f"bit-identical to uninterrupted run: {'OK' if same else 'MISMATCH'}")
        return 0 if same else 1

    if not args.checkpoint_dir:
        print("repro resume: --checkpoint-dir is required (or use --smoke)")
        return 2
    report = resume_campaign(args.checkpoint_dir)
    print(report.render())
    if args.export:
        from repro.eval.export import export_fault_campaign

        for path in export_fault_campaign(report, args.export):
            print(path)
    if not report.parity_ok:
        print("PARITY VIOLATION between forward_batch and per-sample forward")
        return 1
    return 0


def cmd_soak(args: argparse.Namespace) -> int:
    """Soak the stack under deterministic chaos; emit a flake matrix.

    Sweeps the serve/shard/resume/train/fleet scenarios across a seed range,
    each cell repeated and audited (conservation, structured sheds,
    atomic batches, finite outputs, charged repairs, bit-identical
    replay).  ``--gate`` makes any failing or flaky cell — or a
    self-audit that cannot detect a deliberately unhandled fault — exit
    non-zero, which is how CI consumes it.
    """
    import json

    from repro.chaos import (
        SoakConfig,
        render_matrix,
        run_self_audit,
        run_soak,
        validate_matrix,
    )

    scenarios = tuple(args.scenarios) if args.scenarios else None
    seeds = tuple(range(args.seed_base, args.seed_base + args.seeds))
    overrides = {"seeds": seeds, "repeats": args.repeats,
                 "chaos": not args.no_chaos}
    if scenarios is not None:
        overrides["scenarios"] = scenarios
    config = SoakConfig(**overrides)

    def progress(cell):
        verdict = "pass" if cell["ok"] else "FAIL"
        print(
            f"  {verdict}  {cell['scenario']:<7} seed {cell['seed']:<3} "
            f"({cell['duration_s']:.2f}s)"
        )

    doc = run_soak(config, progress=progress)
    if args.gate or args.smoke:
        doc["self_audit"] = run_self_audit(config.seeds[0])
        print(
            f"  {'pass' if doc['self_audit']['ok'] else 'FAIL'}  self-audit "
            "(sabotaged cell must be flagged)"
        )
    problems = validate_matrix(doc)
    if problems:
        for problem in problems:
            print(f"  FAIL  matrix schema: {problem}")
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        print(f"flake matrix: {out}")
    print(render_matrix(doc))
    gate_ok = (
        not doc["flaky"]
        and not problems
        and doc.get("self_audit", {"ok": True})["ok"]
    )
    if args.gate:
        print(f"soak gate: {'OK' if gate_ok else 'FAIL'}")
        return 0 if gate_ok else 1
    return 0


def cmd_integrity(args: argparse.Namespace) -> int:
    """ABFT attestation: serve the SDC-defense workload, checks enabled.

    Every batch is verified against per-layer checksum rows with
    noise-calibrated thresholds.  With ``--smoke``, runs the full gate
    instead: zero false trips across a clean seed matrix, bit-identical
    parity with an unchecked run, bit-identical replay, injected
    ``silent_corrupt`` chaos detected and attested (none settles
    unverified), and the escalation → quarantine → scrub → restore arc.
    """
    import dataclasses

    from repro.integrity import (
        IntegrityWorkloadConfig,
        run_integrity_workload,
        smoke_checks,
    )

    config = IntegrityWorkloadConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.requests is not None:
        overrides["n_requests"] = args.requests
    if overrides:
        config = dataclasses.replace(config, **overrides)

    if args.smoke:
        ok = True
        for label, passed in smoke_checks(config):
            print(f"  {'OK  ' if passed else 'FAIL'} {label}")
            ok = ok and passed
        print(f"integrity gate: {'OK' if ok else 'FAIL'}")
        return 0 if ok else 1

    result = run_integrity_workload(config)
    print(result.report.render())
    counters = result.counters_total()
    line = ", ".join(f"{k}={v}" for k, v in sorted(counters.items()))
    print(f"  attestation counters: {line}")
    for worker in result.workers:
        thresholds = ", ".join(
            f"{t:.4f}"
            for row in worker.integrity.units
            for unit in row
            for t in unit.thresholds
        )
        print(f"  worker {worker.worker_id} thresholds: [{thresholds}]")
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run the closed-loop fleet control plane on a diurnal + burst trace.

    The controller autoscales (warm-up, graceful drain, checkpointed
    decommission), rebalances tenants, and rides the degraded-mode
    ladder through a mid-peak breaker-storm volley, all on the virtual
    clock.  ``--smoke`` additionally runs a bit-identical replay plus a
    static-knob baseline and gates the full contract: burst absorbed
    within SLO, baseline demonstrably missing it, scale-up *and*
    scale-down observed, exactly one degraded episode, conservation.
    """
    import json

    from repro.fleet import (
        SCENARIOS,
        fleet_smoke_checks,
        run_fleet_workload,
        smoke_chaos_plan,
    )

    scenario = SCENARIOS[args.scenario](args.seed)
    plan = None if args.no_chaos else smoke_chaos_plan(scenario)

    if args.smoke:
        result = run_fleet_workload(scenario, controlled=True, chaos_plan=plan)
        replay = run_fleet_workload(scenario, controlled=True, chaos_plan=plan)
        baseline = run_fleet_workload(
            scenario, controlled=False, chaos_plan=plan
        )
        checks = fleet_smoke_checks(result, replay, baseline)
        ok = True
        for label, passed in checks:
            print(f"  {'OK  ' if passed else 'FAIL'} {label}")
            ok = ok and passed
        if args.out:
            from pathlib import Path

            doc = {
                "scenario": result.as_dict(),
                "baseline": baseline.as_dict(),
                "checks": [
                    {"name": label, "ok": passed} for label, passed in checks
                ],
            }
            out = Path(args.out)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(doc, indent=2), encoding="utf-8")
            print(f"fleet report: {out}")
        print(f"fleet smoke: {'OK' if ok else 'FAIL'}")
        return 0 if ok else 1

    result = run_fleet_workload(scenario, controlled=True, chaos_plan=plan)
    doc = result.as_dict()
    controller = doc["controller"]
    serve = doc["serve"]
    print(
        format_table(
            ["quantity", "value"],
            [
                ["requests", doc["requests"]],
                ["completed", serve["completed"]],
                ["completion rate", f"{serve['completion_rate'] * 100:.2f}%"],
                ["p99 latency", f"{serve['p99_latency_s'] * 1e6:.2f} us"],
                ["fleet (final)", doc["fleet"]],
                ["controller ticks", controller["ticks"]],
                ["scale-ups / scale-downs",
                 f"{controller['scale_up_events']} / "
                 f"{controller['scale_down_events']}"],
                ["degraded entries / exits",
                 f"{controller['degraded_entries']} / "
                 f"{controller['degraded_exits']}"],
                ["final rung", controller["rung"]],
                ["actuations", controller["actuations"]],
            ],
            title=f"fleet run: scenario={scenario.name} seed={args.seed}",
        )
    )
    if args.out:
        from pathlib import Path

        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(doc, indent=2), encoding="utf-8")
        print(f"fleet report: {out}")
    return 0 if serve["conservation_ok"] else 1


def cmd_endurance(args: argparse.Namespace) -> int:
    """PCM wear-out analysis for one model."""
    from repro.analysis import endurance_report
    from repro.nn import build_model

    rep = endurance_report(build_model(args.model))
    print(
        format_table(
            ["quantity", "value"],
            [
                ["weight-cell writes / inference", rep.weight_writes_per_inference],
                ["activation firings / cell / inference", rep.activation_firings_per_inference],
                ["weight-cell lifetime (years)", rep.weight_lifetime_years],
                ["activation-cell lifetime (hours)", rep.activation_lifetime_hours],
                ["limiting population", rep.limiting_population],
            ],
            title=f"PCM endurance: {args.model} at full-rate inference",
        )
    )
    return 0


# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro", description="Trident reproduction CLI"
    )
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="raise repro.* log level (-v: INFO, -vv: DEBUG)",
    )
    parser.add_argument(
        "--debug", action="store_true",
        help="force DEBUG logging on the repro.* hierarchy",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="regenerate a paper table (1-5)")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("fig", help="regenerate a paper figure (3-6)")
    p.add_argument("number", type=int, choices=(3, 4, 5, 6))
    p.set_defaults(func=cmd_fig)

    p = sub.add_parser("all", help="every table and figure")
    p.set_defaults(func=cmd_all)

    p = sub.add_parser("models", help="list the CNN zoo")
    p.set_defaults(func=cmd_models)

    p = sub.add_parser("compare", help="compare all accelerators on a model")
    p.add_argument("model")
    p.add_argument("--budget", type=float, default=30.0)
    p.add_argument("--batch", type=int, default=128)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("train-plan", help="training-time estimate (Table V style)")
    p.add_argument("model")
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--batch", type=int, default=32)
    p.set_defaults(func=cmd_train_plan)

    p = sub.add_parser("link-budget", help="optical link budget for a bank")
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--cols", type=int, default=16)
    p.add_argument("--power-mw", type=float, default=1.0)
    p.set_defaults(func=cmd_link_budget)

    p = sub.add_parser("layers", help="per-layer cost table for a model")
    p.add_argument("model")
    p.add_argument("--arch", default="trident",
                   choices=("trident", "deap-cnn", "crosslight", "pixel"))
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--top", type=int, default=12)
    p.set_defaults(func=cmd_layers)

    p = sub.add_parser("report", help="paper-vs-measured summary for everything")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("export", help="write every table/figure as CSV")
    p.add_argument("--dir", default="artifacts")
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "profile", help="profile batched vs per-sample functional inference"
    )
    p.add_argument("--dims", type=int, nargs="+", default=[64, 48, 10])
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "faults", help="fault campaign: stuck-cell rate x repair policy"
    )
    p.add_argument(
        "--smoke", action="store_true",
        help="CI-sized sweep (two fractions, two policies, one trial)",
    )
    p.add_argument(
        "--fractions", type=float, nargs="+",
        default=[0.0, 0.05, 0.1, 0.2],
    )
    p.add_argument(
        "--policies", nargs="+",
        default=["none", "retry", "spare", "remap"],
        choices=("none", "retry", "spare", "remap"),
    )
    p.add_argument("--trials", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--export", metavar="DIR",
                   help="also write fault_campaign.{csv,json} to DIR")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="persist finished sweep cells for crash-safe resume")
    p.add_argument("--max-cells", type=int, default=None,
                   help="halt after executing this many new cells "
                        "(crash simulation; resume later)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="collect telemetry and write a Prometheus dump here")
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("endurance", help="PCM wear-out analysis for a model")
    p.add_argument("model")
    p.set_defaults(func=cmd_endurance)

    p = sub.add_parser(
        "train",
        help="resilient in-situ training with checkpoints and rollback",
    )
    p.add_argument("--dims", type=int, nargs="+", default=[6, 8, 3])
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="checkpoint directory (default: a fresh temp dir)")
    p.add_argument("--checkpoint-every", type=int, default=5)
    p.add_argument("--resume", action="store_true",
                   help="restore the newest checkpoint before training")
    p.add_argument("--max-steps", type=int, default=None,
                   help="halt after this many executed steps "
                        "(crash simulation; resume later)")
    p.add_argument("--inject-nan-step", type=int, default=None,
                   help="force a NaN loss at this step to demo rollback")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="collect telemetry and write a Prometheus dump here")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser(
        "trace",
        help="run an instrumented workload; export Chrome trace + metrics",
    )
    p.add_argument("--out", metavar="PATH", default=None,
                   help="Chrome trace output (default repro_run.trace.json; "
                        "--smoke defaults to a temp dir)")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="Prometheus dump (default: next to --out)")
    p.add_argument("--events-out", metavar="PATH", default=None,
                   help="structured-event JSONL (default: next to --out)")
    p.add_argument("--dims", type=int, nargs="+", default=[6, 8, 3])
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", default="alexnet",
                   help="model for the cost-model/schedule-sim phase")
    p.add_argument("--smoke", action="store_true",
                   help="small workload + self-audit (CI observability gate)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "serve",
        help="serve a synthetic request workload with fault-aware admission",
    )
    p.add_argument("--dims", type=int, nargs="+", default=[12, 16, 4])
    p.add_argument("--workers", type=int, default=2,
                   help="number of simulated accelerator workers")
    p.add_argument("--requests", type=int, default=None,
                   help="requests per phase (default 800; 400 with --smoke)")
    p.add_argument("--burst", type=float, default=2.0,
                   help="burst-phase arrival rate, x sustainable throughput")
    p.add_argument("--batch", type=int, default=16,
                   help="micro-batch size cap")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission queue depth bound")
    p.add_argument("--slo-us", type=float, default=10.0,
                   help="latency SLO in microseconds of virtual time")
    p.add_argument("--threads", type=int, default=0,
                   help="thread-pool size for batch execution (0 = inline)")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="Chrome trace output (--smoke defaults to a temp dir)")
    p.add_argument("--metrics-out", metavar="PATH", default=None,
                   help="Prometheus dump (default: next to --out)")
    p.add_argument("--events-out", metavar="PATH", default=None,
                   help="structured-event JSONL (default: next to --out)")
    p.add_argument("--smoke", action="store_true",
                   help="replay + robustness self-audit (CI serving gate)")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "shard",
        help="serve one model sharded across a pipeline of accelerators",
    )
    p.add_argument("--requests", type=int, default=None,
                   help="requests in the burst (default 240)")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default 11)")
    p.add_argument("--serialized", action="store_true",
                   help="hold the pipeline exclusive per batch (baseline)")
    p.add_argument("--smoke", action="store_true",
                   help="bit-identity + overlap + stage-fault self-audit "
                        "(CI sharding gate)")
    p.set_defaults(func=cmd_shard)

    p = sub.add_parser(
        "checkpoint", help="inspect a checkpoint file (schema/kind/hash)"
    )
    p.add_argument("path")
    p.set_defaults(func=cmd_checkpoint)

    p = sub.add_parser(
        "resume",
        help="resume an interrupted fault campaign from its ledger",
    )
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="directory holding campaign_cells.jsonl")
    p.add_argument("--smoke", action="store_true",
                   help="self-contained crash-resume verification (CI gate)")
    p.add_argument("--export", metavar="DIR",
                   help="also write fault_campaign.{csv,json} to DIR")
    p.set_defaults(func=cmd_resume)

    p = sub.add_parser(
        "soak",
        help="chaos soak: scenarios x seeds, audited, with a flake matrix",
    )
    p.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        choices=("serve", "shard", "resume", "train", "fleet", "sdc"),
        help="subset of scenarios (default: all six)",
    )
    p.add_argument("--seeds", type=int, default=4, metavar="N",
                   help="number of seeds to sweep (default 4)")
    p.add_argument("--seed-base", type=int, default=0, metavar="S",
                   help="first seed of the sweep (default 0)")
    p.add_argument("--repeats", type=int, default=2, metavar="R",
                   help="runs per cell; digests must agree (default 2)")
    p.add_argument("--no-chaos", action="store_true",
                   help="sweep without injections (baseline variability)")
    p.add_argument("--out", metavar="FILE",
                   help="write the flake matrix JSON here")
    p.add_argument("--gate", action="store_true",
                   help="exit non-zero on any flake/failure (CI gate)")
    p.add_argument("--smoke", action="store_true",
                   help="CI-bounded sweep: also run the sabotage self-audit "
                        "and matrix schema validation")
    p.set_defaults(func=cmd_soak)

    p = sub.add_parser(
        "integrity",
        help="ABFT checksum attestation of served outputs (SDC defense)",
    )
    p.add_argument("--requests", type=int, default=None,
                   help="requests in the run (default 160)")
    p.add_argument("--seed", type=int, default=None,
                   help="workload seed (default 7)")
    p.add_argument("--smoke", action="store_true",
                   help="clean-matrix / parity / replay / injected-SDC / "
                        "escalation self-audit (CI integrity gate)")
    p.set_defaults(func=cmd_integrity)

    p = sub.add_parser(
        "fleet",
        help="closed-loop fleet control plane on a diurnal + burst trace",
    )
    p.add_argument(
        "--scenario", choices=("smoke", "standard", "large"), default="smoke",
        help="fleet scenario preset (default smoke)",
    )
    p.add_argument("--seed", type=int, default=11, help="workload seed")
    p.add_argument("--no-chaos", action="store_true",
                   help="skip the mid-peak breaker-storm volley")
    p.add_argument("--out", metavar="FILE",
                   help="write the run report JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: controlled run + replay + static baseline, "
                        "pass/fail contract checks")
    p.set_defaults(func=cmd_fleet)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Domain failures (:class:`~repro.errors.ReproError` — fault
    escalations, repair exhaustion, checkpoint corruption, bad serving
    configs, …) exit with code 2 and a one-line structured message on
    stderr instead of a traceback; tracebacks are reserved for actual
    bugs.
    """
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError
    from repro.telemetry import configure_cli_logging

    configure_cli_logging(verbosity=args.verbose, debug=args.debug)
    try:
        return args.func(args)
    except ReproError as error:
        print(
            f"repro: error: {type(error).__name__}: {error}", file=sys.stderr
        )
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

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


def _gate_verdict(result, gate: str) -> int:
    """Print a gate's check list and verdict; returns the exit code."""
    for name, ok, detail in result.checks:
        line = f"  {'OK  ' if ok else 'FAIL'} {name}"
        print(f"{line}: {detail}" if detail else line)
    print(f"{gate}: {'OK' if result.ok else 'FAIL'}")
    return 0 if result.ok else 1


def _write_json(path: str, doc: dict, label: str) -> None:
    """Write ``doc`` as indented JSON to ``path`` (parents created)."""
    import json
    from pathlib import Path

    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    print(f"{label}: {out}")


def _parity_verdict(ok: bool) -> int:
    """Exit code of a batch-invariance check (1 names the violation)."""
    if not ok:
        print("PARITY VIOLATION between one batch and single-sample batches")
    return 0 if ok else 1


def _campaign_verdict(report, export_dir: str | None) -> int:
    """Print a fault campaign (and export it to ``export_dir``)."""
    print(report.render())
    if export_dir:
        from repro.eval.export import export_fault_campaign

        for path in export_fault_campaign(report, export_dir):
            print(path)
    return _parity_verdict(report.parity_ok)


def _print_export(t, export) -> None:
    """One line per artifact a telemetry session's export wrote."""
    if export.trace:
        print(f"trace written to {export.trace} ({len(t.tracer.records)} spans)")
    if export.metrics:
        print(f"metrics written to {export.metrics} ({len(export.samples)} samples)")
    if export.events:
        print(f"events written to {export.events} ({len(t.events.records)} events)")


def _seed(text: str) -> int:
    """argparse ``type`` of the seed flags: a non-negative integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _with_flags(config, **flags):
    """``config`` with each flag the user gave (not None) replaced."""
    import dataclasses

    given = {key: value for key, value in flags.items() if value is not None}
    return dataclasses.replace(config, **given) if given else config


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
    """Profile one batch against single-sample batches on one MLP
    (:func:`repro.scenarios.run_profile`) and print each side's per-layer
    rows and the speedup.  Exits non-zero if the sides disagree on outputs
    or event counters: an executable statement of batch invariance."""
    from repro.scenarios import profile_gate, run_profile

    run = run_profile(args.dims, batch=args.batch, seed=args.seed)

    def show(title, side):
        counters = side.counters
        print(
            f"{title}: {side.wall_s * 1e3:.3f} ms wall, {counters.symbols} symbols, "
            f"{counters.bank_writes} bank writes, "
            f"{counters.activation_events} activation events"
        )
        print(
            format_table(
                ["layer", "tiles", "symbols", "writes", "cells",
                 "activations", "wall ms"],
                side.rows,
            )
        )

    show(f"forward_batch (B={args.batch})", run.batched)
    print()
    show(f"forward_batch (B=1) x{args.batch}", run.single)
    if run.batched.wall_s > 0:
        print(f"\nbatched speedup: {run.single.wall_s / run.batched.wall_s:.1f}x")

    result = profile_gate(run)
    for name, ok, _ in result.checks:
        print(f"{name}: {ok}")
    return _parity_verdict(result.ok)


def cmd_faults(args: argparse.Namespace) -> int:
    """Fault-injection campaign: stuck-cell fraction x repair policy.

    Sweeps inference accuracy, in-situ-training survival, and repair
    overhead under PCM stuck-at faults for each repair tier (none /
    retry / spare-remap / tile-remap).  Exits non-zero if any run's
    batch and the same samples as single-sample batches disagree — fault
    repair must never break batch invariance.
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
    return _campaign_verdict(report, args.export)


def cmd_train(args: argparse.Namespace) -> int:
    """Resilient in-situ training (:func:`repro.scenarios.run_train`):
    checkpoints on a cadence, rolls back on divergence with learning-rate
    backoff, resumes an interrupted run; ``--inject-nan-step`` forces one
    NaN loss to demonstrate the rollback ladder."""
    from repro.scenarios import run_train, train_gate

    with _metrics_session(args.metrics_out):
        run = run_train(
            args.dims,
            steps=args.steps,
            batch=args.batch,
            lr=args.lr,
            samples=args.samples,
            seed=args.seed,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            resume=args.resume,
            max_steps=args.max_steps,
            inject_nan_step=args.inject_nan_step,
        )
    print(run.report.render())
    print(f"checkpoints in {run.directory}")
    return 0 if train_gate(run).ok else 1


def cmd_trace(args: argparse.Namespace) -> int:
    """Run the instrumented end-to-end workload
    (:func:`repro.scenarios.run_trace`), export a Chrome ``trace_event``
    JSON (open in https://ui.perfetto.dev), a Prometheus metrics dump and
    a JSONL event log, and audit them (:func:`repro.scenarios.trace_gate`);
    with ``--smoke`` this is the CI observability gate."""
    import tempfile
    from pathlib import Path

    from repro.scenarios import run_trace, trace_gate

    if args.out is None:
        base = tempfile.mkdtemp(prefix="repro-trace-") if args.smoke else "."
        args.out = str(Path(base) / "repro_run.trace.json")

    run = run_trace(
        args.out,
        args.dims,
        steps=6 if args.smoke else args.steps,
        seed=args.seed,
        model=args.model,
        metrics_out=args.metrics_out,
        events_out=args.events_out,
    )
    _print_export(run.session, run.export)
    samples = run.export.samples
    print(f"span coverage of root wall time: {run.coverage * 100:.1f}%")
    repairs = sum(v for k, v in samples.items() if k.startswith("repro_repairs_total"))
    print(
        f"workload: {run.report.steps_completed} steps, "
        f"{int(samples.get('repro_rollbacks_total', 0.0))} rollback(s), "
        f"{int(repairs)} repair(s), "
        f"{int(samples.get('repro_tiles_unrepaired_total', 0))} tile(s) degraded"
    )
    return _gate_verdict(trace_gate(run), "trace gate")


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a synthetic open-loop Poisson workload on simulated workers.

    Three phases — warm (under capacity), burst (overload), drain — with
    one worker forced into PCM degradation mid-run, so the full
    robustness ladder runs under live traffic: priority-aware shedding,
    deadline enforcement, retries, breaker trip / repair / restore.
    With ``--smoke``, replays the run (telemetry disabled) and audits
    the robustness invariants as a CI gate.
    """
    import dataclasses
    import tempfile
    from pathlib import Path

    from repro import telemetry
    from repro.serving import (
        WorkloadConfig,
        run_serve_workload,
        serve_gate,
        shed_rate_by_priority,
    )
    from repro.serving.workload import three_phases

    requests = args.requests
    if requests is None:
        requests = 400 if args.smoke else 800
    base = WorkloadConfig()
    config = dataclasses.replace(
        base,
        dims=tuple(args.dims),
        n_workers=args.workers,
        seed=args.seed,
        phases=three_phases(requests, args.burst),
        server=dataclasses.replace(
            base.server,
            max_queue_depth=args.queue_depth,
            max_batch=args.batch,
            slo_latency_s=args.slo_us * 1e-6,
            seed=args.seed,
        ),
    )

    if args.smoke and args.out is None:
        args.out = str(
            Path(tempfile.mkdtemp(prefix="repro-serve-")) / "serve.trace.json"
        )
    with telemetry.session() as t:
        run = run_serve_workload(config)
        export = t.export(args.out, args.metrics_out, args.events_out)
    _print_export(t, export)

    print(run.report.render())
    rates = shed_rate_by_priority(run.report)
    if rates:
        shed_line = ", ".join(
            f"p{priority}={rate * 100:.1f}%" for priority, rate in rates.items()
        )
        print(f"  shed rate by priority: {shed_line}")
    if not args.smoke:
        return 0

    # Replay with telemetry disabled: same decisions proves both seeded
    # determinism and that observability never perturbs the simulation.
    result = serve_gate(run, run_serve_workload(config))
    expected_samples = (
        "repro_requests_admitted_total",
        "repro_requests_completed_total",
        'repro_requests_shed_total{reason="queue_full"}',
        'repro_breaker_transitions_total{to="open"}',
        "repro_serve_queue_depth",
        "repro_power_draw_w",
    )
    missing = [key for key in expected_samples if key not in export.samples]
    result.record(
        "chrome_trace_schema_valid",
        not export.problems,
        "; ".join(export.problems[:5]),
    )
    result.record(
        "serving_metrics_exposed",
        not missing,
        f"missing {missing}" if missing else "serving + power metrics",
    )
    return _gate_verdict(result, "serve gate")


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
    from repro.serving import (
        ShardWorkloadConfig,
        makespan_s,
        run_shard_workload,
        shard_gate,
    )
    from repro.serving.shard_workload import (
        plan_workload,
        single_shard_mapping_error,
    )

    config = _with_flags(
        ShardWorkloadConfig(), n_requests=args.requests, seed=args.seed
    )

    if args.smoke:
        return _gate_verdict(shard_gate(config), "shard gate")

    error = single_shard_mapping_error(config)
    if error is not None:
        print(f"single shard refuses the model: {error}")
    print(plan_workload(config).render())
    run = run_shard_workload(config, overlap=not args.serialized)
    print(run.report.render())
    mode = "serialized" if args.serialized else "overlapped"
    print(
        f"  {mode} makespan: {makespan_s(run.report) * 1e6:.2f} us over "
        f"{len(run.workers[0].stages)} stage(s)"
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

    With ``--smoke``, runs the crash-resume check instead
    (:func:`repro.faults.run_resume_check`): the resumed campaign must be
    bit-identical to an uninterrupted one.
    """
    from repro.faults import resume_campaign, resume_gate, run_resume_check

    if args.smoke:
        check = run_resume_check()
        print(
            f"crash-resume smoke: halted after {len(check.partial.rows)} "
            f"cell(s), resumed to {len(check.resumed.rows)}/"
            f"{len(check.baseline.rows)}"
        )
        ok = resume_gate(check).ok
        print(f"bit-identical to uninterrupted run: {'OK' if ok else 'MISMATCH'}")
        return 0 if ok else 1

    if not args.checkpoint_dir:
        print(
            "repro resume: --checkpoint-dir is required (or use --smoke)",
            file=sys.stderr,
        )
        return 2
    report = resume_campaign(args.checkpoint_dir)
    return _campaign_verdict(report, args.export)


def cmd_soak(args: argparse.Namespace) -> int:
    """Soak the stack under deterministic chaos; emit a flake matrix.

    Sweeps the serve/shard/resume/train/fleet/sdc scenarios across a seed
    range, each cell repeated and audited.  ``--smoke`` is the CI gate
    (:func:`repro.chaos.soak_gate`): it also runs the sabotage self-audit
    and exits non-zero on any failing or flaky cell, a matrix schema
    problem, or a self-audit that cannot fail.
    """
    from repro.chaos import (
        SoakConfig,
        render_matrix,
        run_self_audit,
        run_soak,
        soak_gate,
    )

    config = _with_flags(
        SoakConfig(),
        scenarios=tuple(args.scenarios) if args.scenarios else None,
        seeds=tuple(range(args.seed_base, args.seed_base + args.seeds)),
        repeats=args.repeats,
        chaos=not args.no_chaos,
    )

    def progress(cell):
        verdict = "pass" if cell["ok"] else "FAIL"
        print(
            f"  {verdict}  {cell['scenario']:<7} seed {cell['seed']:<3} "
            f"({cell['duration_s']:.2f}s)"
        )

    doc = run_soak(config, progress=progress)
    if args.smoke:
        doc["self_audit"] = run_self_audit(config.seeds[0])
    if args.out:
        _write_json(args.out, doc, "flake matrix")
    print(render_matrix(doc))
    if not args.smoke:
        return 0
    return _gate_verdict(soak_gate(doc), "soak gate")


def cmd_integrity(args: argparse.Namespace) -> int:
    """ABFT attestation: serve the SDC-defense workload, checks enabled.

    Every batch is verified against per-layer checksum rows with
    noise-calibrated thresholds.  With ``--smoke``, runs the full gate
    instead: zero false trips across a clean seed matrix, bit-identical
    parity with an unchecked run, bit-identical replay, injected
    ``silent_corrupt`` chaos detected and attested (none settles
    unverified), and the escalation → quarantine → scrub → restore arc.
    """
    from repro.chaos.audit import attestation_totals
    from repro.integrity import (
        IntegrityWorkloadConfig,
        integrity_gate,
        run_integrity_workload,
    )

    config = _with_flags(
        IntegrityWorkloadConfig(), seed=args.seed, n_requests=args.requests
    )

    if args.smoke:
        return _gate_verdict(integrity_gate(config), "integrity gate")

    result = run_integrity_workload(config)
    print(result.report.render())
    counters = attestation_totals(result.workers)
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
    from repro.fleet import (
        SCENARIOS,
        fleet_gate,
        run_fleet_workload,
        smoke_chaos_plan,
    )

    scenario = SCENARIOS[args.scenario](args.seed)
    plan = None if args.no_chaos else smoke_chaos_plan(scenario)

    if args.smoke:
        result, run, baseline = fleet_gate(scenario, plan)
        if args.out:
            _write_json(args.out, {
                "scenario": run.as_dict(),
                "baseline": baseline.as_dict(),
                "checks": result.as_dict()["checks"],
            }, "fleet report")
        return _gate_verdict(result, "fleet gate")

    doc = run_fleet_workload(
        scenario, controlled=True, chaos_plan=plan
    ).as_dict()
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
        _write_json(args.out, doc, "fleet report")
    return 0


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

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        return p

    def export_flags(p, out_help):
        p.add_argument("--out", metavar="PATH", default=None, help=out_help)
        p.add_argument("--metrics-out", metavar="PATH", default=None,
                       help="Prometheus dump (default: next to --out)")
        p.add_argument("--events-out", metavar="PATH", default=None,
                       help="structured-event JSONL (default: next to --out)")

    p = command("table", cmd_table, "regenerate a paper table (1-5)")
    p.add_argument("number", type=int, choices=(1, 2, 3, 4, 5))

    p = command("fig", cmd_fig, "regenerate a paper figure (3-6)")
    p.add_argument("number", type=int, choices=(3, 4, 5, 6))

    command("all", cmd_all, "every table and figure")

    command("models", cmd_models, "list the CNN zoo")

    p = command("compare", cmd_compare, "compare all accelerators on a model")
    p.add_argument("model")
    p.add_argument("--budget", type=float, default=30.0)
    p.add_argument("--batch", type=int, default=128)

    p = command("train-plan", cmd_train_plan, "training-time estimate (Table V style)")
    p.add_argument("model")
    p.add_argument("--samples", type=int, default=50_000)
    p.add_argument("--batch", type=int, default=32)

    p = command("link-budget", cmd_link_budget, "optical link budget for a bank")
    p.add_argument("--rows", type=int, default=16)
    p.add_argument("--cols", type=int, default=16)
    p.add_argument("--power-mw", type=float, default=1.0)

    p = command("layers", cmd_layers, "per-layer cost table for a model")
    p.add_argument("model")
    p.add_argument("--arch", default="trident",
                   choices=("trident", "deap-cnn", "crosslight", "pixel"))
    p.add_argument("--batch", type=int, default=128)
    p.add_argument("--top", type=int, default=12)

    command("report", cmd_report, "paper-vs-measured summary for everything")

    p = command("export", cmd_export, "write every table/figure as CSV")
    p.add_argument("--dir", default="artifacts")

    p = command("profile", cmd_profile, "profile one batch vs single-sample batches")
    p.add_argument("--dims", type=int, nargs="+", default=[64, 48, 10])
    p.add_argument("--batch", type=int, default=256)
    p.add_argument("--seed", type=_seed, default=0)

    p = command("faults", cmd_faults, "fault campaign: stuck-cell rate x repair policy")
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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--export", metavar="DIR",
                   help="also write fault_campaign.{csv,json} to DIR")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="persist finished sweep cells for crash-safe resume")
    p.add_argument("--max-cells", type=int, default=None,
                   help="halt after executing this many new cells "
                        "(crash simulation; resume later)")
    p.add_argument("--metrics-out", metavar="PATH",
                   help="collect telemetry and write a Prometheus dump here")

    p = command("endurance", cmd_endurance, "PCM wear-out analysis for a model")
    p.add_argument("model")

    p = command("train", cmd_train, "resilient in-situ training with checkpoints and rollback")
    p.add_argument("--dims", type=int, nargs="+", default=[6, 8, 3])
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--samples", type=int, default=60)
    p.add_argument("--seed", type=_seed, default=0)
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

    p = command("trace", cmd_trace, "run an instrumented workload; export Chrome trace + metrics")
    export_flags(p, "Chrome trace output (default repro_run.trace.json; "
                    "--smoke defaults to a temp dir)")
    p.add_argument("--dims", type=int, nargs="+", default=[6, 8, 3])
    p.add_argument("--steps", type=int, default=12)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--model", default="alexnet",
                   help="model for the cost-model/schedule-sim phase")
    p.add_argument("--smoke", action="store_true",
                   help="small workload + self-audit (CI observability gate)")

    p = command("serve", cmd_serve, "serve a synthetic request workload with fault-aware admission")
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
    p.add_argument("--seed", type=_seed, default=7)
    export_flags(p, "Chrome trace output (--smoke defaults to a temp dir)")
    p.add_argument("--smoke", action="store_true",
                   help="replay + robustness self-audit (CI serving gate)")

    p = command("shard", cmd_shard, "serve one model sharded across a pipeline of accelerators")
    p.add_argument("--requests", type=int, default=None,
                   help="requests in the burst (default 240)")
    p.add_argument("--seed", type=_seed, default=None,
                   help="workload seed (default 11)")
    p.add_argument("--serialized", action="store_true",
                   help="hold the pipeline exclusive per batch (baseline)")
    p.add_argument("--smoke", action="store_true",
                   help="bit-identity + overlap + stage-fault self-audit "
                        "(CI sharding gate)")

    p = command("checkpoint", cmd_checkpoint, "inspect a checkpoint file (schema/kind/hash)")
    p.add_argument("path")

    p = command("resume", cmd_resume, "resume an interrupted fault campaign from its ledger")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="directory holding campaign_cells.jsonl")
    p.add_argument("--smoke", action="store_true",
                   help="self-contained crash-resume verification (CI gate)")
    p.add_argument("--export", metavar="DIR",
                   help="also write fault_campaign.{csv,json} to DIR")

    p = command("soak", cmd_soak, "chaos soak: scenarios x seeds, audited, with a flake matrix")
    p.add_argument(
        "--scenarios", nargs="+", metavar="NAME",
        choices=("serve", "shard", "resume", "train", "fleet", "sdc"),
        help="subset of scenarios (default: all six)",
    )
    p.add_argument("--seeds", type=int, default=4, metavar="N",
                   help="number of seeds to sweep (default 4)")
    p.add_argument("--seed-base", type=_seed, default=0, metavar="S",
                   help="first seed of the sweep (default 0)")
    p.add_argument("--repeats", type=int, default=2, metavar="R",
                   help="runs per cell; digests must agree (default 2)")
    p.add_argument("--no-chaos", action="store_true",
                   help="sweep without injections (baseline variability)")
    p.add_argument("--out", metavar="FILE",
                   help="write the flake matrix JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: also run the sabotage self-audit; exit "
                        "non-zero on any failing or flaky cell, matrix "
                        "schema problem or self-audit miss")

    p = command(
        "integrity", cmd_integrity, "ABFT checksum attestation of served outputs (SDC defense)"
    )
    p.add_argument("--requests", type=int, default=None,
                   help="requests in the run (default 160)")
    p.add_argument("--seed", type=_seed, default=None,
                   help="workload seed (default 7)")
    p.add_argument("--smoke", action="store_true",
                   help="clean-matrix / parity / replay / injected-SDC / "
                        "escalation self-audit (CI integrity gate)")

    p = command("fleet", cmd_fleet, "closed-loop fleet control plane on a diurnal + burst trace")
    p.add_argument(
        "--scenario", choices=("smoke", "standard", "large"), default="smoke",
        help="fleet scenario preset (default smoke)",
    )
    p.add_argument("--seed", type=_seed, default=11, help="workload seed")
    p.add_argument("--no-chaos", action="store_true",
                   help="skip the mid-peak breaker-storm volley")
    p.add_argument("--out", metavar="FILE",
                   help="write the run report JSON here")
    p.add_argument("--smoke", action="store_true",
                   help="CI gate: controlled run + replay + static baseline, "
                        "pass/fail contract checks")

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

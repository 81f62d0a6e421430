"""The soak harness behind ``repro soak``: scenario × seed × chaos.

One soak **cell** is a (scenario, seed) pair.  Each cell is executed
``repeats`` times from scratch; a cell passes only when every repeat's
post-mortem audit passes *and* every repeat produced the same run digest
(decision log + output bytes) — so both outright invariant violations
and nondeterminism show up as failures, and intermittent ones show up
as flake.  Scenarios:

- ``serve``  — the multi-worker Poisson workload under a compiled
  chaos plan (crashes, output corruption, stuck bursts, drift, breaker
  storms, clock jitter), audited by :func:`repro.chaos.audit.audit_serve_run`
  including a full bit-identical replay.
- ``shard``  — the pipeline worker under stage-targeted chaos, with the
  single-accelerator reference oracle asserting that no chaos run ever
  completed a request with non-reference output bytes.
- ``resume`` — a fault campaign halted mid-sweep whose JSONL ledger
  tail is torn by chaos; the resumed report must be complete and
  bit-identical to an uninterrupted baseline.
- ``train``  — a resilient training run crashed mid-way whose newest
  checkpoint is bit-flipped by chaos; recovery must skip the corrupt
  file (emitting ``checkpoint_corrupt_skipped``), fall back to the
  previous snapshot, and still finish bit-identical to an
  uninterrupted baseline.
- ``fleet``  — the closed-loop control plane under a diurnal + burst
  multi-tenant trace with a breaker-storm volley mid-peak and a worker
  crash, audited by :func:`repro.chaos.audit.audit_fleet_run`: request
  conservation, recovery to nominal (degraded-ladder entries == exits),
  exactly the decommissioned workers checkpointed, a stopped
  controller, and a bit-identical replay.
- ``sdc``    — the ABFT-attested serving fleet under ``silent_corrupt``
  chaos (finite corruption the non-finite gate cannot see): every
  injection must land, trip the checksum attestation, and show up
  attested in the audit; the chaos-off run of the same cell is the
  false-positive gate (zero trips).

The four serving cells build their runs through the scenario runners
(the same ones the ``--smoke`` gates use) and share one
run-twice-and-audit step (:func:`_audited_cell`); the ``train`` cell
trains through :func:`repro.scenarios.run_train`, the scenario behind
``repro train``.  The result is a JSON
**flake matrix** (:func:`run_soak`): per-cell verdicts, failed checks,
applied-injection counts, and — for failing cells — a telemetry
snapshot from an instrumented re-run.  :func:`soak_gate` is the ``repro
soak --smoke`` verdict on that matrix; :func:`run_self_audit` proves the
gate *can* fail by running a cell with a deliberately unhandled sabotage
injection and requiring the harness to flag it.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np

from repro import telemetry
from repro.chaos.session import session as chaos_scope
from repro.chaos.audit import AuditResult, audit_fleet_run, audit_serve_run, run_digest
from repro.chaos.injectors import apply_file_injection
from repro.chaos.plan import ChaosPlan, ChaosProfile, Injection, compile_plan
from repro.errors import ChaosError

#: Flake-matrix document schema (bump on incompatible change).
MATRIX_SCHEMA = 1

#: Scenario execution order (also the default sweep).
SCENARIO_NAMES = ("serve", "shard", "resume", "train", "fleet", "sdc")

#: Events kept in a failing cell's telemetry snapshot.
_SNAPSHOT_EVENTS = 25


@dataclasses.dataclass(frozen=True)
class SoakConfig:
    """Shape of one soak sweep."""

    scenarios: tuple[str, ...] = SCENARIO_NAMES
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    repeats: int = 2
    chaos: bool = True

    def __post_init__(self) -> None:
        unknown = [s for s in self.scenarios if s not in SCENARIO_NAMES]
        if unknown:
            raise ChaosError(
                f"unknown soak scenarios {unknown}; available: "
                f"{list(SCENARIO_NAMES)}"
            )
        if not self.scenarios:
            raise ChaosError("soak needs at least one scenario")
        if not self.seeds:
            raise ChaosError("soak needs at least one seed")
        if self.repeats < 1:
            raise ChaosError(f"repeats must be >= 1, got {self.repeats}")


def _chaos_seed(seed: int) -> int:
    # Distinct from the workload seed so the two sweeps are independent.
    return 10_000 + int(seed)


def _digest(doc, arrays=()) -> str:
    """SHA-256 over a JSON-able document plus raw array bytes."""
    h = hashlib.sha256()
    h.update(json.dumps(doc, sort_keys=True, default=str).encode("utf-8"))
    for array in arrays:
        h.update(np.ascontiguousarray(np.asarray(array)).tobytes())
    return h.hexdigest()


def _audited_cell(execute, audit=audit_serve_run, scenario_checks=None):
    """One serving cell: run ``execute()`` twice from scratch, audit the
    first run against the replay, and require both runs to have applied
    the same injections.  ``scenario_checks(result, run)`` records the
    scenario's own checks into the same audit."""
    run, replay = execute(), execute()
    result = audit(run, replay=replay)
    if run.session is not None and run.session.applied != replay.session.applied:
        result.record(
            "chaos_replay", False, "applied injections differ between runs"
        )
    if scenario_checks is not None:
        scenario_checks(result, run)
    report = run.report
    return {
        "ok": result.ok,
        "failed": result.failed(),
        "digest": run_digest(report),
        "applied": {} if run.session is None else run.session.applied_counts(),
        "detail": {
            "submitted": report.submitted,
            "completed": len(report.completed),
            "shed": report.shed_by_reason(),
            "retries": report.retries_scheduled,
            "audit": {name: detail for name, _, detail in result.checks},
        },
    }


# ---------------------------------------------------------------------------
# serve scenario
# ---------------------------------------------------------------------------
def _serve_workload_config(seed: int):
    from repro.serving.workload import WorkloadConfig, three_phases

    base = WorkloadConfig()
    return dataclasses.replace(
        base,
        seed=int(seed),
        phases=three_phases(80),
        # The chaos plan is the only fault source here.
        degrade_fraction=0.0,
        server=dataclasses.replace(base.server, seed=int(seed)),
    )


def _serve_run(seed: int, chaos_enabled: bool, sabotage: bool = False):
    """One serve-cell run.  Its chaos plan is sized to the arrival span;
    ``sabotage`` adds a deliberately unhandled injection mid-run."""
    from repro.serving.workload import run_serve_workload

    config = _serve_workload_config(seed)

    def plan(window_s):
        """Chaos-plan factory: size the plan to the arrival span."""
        compiled = compile_plan(
            ChaosProfile(
                window_s=window_s,
                workers=tuple(range(config.n_workers)),
                crashes=2,
                corruptions=1,
                stuck_bursts=1,
                drift_bursts=1,
                breaker_storms=1,
                stuck_fraction=0.05,
                stuck_level=254,
                clock_jitter_s=1e-8,
            ),
            _chaos_seed(seed),
        )
        if not sabotage:
            return compiled
        return ChaosPlan(
            seed=compiled.seed,
            injections=compiled.injections
            + (
                Injection(
                    0.5 * window_s,
                    "sabotage",
                    None,
                    {"note": "soak self-audit: intentionally unhandled fault"},
                ),
            ),
            clock_jitter_s=compiled.clock_jitter_s,
        )

    return run_serve_workload(
        config, chaos_plan=plan if chaos_enabled else None
    )


def _run_serve(seed: int, chaos_enabled: bool, sabotage: bool = False) -> dict:
    return _audited_cell(lambda: _serve_run(seed, chaos_enabled, sabotage))


# ---------------------------------------------------------------------------
# shard scenario
# ---------------------------------------------------------------------------
def _shard_workload_config(seed: int):
    from repro.serving.shard_workload import ShardWorkloadConfig

    base = ShardWorkloadConfig()
    return dataclasses.replace(
        base,
        seed=int(seed),
        n_requests=64,
        server=dataclasses.replace(base.server, seed=int(seed)),
    )


def _run_shard(seed: int, chaos_enabled: bool) -> dict:
    from repro.serving.shard_workload import (
        outputs_bit_identical,
        plan_workload,
        run_shard_workload,
    )

    config = _shard_workload_config(seed)
    plan = None
    if chaos_enabled:
        plan = compile_plan(
            ChaosProfile(
                window_s=config.arrival_window_s * 2.0,
                workers=(0,),
                stages=tuple(range(plan_workload(config).n_stages)),
                crashes=1,
                corruptions=1,
                stuck_bursts=1,
                drift_bursts=0,
                breaker_storms=1,
                stuck_fraction=0.04,
                stuck_level=254,
                clock_jitter_s=1e-8,
            ),
            _chaos_seed(seed),
        )

    def reference_oracle(result, run):
        result.record(
            "reference_oracle_outputs",
            outputs_bit_identical(config, run.report),
            "completed outputs vs the single-accelerator reference",
        )

    return _audited_cell(
        lambda: run_shard_workload(config, chaos_plan=plan),
        scenario_checks=reference_oracle,
    )


# ---------------------------------------------------------------------------
# resume scenario (torn campaign ledger)
# ---------------------------------------------------------------------------
def _run_resume(seed: int, chaos_enabled: bool) -> dict:
    from repro.faults.campaign import (
        CampaignConfig,
        resume_campaign,
        run_campaign,
    )

    config = dataclasses.replace(CampaignConfig.smoke(), seed=int(seed))
    baseline = run_campaign(config)
    failed: list[str] = []
    applied: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="repro-soak-resume-") as tmp:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_campaign(config, checkpoint_dir=tmp, max_cells=2)
            ledger = Path(tmp) / "campaign_cells.jsonl"
            if not ledger.exists():
                failed.append("campaign_ledger_missing")
            torn = 0
            if chaos_enabled and ledger.exists():
                plan = ChaosPlan(
                    seed=_chaos_seed(seed),
                    injections=(Injection(0.0, "ledger_tear"),),
                )
                with chaos_scope(plan) as session:
                    torn = apply_file_injection(
                        session, 0, plan.injections[0], ledger
                    )
                applied = session.applied_counts()
                if torn <= 0:
                    failed.append("ledger_tear: no bytes torn")
            resumed = resume_campaign(tmp)
    if not resumed.complete:
        failed.append("resume_incomplete: cells missing after resume")
    if resumed.clean_accuracy != baseline.clean_accuracy:
        failed.append("clean_accuracy_drift")
    def sorted_rows(report):
        rows = (row.as_dict() for row in report.rows)
        return sorted(rows, key=lambda d: (d["fraction"], d["policy"], d["trial"]))

    base_rows, resumed_rows = sorted_rows(baseline), sorted_rows(resumed)
    if base_rows != resumed_rows:
        failed.append(
            "resume_divergence: resumed rows differ from uninterrupted baseline"
        )
    return {
        "ok": not failed,
        "failed": failed,
        "digest": _digest({"rows": resumed_rows, "clean": resumed.clean_accuracy}),
        "applied": applied,
        "detail": {"cells": len(resumed.rows), "torn": bool(chaos_enabled)},
    }


# ---------------------------------------------------------------------------
# train scenario (bit-rotted checkpoint)
# ---------------------------------------------------------------------------
def _run_train(seed: int, chaos_enabled: bool) -> dict:
    from repro.runtime.checkpoint import CheckpointStore
    from repro.scenarios import run_train

    train = functools.partial(run_train, steps=8, samples=48, seed=seed, checkpoint_every=2)
    failed: list[str] = []
    applied: dict[str, int] = {}
    with tempfile.TemporaryDirectory(prefix="repro-soak-train-base-") as base:
        baseline = train(checkpoint_dir=base).report
    with tempfile.TemporaryDirectory(prefix="repro-soak-train-") as tmp:
        train(checkpoint_dir=tmp, max_steps=5)
        store = CheckpointStore(tmp)
        steps_on_disk = store.steps()
        if len(steps_on_disk) < 2:
            failed.append(
                f"train_setup: need >= 2 checkpoints before corruption, "
                f"got {steps_on_disk}"
            )
        if chaos_enabled and steps_on_disk:
            newest = store.path_for(steps_on_disk[-1])
            plan = ChaosPlan(
                seed=_chaos_seed(seed),
                injections=(Injection(0.0, "checkpoint_corrupt"),),
            )
            with chaos_scope(plan) as session:
                apply_file_injection(session, 0, plan.injections[0], newest)
            applied = session.applied_counts()
        with telemetry.session() as t, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            resumed = train(checkpoint_dir=tmp, resume=True).report
        skip_events = t.events.of_kind("checkpoint_corrupt_skipped")
    if not resumed.completed:
        failed.append(f"resume_aborted: {resumed.aborted_reason}")
    if chaos_enabled:
        if not skip_events:
            failed.append(
                "corrupt_skip_unobserved: no checkpoint_corrupt_skipped event"
            )
        if (
            steps_on_disk
            and resumed.resumed_from_step is not None
            and resumed.resumed_from_step >= steps_on_disk[-1]
        ):
            failed.append(
                "corrupt_not_skipped: resume used the bit-flipped checkpoint"
            )
    if resumed.losses != baseline.losses:
        failed.append(
            "train_divergence: resumed losses differ from uninterrupted baseline"
        )
    return {
        "ok": not failed,
        "failed": failed,
        "digest": _digest(
            {"final_loss": repr(baseline.final_loss)},
            arrays=[np.asarray(resumed.losses)],
        ),
        "applied": applied,
        "detail": {
            "resumed_from_step": resumed.resumed_from_step,
            "rollbacks": resumed.rollbacks,
            "corrupt_skips": len(skip_events),
        },
    }


# ---------------------------------------------------------------------------
# fleet scenario
# ---------------------------------------------------------------------------
def _fleet_scenario(seed: int):
    """A shrunk fleet run (soak cells must stay cheap): same shape as the
    smoke scenario — diurnal + burst + storm volley — at ~40% the horizon."""
    from repro.fleet import Burst, smoke_scenario

    base = smoke_scenario(int(seed))
    duration = 4e-4
    trace = dataclasses.replace(
        base.trace,
        duration_s=duration,
        base_rate_x=1.2,
        bursts=(Burst(0.38 * duration, 0.08 * duration, 1.7),),
    )
    return dataclasses.replace(base, name="soak-fleet", trace=trace)


def _fleet_plan(scenario):
    """Smoke's mid-peak breaker-storm volley plus one targeted crash on a
    bootstrap worker (ids 0/1 are floor workers and never decommission)."""
    from repro.fleet import smoke_chaos_plan

    plan = smoke_chaos_plan(scenario)
    crash = Injection(
        0.25 * scenario.trace.duration_s,
        "worker_crash",
        0,
        {"phase": "dispatch"},
    )
    return ChaosPlan(
        seed=plan.seed, injections=plan.injections + (crash,)
    )


def _fleet_run(seed: int, chaos_enabled: bool):
    from repro.fleet import run_fleet_workload

    scenario = _fleet_scenario(seed)
    plan = _fleet_plan(scenario) if chaos_enabled else None
    return run_fleet_workload(scenario, controlled=True, chaos_plan=plan)


def _run_fleet(seed: int, chaos_enabled: bool) -> dict:
    """Gate: conservation + recovery-to-nominal + bit-identical replay.

    Storm/crash times here are fixed fractions of the horizon, but the
    *trace* varies per seed, so degraded-mode depth and scaling activity
    vary by cell — the audit gates on the always-true contracts (ladder
    entries == exits ending nominal, exactly the decommissioned workers
    checkpointed, a stopped controller, conservation, replay), not on
    smoke's exact-episode counts.
    """
    return _audited_cell(
        lambda: _fleet_run(seed, chaos_enabled), audit=audit_fleet_run
    )


# ---------------------------------------------------------------------------
# sdc scenario (ABFT attestation under silent corruption)
# ---------------------------------------------------------------------------
def _sdc_workload_config(seed: int):
    from repro.integrity import IntegrityWorkloadConfig

    # Shrunk request count: soak cells must stay cheap, and the
    # attestation arc needs batches, not queue pressure.
    return dataclasses.replace(
        IntegrityWorkloadConfig(), seed=int(seed), n_requests=96
    )


def _run_sdc(seed: int, chaos_enabled: bool) -> dict:
    """Gate: injections land + trip + attest, zero trips when clean.

    The heavy invariants (conservation, ladder-counter accounting,
    ``sdc_attested``, bit-identical replay) come from
    :func:`~repro.chaos.audit.audit_serve_run`'s integrity section; the
    checks added here are the scenario-specific ones — that the chaos
    actually exercised the defense.
    """
    from repro.integrity import make_sdc_plan, run_integrity_workload
    from repro.integrity.workload import record_sdc_checks

    config = _sdc_workload_config(seed)
    plan = functools.partial(make_sdc_plan, config) if chaos_enabled else None
    return _audited_cell(
        lambda: run_integrity_workload(config, chaos_plan=plan),
        scenario_checks=lambda result, run: record_sdc_checks(
            result, config, run
        ),
    )


_SCENARIOS = {
    "serve": _run_serve,
    "shard": _run_shard,
    "resume": _run_resume,
    "train": _run_train,
    "fleet": _run_fleet,
    "sdc": _run_sdc,
}


# ---------------------------------------------------------------------------
# Cell driver + matrix
# ---------------------------------------------------------------------------
def _guarded(scenario: str, seed: int, chaos_enabled: bool, **kwargs) -> dict:
    """Run one scenario attempt; an escaped exception is a failed run."""
    try:
        return _SCENARIOS[scenario](seed, chaos_enabled, **kwargs)
    except Exception as exc:  # noqa: BLE001 - any escape is the finding
        return {
            "ok": False,
            "failed": [f"unhandled {type(exc).__name__}: {exc}"],
            "digest": "",
            "applied": {},
            "detail": {},
        }


def _telemetry_snapshot(scenario: str, seed: int, chaos_enabled: bool) -> dict:
    """Instrumented re-run of a failing cell: recent events for the matrix."""
    with telemetry.session() as t:
        rerun = _guarded(scenario, seed, chaos_enabled)
    events = [e.as_dict() for e in t.events.records[-_SNAPSHOT_EVENTS:]]
    return {"failed": rerun["failed"], "events": events}


def run_cell(
    scenario: str, seed: int, repeats: int, chaos_enabled: bool
) -> dict:
    """Execute one (scenario, seed) cell ``repeats`` times and verdict it."""
    start = time.perf_counter()
    runs = [_guarded(scenario, seed, chaos_enabled) for _ in range(repeats)]
    digests = {run["digest"] for run in runs}
    failed = sorted({f for run in runs for f in run["failed"]})
    if len(digests) > 1:
        failed.append(
            f"nondeterministic: {len(digests)} distinct digests over "
            f"{repeats} repeats"
        )
    ok = all(run["ok"] for run in runs) and len(digests) == 1
    cell = {
        "scenario": scenario,
        "seed": int(seed),
        "ok": ok,
        "repeats": repeats,
        "digest": sorted(digests)[0] if len(digests) == 1 else "",
        "failed_checks": failed,
        "injections_applied": runs[0]["applied"],
        "detail": runs[0]["detail"],
        "duration_s": time.perf_counter() - start,
        "telemetry": None,
    }
    if not ok:
        cell["telemetry"] = _telemetry_snapshot(scenario, seed, chaos_enabled)
    return cell


def run_soak(config: SoakConfig | None = None, progress=None) -> dict:
    """Run the full sweep; returns the flake-matrix document."""
    config = config or SoakConfig()
    cells = []
    for scenario in config.scenarios:
        for seed in config.seeds:
            cell = run_cell(scenario, seed, config.repeats, config.chaos)
            cells.append(cell)
            if progress is not None:
                progress(cell)
    return {
        "schema": MATRIX_SCHEMA,
        "chaos": bool(config.chaos),
        "repeats": int(config.repeats),
        "scenarios": list(config.scenarios),
        "seeds": [int(s) for s in config.seeds],
        "cells": cells,
        "flaky": any(not cell["ok"] for cell in cells),
    }


def run_self_audit(seed: int = 0) -> dict:
    """Prove the harness can fail: a sabotaged cell must be flagged.

    Runs the serve scenario with an extra deliberately unhandled
    injection; the gate is only trustworthy if this cell comes back
    failing (with the sabotage named in its checks).
    """
    outcome = _guarded("serve", seed, True, sabotage=True)
    detected = not outcome["ok"] and any(
        "unhandled" in f.lower() or "sabotage" in f.lower()
        for f in outcome["failed"]
    )
    return {
        "ok": detected,
        "sabotaged_cell_failed": not outcome["ok"],
        "failed_checks": outcome["failed"],
    }


def soak_gate(doc: dict) -> AuditResult:
    """The ``repro soak --smoke`` verdict on a flake matrix that carries
    its ``self_audit``: every cell passes, the matrix schema holds, and
    the self-audit flagged the sabotaged cell."""
    result = AuditResult()
    passed = sum(cell["ok"] for cell in doc["cells"])
    result.record(
        "soak_cells_pass",
        not doc["flaky"],
        f"{passed}/{len(doc['cells'])} cells pass",
    )
    problems = validate_matrix(doc)
    result.record("matrix_schema_valid", not problems, "; ".join(problems))
    result.record(
        "self_audit_flags_sabotage",
        doc["self_audit"]["ok"],
        "; ".join(doc["self_audit"]["failed_checks"]),
    )
    return result


# ---------------------------------------------------------------------------
# Matrix schema + rendering
# ---------------------------------------------------------------------------
def validate_matrix(doc: dict) -> list[str]:
    """Structural self-check of a flake matrix; returns problems found."""
    problems: list[str] = []
    for key in ("schema", "chaos", "repeats", "scenarios", "seeds", "cells",
                "flaky"):
        if key not in doc:
            problems.append(f"missing key {key!r}")
    if problems:
        return problems
    if doc["schema"] != MATRIX_SCHEMA:
        problems.append(f"schema {doc['schema']!r} != {MATRIX_SCHEMA}")
    expected = {
        (scenario, int(seed))
        for scenario in doc["scenarios"]
        for seed in doc["seeds"]
    }
    got = {(cell.get("scenario"), cell.get("seed")) for cell in doc["cells"]}
    if expected != got:
        problems.append(
            f"cell coverage mismatch: missing {sorted(expected - got)}, "
            f"extra {sorted(got - expected)}"
        )
    for cell in doc["cells"]:
        where = f"cell {cell.get('scenario')}/{cell.get('seed')}"
        for key in ("ok", "repeats", "digest", "failed_checks",
                    "injections_applied", "duration_s", "telemetry"):
            if key not in cell:
                problems.append(f"{where}: missing {key!r}")
        if cell.get("ok") is False and not cell.get("failed_checks"):
            problems.append(f"{where}: failed without naming a check")
        if cell.get("ok") is True and not cell.get("digest"):
            problems.append(f"{where}: passed without a run digest")
    if doc["flaky"] != any(not cell["ok"] for cell in doc["cells"]):
        problems.append("flaky flag disagrees with cell verdicts")
    try:
        json.dumps(doc)
    except (TypeError, ValueError) as exc:
        problems.append(f"matrix is not JSON-serializable: {exc}")
    return problems


def render_matrix(doc: dict) -> str:
    """Console table: scenarios × seeds, plus failed-check detail lines."""
    from repro.eval.formatting import format_table

    by_key = {
        (cell["scenario"], cell["seed"]): cell for cell in doc["cells"]
    }
    rows = []
    for scenario in doc["scenarios"]:
        row = [scenario]
        for seed in doc["seeds"]:
            cell = by_key[(scenario, seed)]
            row.append("pass" if cell["ok"] else "FAIL")
        rows.append(row)
    title = (
        f"soak matrix (chaos {'on' if doc['chaos'] else 'off'}, "
        f"{doc['repeats']} repeats/cell)"
    )
    text = format_table(
        ["scenario"] + [f"seed {s}" for s in doc["seeds"]], rows, title=title
    )
    failing = [cell for cell in doc["cells"] if not cell["ok"]]
    for cell in failing:
        text += (
            f"\nFAIL {cell['scenario']} seed {cell['seed']}: "
            + "; ".join(cell["failed_checks"])
        )
    return text

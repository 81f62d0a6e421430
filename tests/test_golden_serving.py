"""Golden ledgers: pinned seeded replays of five benchmark workloads and
the observability gate.

Drives smoke-size workloads of the repo benchmark (``benchmarks/suite/
workloads.py``, loaded read-only) at seed 0 and compares each run with a
ledger in ``tests/golden/``.  ``serving.json`` pins ``serve-burst``,
``shard-pipeline`` and ``fleet-diurnal``:

- portable fields, checked on every machine: the request counts, shed
  counts by reason, scheduled retries and the sha256 of the decision log;
- the full serving digest (decision log, every output's bits and the
  chips' event counters), checked only where the recorded machine
  fingerprint matches, because output bits pass through BLAS kernels that
  may round differently elsewhere.  The fingerprint holds what decides
  output bits: the Python and NumPy versions, the machine architecture,
  the CPU model and the BLAS build; the operating-system kernel release
  is left out.

``chip.json`` pins the two chip workloads, ``infer-tiled`` (4 batched
forwards) and ``train-insitu`` (20 training steps):

- portable fields: the schedule counters ``symbols``, ``bank_writes`` and
  ``mode_switches`` after build plus ops;
- on the recorded fingerprint only: the digest of every op's output (or
  loss), ``cells_written``, ``activation_events`` and the modeled energy
  and time the ops charged — all of them follow the noisy arithmetic.

``paper.json`` pins one ``paper-repro`` collect: the comparison count
everywhere; the digest of the results text and ``paper_max_rel_err`` on
the recorded fingerprint only.

``trace.json`` pins the observability gate, ``repro trace --smoke``, run
in-process (the trace scenario) and read back from its three artifacts:

- portable fields: the sorted metric sample keys, every integer-valued
  sample, the event kinds in order and, per span name, the span count
  and the summed hardware-event deltas;
- on the recorded fingerprint only: the non-integer samples (modeled
  energy and time, the power gauge, the loss sum).

``gates.json`` pins four more CLI scenarios, each run in-process at its
defaults: ``repro faults --smoke``, ``repro resume --smoke``, ``repro
train --inject-nan-step 3`` and the soak ``train`` cells at seeds 0-3
with chaos on:

- portable fields: counts, verdicts, failed-check lists and applied
  injections;
- on the recorded fingerprint only: the losses and the digests.

Each workload is built and run twice in one process, so state leaking
from one build into the next fails the test too.

Regenerate the five ledgers (and print what moved) after an intended change:

    PYTHONPATH=src python tests/test_golden_serving.py
"""

from __future__ import annotations

import difflib
import functools
import hashlib
import importlib.util
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "serving.json"
CHIP_GOLDEN = GOLDEN.with_name("chip.json")
PAPER_GOLDEN = GOLDEN.with_name("paper.json")
TRACE_GOLDEN = GOLDEN.with_name("trace.json")
GATES_GOLDEN = GOLDEN.with_name("gates.json")
WORKLOADS = ("serve-burst", "shard-pipeline", "fleet-diurnal")
#: Chip workload -> ops replayed (the smoke size's check window).
CHIP_OPS = {"infer-tiled": 4, "train-insitu": 20}
SEED = 0
#: Soak ``train`` cells pinned (chaos on, the soak's two repeats each).
SOAK_TRAIN_SEEDS = (0, 1, 2, 3)


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "benchmarks" / "suite" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def _cpu_model() -> str:
    """The CPU model name (BLAS picks its kernels by CPU)."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def fingerprint() -> dict:
    """What the full (output-bit) digest is allowed to depend on."""
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu": _cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _hex(data: bytes) -> str:
    return data.hex()[:16]


def record(bench, name: str) -> dict:
    """Serve one smoke-size workload at :data:`SEED`; its ledger entry."""
    workload = bench.WORKLOADS[name](smoke=True)
    ctx = workload.build(SEED)
    report = workload.op(ctx, 0)
    result = workload.inspect(ctx, 0, report)
    decisions = json.dumps(report.decisions, sort_keys=True, default=repr)
    return {
        "portable": {
            "submitted": report.submitted,
            "completed": len(report.completed),
            "shed": dict(sorted(report.shed_by_reason().items())),
            "retries_scheduled": report.retries_scheduled,
            "decisions_sha256": _hex(
                hashlib.sha256(decisions.encode()).digest()
            ),
        },
        # As ``run.py --smoke`` prints it: sha256 of the one op's digest.
        "serve_digest": _hex(hashlib.sha256(result.digest).digest()),
    }


def record_chip(bench, name: str) -> dict:
    """Run one smoke-size chip workload's ops at :data:`SEED`."""
    workload = bench.WORKLOADS[name](smoke=True)
    ctx = workload.build(SEED)
    digest = hashlib.sha256()
    modeled_j = modeled_s = 0.0
    for index in range(CHIP_OPS[name]):
        result = workload.inspect(ctx, index, workload.op(ctx, index))
        digest.update(result.digest)
        modeled_j += result.modeled_j
        modeled_s += result.modeled_s
    counters = ctx.acc.counters
    return {
        "portable": {
            "symbols": counters.symbols,
            "bank_writes": counters.bank_writes,
            "mode_switches": counters.mode_switches,
        },
        "machine": {
            "ops_digest": _hex(digest.digest()),
            "cells_written": counters.cells_written,
            "activation_events": counters.activation_events,
            "modeled_j": repr(modeled_j),
            "modeled_s": repr(modeled_s),
        },
    }


def record_paper(bench, name: str) -> dict:
    """Run one ``paper-repro`` collect."""
    workload = bench.WORKLOADS[name]()
    raw = workload.op(workload.build(SEED), 0)
    result = workload.inspect(None, 0, raw)
    return {
        "portable": {"comparisons": len(raw.results)},
        "machine": {
            "results_digest": _hex(hashlib.sha256(result.digest).digest()),
            "paper_max_rel_err": repr(result.sim["paper_max_rel_err"]),
        },
    }


def record_trace(_bench, name: str) -> dict:
    """Run the ``repro trace --smoke`` scenario at :data:`SEED` and read
    its artifacts back."""
    from repro.scenarios import run_trace, trace_gate
    from repro.telemetry import parse_prometheus_text

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.trace.json"
        run = run_trace(steps=6, seed=SEED, out=out)
        assert trace_gate(run).ok, f"{name} gate failed"
        events = json.loads(out.read_text())["traceEvents"]
        samples = parse_prometheus_text(
            out.with_name("run.metrics.prom").read_text()
        )
        kinds = [
            json.loads(line)["kind"]
            for line in out.with_name("run.events.jsonl").read_text().splitlines()
        ]
    spans: dict = {}
    for event in events:
        row = spans.setdefault(event["name"], {"spans": 0})
        row["spans"] += 1
        for key, value in event["args"].get("counters", {}).items():
            row[key] = row.get(key, 0) + value
    integral = {k: int(v) for k, v in samples.items() if float(v).is_integer()}
    return {
        "portable": {
            "sample_keys": sorted(samples),
            "integer_samples": integral,
            "event_kinds": kinds,
            "spans": spans,
        },
        "machine": {
            "other_samples": {
                k: repr(v) for k, v in samples.items() if k not in integral
            },
        },
    }


def _doc_digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, default=repr)
    return _hex(hashlib.sha256(text.encode()).digest())


def campaign_entry(report) -> dict:
    """A fault campaign's ledger entry: sweep cells and repair counts
    everywhere, the accuracies and losses by digest."""
    rows = [row.as_dict() for row in report.rows]
    counts = ("n_stuck", "retries", "row_remaps", "migrations", "tiles_unrepaired")
    return {
        "portable": {
            "complete": report.complete,
            "parity_ok": report.parity_ok,
            "cells": [
                [row["fraction"], row["policy"], row["trial"]]
                + [row[key] for key in counts]
                for row in rows
            ],
        },
        "machine": {
            "rows_digest": _doc_digest(
                {"clean": report.clean_accuracy, "rows": rows}
            ),
        },
    }


def resume_entry(baseline, partial, resumed, ok: bool, failed: list) -> dict:
    """The crash-resume check: the resumed campaign plus the verdict."""
    entry = campaign_entry(resumed)
    entry["portable"].update(
        ok=ok,
        failed=failed,
        halted_cells=len(partial.rows),
        baseline_cells=len(baseline.rows),
    )
    return entry


def train_entry(report, ok: bool, failed: list) -> dict:
    """A resilient training run: the step, rollback and checkpoint
    ledger everywhere, the losses on the recorded machine."""
    return {
        "portable": {
            "ok": ok,
            "failed": failed,
            "completed": report.completed,
            "steps_completed": report.steps_completed,
            "total_steps": report.total_steps,
            "rollbacks": report.rollbacks,
            "checkpoints_written": report.checkpoints_written,
            "resumed_from_step": report.resumed_from_step,
            "final_lr": report.final_lr,
            "incidents": [
                [i.step, i.reason, i.restored_step, i.lr_after]
                for i in report.incidents
            ],
        },
        "machine": {"losses": [repr(loss) for loss in report.losses]},
    }


def cell_entry(cell: dict) -> dict:
    """One soak cell: its verdict, checks and injections everywhere."""
    keys = ("ok", "repeats", "failed_checks", "injections_applied", "detail")
    return {
        "portable": {key: cell[key] for key in keys},
        "machine": {"digest": cell["digest"][:16]},
    }


def _record_faults() -> dict:
    from repro.faults import CampaignConfig, run_campaign

    return campaign_entry(run_campaign(CampaignConfig.smoke()))


def _record_resume() -> dict:
    from repro.faults.campaign import resume_gate, run_resume_check

    check = run_resume_check()
    result = resume_gate(check)
    return resume_entry(
        check.baseline, check.partial, check.resumed, result.ok, result.failed()
    )


def _record_train() -> dict:
    from repro.scenarios import run_train, train_gate

    with tempfile.TemporaryDirectory() as tmp:
        run = run_train(inject_nan_step=3, checkpoint_dir=tmp)
    result = train_gate(run)
    return train_entry(run.report, result.ok, result.failed())


def _record_soak_train(seed: int) -> dict:
    from repro.chaos.soak import run_cell

    return cell_entry(run_cell("train", seed, 2, True))


#: Gate ledger entry -> its in-process scenario run.
GATE_RECORDERS = {
    "faults-smoke": _record_faults,
    "resume-smoke": _record_resume,
    "train-nan": _record_train,
    **{
        f"soak-train-{seed}": functools.partial(_record_soak_train, seed)
        for seed in SOAK_TRAIN_SEEDS
    },
}


def record_gate(_bench, name: str) -> dict:
    """Run one pinned CLI scenario in-process."""
    return GATE_RECORDERS[name]()


def ledger(bench, recorder, names) -> dict:
    return {
        "fingerprint": fingerprint(),
        "workloads": {name: recorder(bench, name) for name in names},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def chip_golden():
    return json.loads(CHIP_GOLDEN.read_text())


@pytest.fixture(scope="module")
def paper_golden():
    return json.loads(PAPER_GOLDEN.read_text())


@pytest.fixture(scope="module")
def trace_golden():
    return json.loads(TRACE_GOLDEN.read_text())


@pytest.fixture(scope="module")
def gates_golden():
    return json.loads(GATES_GOLDEN.read_text())


@pytest.fixture(scope="module")
def bench():
    return _load_workloads()


@pytest.mark.parametrize("name", WORKLOADS)
def test_serving_ledger_replays(golden, bench, name):
    expected = golden["workloads"][name]
    same_machine = golden["fingerprint"] == fingerprint()
    for _ in range(2):
        got = record(bench, name)
        assert got["portable"] == expected["portable"]
        if same_machine:
            assert got["serve_digest"] == expected["serve_digest"]


@pytest.mark.parametrize("name", sorted(CHIP_OPS))
def test_chip_ledger_replays(chip_golden, bench, name):
    expected = chip_golden["workloads"][name]
    same_machine = chip_golden["fingerprint"] == fingerprint()
    for _ in range(2):
        got = record_chip(bench, name)
        assert got["portable"] == expected["portable"]
        if same_machine:
            assert got["machine"] == expected["machine"]


def test_paper_ledger_replays(paper_golden, bench):
    expected = paper_golden["workloads"]["paper-repro"]
    same_machine = paper_golden["fingerprint"] == fingerprint()
    for _ in range(2):
        got = record_paper(bench, "paper-repro")
        assert got["portable"] == expected["portable"]
        if same_machine:
            assert got["machine"] == expected["machine"]


def test_trace_ledger_replays(trace_golden):
    expected = trace_golden["workloads"]["trace-smoke"]
    same_machine = trace_golden["fingerprint"] == fingerprint()
    for _ in range(2):
        got = record_trace(None, "trace-smoke")
        assert got["portable"] == expected["portable"]
        if same_machine:
            assert got["machine"] == expected["machine"]


@pytest.mark.parametrize("name", sorted(GATE_RECORDERS))
def test_gate_ledger_replays(gates_golden, name):
    expected = gates_golden["workloads"][name]
    same_machine = gates_golden["fingerprint"] == fingerprint()
    for _ in range(2):
        got = record_gate(None, name)
        assert got["portable"] == expected["portable"]
        if same_machine:
            assert got["machine"] == expected["machine"]


def test_fingerprint_ignores_kernel_release(monkeypatch):
    before = fingerprint()
    monkeypatch.setattr(platform, "platform", lambda *a, **k: "Linux-0.0-other-x86_64")
    monkeypatch.setattr(platform, "release", lambda: "0.0-other")
    assert fingerprint() == before


def regenerate(path: Path, new: dict) -> None:
    """Write one ledger and print its diff against the previous one."""
    old = json.loads(path.read_text()) if path.exists() else {}
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    before = json.dumps(old, indent=2, sort_keys=True).splitlines()
    after = json.dumps(new, indent=2, sort_keys=True).splitlines()
    diff = list(difflib.unified_diff(before, after, "old", "new", lineterm=""))
    print("\n".join(diff) if diff else f"{path.name} unchanged")


def main() -> int:
    bench = _load_workloads()
    regenerate(GOLDEN, ledger(bench, record, WORKLOADS))
    regenerate(CHIP_GOLDEN, ledger(bench, record_chip, CHIP_OPS))
    regenerate(PAPER_GOLDEN, ledger(bench, record_paper, ("paper-repro",)))
    regenerate(TRACE_GOLDEN, ledger(bench, record_trace, ("trace-smoke",)))
    regenerate(GATES_GOLDEN, ledger(bench, record_gate, GATE_RECORDERS))
    return 0


if __name__ == "__main__":
    sys.exit(main())

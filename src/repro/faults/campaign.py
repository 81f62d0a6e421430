"""Fault-injection campaign: accuracy vs stuck-cell rate x repair policy.

The graceful-degradation question for a deployed edge accelerator: as PCM
cells wear out, how fast does inference accuracy fall, how much of the
loss does each repair tier claw back, and what do the repairs cost in
write energy/latency?  The campaign answers it end to end:

1. Train a digital reference classifier once (the weights a fab would
   ship).
2. For every (stuck fraction, repair policy, trial): build a seeded
   accelerator with program-verify enabled and spare ring rows, inject
   stuck-at faults, deploy through a
   :class:`~repro.faults.repair.FaultManager`, and measure test accuracy.
3. Spot-check batch invariance: one batch and the same samples as
   single-sample batches must agree on outputs and event counters even
   with faults and remapped rows active.
4. Verify in-situ training still runs on the repaired hardware (losses
   stay finite; a repair sweep between steps keeps the banks healthy).
5. Charge every repair through the event accounting and report the
   deploy-time energy/time overhead versus the no-repair policy.

Determinism: one ``numpy.random.Generator`` per run, seeded from
``(seed, fraction, trial)``, shared by the verify writer and fault
injection — identical configs reproduce bit-identical campaigns.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from repro.arch.accelerator import TridentAccelerator
from repro.arch.config import TridentConfig
from repro.devices.program_verify import ProgramVerifyConfig
from repro.errors import (
    CheckpointError,
    ConfigError,
    FaultError,
    WriteConvergenceWarning,
)
from repro.eval.formatting import format_table
from repro.faults.detector import FaultDetector
from repro.faults.repair import FaultManager, RepairConfig, RepairPolicy
from repro.nn.datasets import Dataset, clipped_blobs
from repro.nn.reference import DigitalMLP
from repro.runtime.checkpoint import state_digest
from repro.telemetry.log import get_logger
from repro.telemetry.session import (
    counter as _metric_counter,
    gauge as _metric_gauge,
    trace_span as _trace_span,
)
from repro.training.insitu import InSituTrainer

_log = get_logger("repro.faults.campaign")


@dataclass(frozen=True)
class CampaignConfig:
    """Sweep definition for one fault campaign."""

    dims: tuple[int, ...] = (10, 14, 3)
    fault_fractions: tuple[float, ...] = (0.0, 0.05, 0.1, 0.2)
    policies: tuple[str, ...] = ("none", "retry", "spare", "remap")
    trials: int = 3
    seed: int = 0
    #: Stuck level 254 = weight +1: the damaging corner (a mid-grid stuck
    #: cell is nearly harmless — it reads as weight 0).
    stuck_level: int = 254
    #: Spare ring rows per bank.  8 covers the expected worn-row count of
    #: a 14-row block at ~10% cell faults.
    spare_rows: int = 8
    #: Reference-classifier training epochs (digital, done once).
    reference_epochs: int = 8
    #: In-situ training-survival steps per run (0 disables).
    train_batches: int = 2
    train_lr: float = 0.2
    #: Samples for the batch-invariance parity spot check.
    parity_samples: int = 8
    n_samples: int = 300

    def __post_init__(self) -> None:
        # Structural problems (malformed sweep shape, unknown policy name)
        # stay ConfigError; numeric ranges raise FaultError so a campaign
        # driver can distinguish "you typo'd the sweep" from "this sweep
        # cannot physically run".
        if len(self.dims) < 2 or any(d < 1 for d in self.dims):
            raise ConfigError(f"dims must be >= 2 positive widths, got {self.dims}")
        if not self.fault_fractions:
            raise FaultError(
                "need at least one fault fraction (got an empty sweep)"
            )
        bad = [f for f in self.fault_fractions if not 0.0 <= f <= 1.0]
        if bad:
            raise FaultError(
                f"fault fractions must lie in [0, 1]; out of range: {bad}"
            )
        if not self.policies:
            raise ConfigError("need at least one policy")
        object.__setattr__(
            self,
            "policies",
            tuple(RepairPolicy.parse(p).value for p in self.policies),
        )
        if self.trials < 1:
            raise FaultError(
                f"trials must be >= 1, got {self.trials} "
                "(a sweep cell with no trials measures nothing)"
            )
        if not 0 <= self.stuck_level <= 255:
            raise FaultError(
                f"stuck_level must be a level code in [0, 255], got "
                f"{self.stuck_level}"
            )
        if self.spare_rows < 0:
            raise FaultError(
                f"spare_rows must be non-negative, got {self.spare_rows}"
            )
        if self.reference_epochs < 1:
            raise FaultError(
                f"reference_epochs must be >= 1, got {self.reference_epochs}"
            )
        if self.train_batches < 0:
            raise FaultError(
                f"train_batches must be non-negative, got {self.train_batches} "
                "(use 0 to skip the training-survival check)"
            )
        if self.train_lr <= 0:
            raise FaultError(
                f"train_lr must be positive, got {self.train_lr}"
            )
        if self.parity_samples < 1:
            raise FaultError(
                f"parity_samples must be >= 1, got {self.parity_samples}"
            )
        if self.n_samples < 10:
            raise FaultError(
                f"n_samples must be >= 10 to split train/test, got "
                f"{self.n_samples}"
            )

    @classmethod
    def smoke(cls) -> "CampaignConfig":
        """CI-sized campaign: two fractions, two policies, one trial."""
        return cls(
            fault_fractions=(0.0, 0.08),
            policies=("none", "spare"),
            trials=1,
            train_batches=1,
        )


@dataclass
class CampaignRow:
    """One (fraction, policy, trial) measurement."""

    fraction: float
    policy: str
    trial: int
    accuracy: float
    n_stuck: int
    cells_flagged: int
    retries: int
    row_remaps: int
    migrations: int
    tiles_unrepaired: int
    deploy_energy_j: float
    deploy_time_s: float
    train_loss_first: float
    train_loss_last: float
    parity_ok: bool
    #: Step index whose loss first went non-finite during the in-situ
    #: training-survival check; None when training survived every step.
    train_died_at_step: int | None = None

    def as_dict(self) -> dict[str, object]:
        """Plain-dict view (stable key order) for exports."""
        return {
            "fraction": self.fraction,
            "policy": self.policy,
            "trial": self.trial,
            "accuracy": self.accuracy,
            "n_stuck": self.n_stuck,
            "cells_flagged": self.cells_flagged,
            "retries": self.retries,
            "row_remaps": self.row_remaps,
            "migrations": self.migrations,
            "tiles_unrepaired": self.tiles_unrepaired,
            "deploy_energy_j": self.deploy_energy_j,
            "deploy_time_s": self.deploy_time_s,
            "train_loss_first": self.train_loss_first,
            "train_loss_last": self.train_loss_last,
            "parity_ok": self.parity_ok,
            "train_died_at_step": self.train_died_at_step,
        }


@dataclass
class CampaignReport:
    """Aggregated campaign results."""

    config: CampaignConfig
    clean_accuracy: float
    rows: list[CampaignRow] = field(default_factory=list)
    #: False when the sweep halted early (``max_cells`` budget) and some
    #: cells are still missing — resume with the same checkpoint dir.
    complete: bool = True

    # ------------------------------------------------------------------
    def mean_accuracy(self, fraction: float, policy: str) -> float:
        """Trial-mean accuracy for one sweep cell."""
        accs = [
            r.accuracy
            for r in self.rows
            if r.fraction == fraction and r.policy == policy
        ]
        if not accs:
            raise ConfigError(f"no rows for fraction={fraction}, policy={policy}")
        return float(np.mean(accs))

    def recovery(self, fraction: float, policy: str) -> float:
        """Fraction of the no-repair accuracy loss this policy recovers.

        1.0 = back to clean accuracy, 0.0 = no better than no repair.
        Undefined (returns 1.0) when no-repair loses nothing.
        """
        lost = self.clean_accuracy - self.mean_accuracy(fraction, "none")
        if lost <= 1e-12:
            return 1.0
        regained = self.mean_accuracy(fraction, policy) - self.mean_accuracy(
            fraction, "none"
        )
        return float(regained / lost)

    def repair_overhead(self, fraction: float, policy: str) -> tuple[float, float]:
        """(extra energy J, extra time s) at deploy vs the none policy."""
        def mean(attr: str, pol: str) -> float:
            vals = [
                getattr(r, attr)
                for r in self.rows
                if r.fraction == fraction and r.policy == pol
            ]
            return float(np.mean(vals)) if vals else 0.0

        return (
            mean("deploy_energy_j", policy) - mean("deploy_energy_j", "none"),
            mean("deploy_time_s", policy) - mean("deploy_time_s", "none"),
        )

    @property
    def parity_ok(self) -> bool:
        """True when every run's batch-invariance spot check agreed."""
        return all(r.parity_ok for r in self.rows)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """ASCII summary: accuracy/recovery/overhead per sweep cell."""
        has_none = "none" in self.config.policies
        table_rows = []
        for fraction in self.config.fault_fractions:
            for policy in self.config.policies:
                sub = [
                    r
                    for r in self.rows
                    if r.fraction == fraction and r.policy == policy
                ]
                if not sub:
                    # Partial (halted) report: cells never reached.
                    continue
                acc = self.mean_accuracy(fraction, policy)
                try:
                    rec = (
                        self.recovery(fraction, policy)
                        if has_none
                        else float("nan")
                    )
                except ConfigError:
                    rec = float("nan")
                energy, time_s = (
                    self.repair_overhead(fraction, policy)
                    if has_none
                    else (float("nan"), float("nan"))
                )
                table_rows.append(
                    [
                        fraction * 100,
                        policy,
                        acc,
                        rec,
                        int(np.mean([r.row_remaps for r in sub])),
                        int(np.mean([r.migrations for r in sub])),
                        energy * 1e6,
                        time_s * 1e6,
                    ]
                )
        text = format_table(
            [
                "stuck (%)",
                "policy",
                "accuracy",
                "recovery",
                "remaps",
                "migr",
                "repair energy (uJ)",
                "repair time (us)",
            ],
            table_rows,
            title=(
                f"Fault campaign: dims={list(self.config.dims)}, "
                f"{self.config.trials} trial(s), clean accuracy "
                f"{self.clean_accuracy:.3f}"
            ),
        )
        text += f"\n\nbatched/per-sample parity: {'OK' if self.parity_ok else 'VIOLATED'}"
        if not self.complete:
            text += (
                "\nNOTE: campaign halted before completing every cell — "
                "resume with the same checkpoint directory."
            )
        return text


# ---------------------------------------------------------------------------
def _reference_weights(config: CampaignConfig) -> tuple[list[np.ndarray], Dataset]:
    """Train the digital reference classifier; return (weights, test set)."""
    data = clipped_blobs(
        config.n_samples,
        config.dims[0],
        config.dims[-1],
        spread=1.2,
        seed=config.seed + 5,
    )
    train, test = data.split(0.8, seed=1)
    mlp = DigitalMLP(list(config.dims), activation="gst", seed=7)
    for epoch in range(config.reference_epochs):
        for xb, yb in train.batches(16, seed=epoch):
            mlp.train_step(xb, yb, lr=0.4)
    return [w.copy() for w in mlp.weights], test


def _build_accelerator(config: CampaignConfig, seed: int) -> TridentAccelerator:
    arch = TridentConfig(
        spare_rows=config.spare_rows,
        # Stuck cells push whole-tile convergence below the default floor
        # by design; the campaign reports fault metrics itself, so the
        # warning would be noise here.
        convergence_floor=0.0,
    )
    acc = TridentAccelerator(
        config=arch, seed=seed, program_verify=ProgramVerifyConfig()
    )
    acc.map_mlp(list(config.dims))
    return acc


def _check_parity(acc: TridentAccelerator, xs: np.ndarray) -> bool:
    """One batch vs single-sample batches: outputs + event counters must
    agree."""
    before = acc.counters.snapshot()
    out_batch = acc.forward_batch(xs)
    batch_delta = acc.counters.diff(before).as_dict()
    before = acc.counters.snapshot()
    out_sample = np.concatenate([acc.forward_batch(x[None]) for x in xs])
    sample_delta = acc.counters.diff(before).as_dict()
    return bool(np.allclose(out_batch, out_sample)) and batch_delta == sample_delta


def _training_survives(
    acc: TridentAccelerator,
    manager: FaultManager,
    test: Dataset,
    config: CampaignConfig,
) -> tuple[float, float, int | None]:
    """Run a few in-situ steps with repair sweeps between them.

    Returns (first loss, last loss, died_at_step).  The loop aborts at
    the *first* non-finite loss — once training has diverged, every
    subsequent step trains on garbage weights and its losses are
    meaningless — and reports the step it died at (None if it survived).
    """
    if config.train_batches == 0:
        return (float("nan"), float("nan"), None)
    trainer = InSituTrainer(acc, lr=config.train_lr)
    first = last = float("nan")
    died_at: int | None = None
    for step, (xb, yb) in enumerate(
        test.batches(16, seed=config.seed + 11)
    ):
        if step >= config.train_batches:
            break
        loss = float(trainer.train_step(xb, yb))
        if step == 0:
            first = loss
        last = loss
        if not np.isfinite(loss):
            died_at = step
            break
        # The update reprogram re-screened every tile; sweep repairs so
        # newly crossed thresholds never linger into the next step.
        manager.repair()
    return (first, last, died_at)


# ---------------------------------------------------------------------------
# Resumable campaigns
# ---------------------------------------------------------------------------
_LEDGER_MAGIC = "trident-campaign"
_LEDGER_SCHEMA = 1
_LEDGER_FILE = "campaign_cells.jsonl"


def _config_as_doc(config: CampaignConfig) -> dict:
    """JSON-shaped view of a config (tuples become lists)."""
    return {
        key: list(value) if isinstance(value, tuple) else value
        for key, value in asdict(config).items()
    }


class _CampaignLedger:
    """Append-only JSONL record of completed sweep cells.

    Line 1 is a header binding the ledger to one exact
    :class:`CampaignConfig` (and the clean-hardware accuracy, as an
    environment-drift tripwire); every later line is one finished
    (fraction, policy, trial) row with a content hash.  Each append is
    flushed and fsynced, so a crash can lose at most the line being
    written — and a torn trailing line fails its hash check and is
    ignored on reload.  Because every cell's RNG seed is derived
    independently (``seed + 1000 * f_index + trial``), skipping completed
    cells on resume reproduces the uninterrupted sweep bit-identically.
    """

    def __init__(self, directory: str | Path, config: CampaignConfig) -> None:
        self.path = Path(directory) / _LEDGER_FILE
        self.config_doc = _config_as_doc(config)
        self.clean_accuracy: float | None = None
        #: (fraction, policy, trial) -> finished CampaignRow.
        self.completed: dict[tuple[float, str, int], CampaignRow] = {}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        lines = self.path.read_text(encoding="utf-8").splitlines()
        if not lines:
            return
        header = _parse_json_line(lines[0])
        if (
            header is None
            or header.get("magic") != _LEDGER_MAGIC
            or header.get("schema") != _LEDGER_SCHEMA
        ):
            raise CheckpointError(f"{self.path} is not a campaign ledger")
        if header.get("config") != self.config_doc:
            raise CheckpointError(
                f"campaign ledger {self.path} was written by a different "
                "sweep config; use a fresh checkpoint directory or the "
                "original config"
            )
        self.clean_accuracy = float(header["clean_accuracy"])
        for lineno, line in enumerate(lines[1:], start=2):
            doc = _parse_json_line(line)
            if (
                doc is None
                or "row" not in doc
                or doc.get("sha256") != state_digest(doc["row"])
            ):
                warnings.warn(
                    f"{self.path}:{lineno}: corrupt or torn ledger line "
                    "ignored (that cell will be re-run)",
                    RuntimeWarning,
                    stacklevel=2,
                )
                continue
            row = CampaignRow(**doc["row"])
            self.completed[(row.fraction, row.policy, row.trial)] = row

    def begin(self, clean_accuracy: float) -> None:
        """Write the header on first use; cross-check it on resume."""
        if self.clean_accuracy is None:
            self._append(
                {
                    "magic": _LEDGER_MAGIC,
                    "schema": _LEDGER_SCHEMA,
                    "config": self.config_doc,
                    "clean_accuracy": clean_accuracy,
                }
            )
            self.clean_accuracy = clean_accuracy
        elif self.clean_accuracy != clean_accuracy:
            raise CheckpointError(
                f"clean accuracy drifted between runs: ledger has "
                f"{self.clean_accuracy}, this environment computed "
                f"{clean_accuracy} — results would not be comparable"
            )

    def record(self, row: CampaignRow) -> None:
        """Persist one finished cell (flushed + fsynced before returning)."""
        doc = row.as_dict()
        self._append({"row": doc, "sha256": state_digest(doc)})
        self.completed[(row.fraction, row.policy, row.trial)] = row

    def _append(self, doc: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
            fh.flush()
            os.fsync(fh.fileno())


def _parse_json_line(line: str) -> dict | None:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def run_campaign(
    config: CampaignConfig | None = None,
    checkpoint_dir: str | Path | None = None,
    max_cells: int | None = None,
) -> CampaignReport:
    """Execute the full sweep; returns the populated report.

    With ``checkpoint_dir`` every finished (fraction, policy, trial) cell
    is persisted incrementally to a crash-safe ledger, and a restart with
    the same directory and config skips completed cells — producing a
    report bit-identical to an uninterrupted run (per-cell RNG seeds are
    independent).  ``max_cells`` caps the number of cells *executed* by
    this invocation (completed cells loaded from the ledger are free);
    when the cap halts the sweep early the report has
    ``complete=False``.
    """
    config = config or CampaignConfig()
    if max_cells is not None and max_cells < 0:
        raise FaultError(f"max_cells must be non-negative, got {max_cells}")
    ledger = (
        _CampaignLedger(checkpoint_dir, config)
        if checkpoint_dir is not None
        else None
    )
    weights, test = _reference_weights(config)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", WriteConvergenceWarning)
        # Clean (fault-free) reference accuracy on the photonic hardware.
        clean_acc = _build_accelerator(config, seed=config.seed)
        clean_acc.set_weights([w.copy() for w in weights])
        clean = float(
            np.mean(
                np.argmax(clean_acc.forward_batch(test.x), axis=1) == test.y
            )
        )
        if ledger is not None:
            ledger.begin(clean)
        report = CampaignReport(config=config, clean_accuracy=clean)

        executed = 0
        total_cells = (
            len(config.fault_fractions) * len(config.policies) * config.trials
        )
        cells_done = 0
        for f_index, fraction in enumerate(config.fault_fractions):
            for policy in config.policies:
                for trial in range(config.trials):
                    if ledger is not None:
                        done = ledger.completed.get((fraction, policy, trial))
                        if done is not None:
                            report.rows.append(done)
                            cells_done += 1
                            continue
                    if max_cells is not None and executed >= max_cells:
                        report.complete = False
                        _log.info(
                            "campaign halted by max_cells after %d executed "
                            "cells (%d/%d complete)",
                            executed, cells_done, total_cells,
                        )
                        return report
                    # Same (fraction, trial) seed across policies: every
                    # policy faces the identical fault pattern and noise
                    # stream, so policy deltas are paired comparisons.
                    seed = config.seed + 1000 * f_index + trial
                    _log.debug(
                        "campaign cell: fraction=%g policy=%s trial=%d",
                        fraction, policy, trial,
                    )
                    with _trace_span(
                        "campaign_cell",
                        fraction=fraction,
                        policy=policy,
                        trial=trial,
                    ):
                        acc = _build_accelerator(config, seed=seed)
                        n_stuck = acc.inject_stuck_faults(
                            fraction, stuck_level=config.stuck_level
                        )
                        detector = FaultDetector().attach(acc)
                        manager = FaultManager(
                            acc,
                            detector=detector,
                            config=RepairConfig(policy=policy),
                        )
                        log = manager.deploy([w.copy() for w in weights])
                        deploy_energy = acc.energy_estimate_j()
                        deploy_time = acc.time_estimate_s()
                        pred = np.argmax(acc.forward_batch(test.x), axis=1)
                        accuracy = float(np.mean(pred == test.y))
                        parity = _check_parity(
                            acc, test.x[: config.parity_samples]
                        )
                        first, last, died_at = _training_survives(
                            acc, manager, test, config
                        )
                    row = CampaignRow(
                        fraction=fraction,
                        policy=policy,
                        trial=trial,
                        accuracy=accuracy,
                        n_stuck=n_stuck,
                        cells_flagged=detector.total_flagged,
                        retries=log.retries,
                        row_remaps=log.row_remaps,
                        migrations=log.migrations,
                        tiles_unrepaired=log.tiles_unrepaired,
                        deploy_energy_j=deploy_energy,
                        deploy_time_s=deploy_time,
                        train_loss_first=first,
                        train_loss_last=last,
                        parity_ok=parity,
                        train_died_at_step=died_at,
                    )
                    if ledger is not None:
                        ledger.record(row)
                    report.rows.append(row)
                    executed += 1
                    cells_done += 1
                    _metric_counter("repro_campaign_cells_total").inc()
                    _metric_gauge("repro_campaign_progress_ratio").set(
                        cells_done / total_cells
                    )
                    _log.info(
                        "campaign %d/%d: fraction=%g policy=%s trial=%d "
                        "accuracy=%.3f",
                        cells_done, total_cells, fraction, policy, trial,
                        accuracy,
                    )
    return report


def resume_campaign(checkpoint_dir: str | Path) -> CampaignReport:
    """Continue an interrupted campaign from its ledger alone.

    Reconstructs the :class:`CampaignConfig` from the ledger header, so
    the caller needs nothing but the checkpoint directory.
    """
    path = Path(checkpoint_dir) / _LEDGER_FILE
    if not path.exists():
        raise CheckpointError(f"no campaign ledger at {path}")
    lines = path.read_text(encoding="utf-8").splitlines()
    header = _parse_json_line(lines[0]) if lines else None
    if (
        header is None
        or header.get("magic") != _LEDGER_MAGIC
        or not isinstance(header.get("config"), dict)
    ):
        raise CheckpointError(f"{path} has no readable campaign header")
    config = CampaignConfig(
        **{
            key: tuple(value) if isinstance(value, list) else value
            for key, value in header["config"].items()
        }
    )
    return run_campaign(config, checkpoint_dir=checkpoint_dir)


@dataclass(frozen=True)
class ResumeCheck:
    """The smoke campaign run uninterrupted (``baseline``), halted after
    one executed cell (``partial``) and resumed from its ledger."""

    baseline: CampaignReport
    partial: CampaignReport
    resumed: CampaignReport


def run_resume_check() -> ResumeCheck:
    """The ``repro resume --smoke`` scenario: one smoke campaign run
    uninterrupted, one halted after a cell and then resumed."""
    config = CampaignConfig.smoke()
    baseline = run_campaign(config)
    with tempfile.TemporaryDirectory() as directory:
        partial = run_campaign(config, checkpoint_dir=directory, max_cells=1)
        resumed = resume_campaign(directory)
    return ResumeCheck(baseline, partial, resumed)


def resume_gate(check: ResumeCheck):
    """The halted campaign stopped early, and resuming it completed a
    report bit-identical to the uninterrupted one."""
    from repro.chaos.audit import AuditResult

    result = AuditResult()
    result.record("halted_early", not check.partial.complete)
    result.record("resumed_complete", check.resumed.complete)
    result.record(
        "clean_accuracy_identical",
        check.baseline.clean_accuracy == check.resumed.clean_accuracy,
    )
    result.record(
        "rows_identical",
        [row.as_dict() for row in check.baseline.rows]
        == [row.as_dict() for row in check.resumed.rows],
    )
    return result

"""ResilientTrainer: cadenced checkpoints, rollback, backoff, resume."""

import numpy as np
import pytest

from repro import TridentAccelerator, TridentConfig
from repro.devices.program_verify import ProgramVerifyConfig
from repro.errors import CheckpointError, ConfigError, MappingError
from repro.nn.datasets import Dataset, make_blobs, standardize
from repro.runtime import ResilientTrainer, encode_state, state_digest
from repro.runtime.resilient import LR_BACKOFF, MAX_RETRIES, MIN_LR
from repro.training.insitu import InSituTrainer

DIMS = (6, 8, 3)


def _trainer(seed=11, lr=0.05):
    acc = TridentAccelerator(
        config=TridentConfig(
            bank_rows=8, bank_cols=8, n_pes=4, spare_rows=2,
            convergence_floor=0.0,
        ),
        seed=seed,
        program_verify=ProgramVerifyConfig(),
    )
    acc.map_mlp(list(DIMS))
    rng = np.random.default_rng(3)
    acc.set_weights(
        [
            rng.normal(0.0, 0.4, (DIMS[i + 1], DIMS[i]))
            for i in range(len(DIMS) - 1)
        ]
    )
    return InSituTrainer(acc, lr=lr)


@pytest.fixture
def data():
    raw = make_blobs(n_samples=40, n_features=6, n_classes=3, seed=1)
    return Dataset(x=np.clip(standardize(raw.x) / 3, -1, 1), y=raw.y)


class TestHappyPath:
    def test_run_completes_and_checkpoints(self, data, tmp_path):
        rt = ResilientTrainer(_trainer(), tmp_path, checkpoint_every=3)
        report = rt.run(data, steps=7, batch_size=8, seed=5)
        assert report.completed and report.aborted_reason is None
        assert report.steps_completed == 7
        assert len(report.losses) == 7
        assert all(np.isfinite(report.losses))
        # Anchor (step 0) + steps 3 and 6 + final step 7.
        assert report.checkpoints_written == 4
        assert rt.store.latest() is not None

    def test_config_validation(self, tmp_path):
        with pytest.raises(ConfigError):
            ResilientTrainer(_trainer(), tmp_path, checkpoint_every=0)


class TestCrashResume:
    def test_kill_and_resume_is_bit_identical(self, data, tmp_path):
        """A run halted mid-flight and resumed in a 'fresh process' must
        reproduce the uninterrupted run exactly: losses, realized weights,
        and event counters."""
        uninterrupted = ResilientTrainer(
            _trainer(), tmp_path / "a", checkpoint_every=3
        )
        ref = uninterrupted.run(data, steps=10, batch_size=8, seed=5)

        first = ResilientTrainer(_trainer(), tmp_path / "b", checkpoint_every=3)
        halted = first.run(
            data, steps=10, batch_size=8, seed=5, max_steps_this_run=5
        )
        assert not halted.completed
        # Fresh trainer objects simulate a new process after the crash.
        second = ResilientTrainer(
            _trainer(seed=404), tmp_path / "b", checkpoint_every=3
        )
        resumed = second.run(data, steps=10, batch_size=8, seed=5, resume=True)

        assert resumed.completed
        assert resumed.resumed_from_step == 3
        assert resumed.losses == ref.losses
        for pe_a, pe_b in zip(
            uninterrupted.trainer.acc.pes, second.trainer.acc.pes
        ):
            assert np.array_equal(
                pe_a.bank.physical_levels, pe_b.bank.physical_levels
            )
        assert (
            uninterrupted.trainer.acc.counters.as_dict()
            == second.trainer.acc.counters.as_dict()
        )

    def test_resume_with_mismatched_run_rejected(self, data, tmp_path):
        rt = ResilientTrainer(_trainer(), tmp_path, checkpoint_every=3)
        rt.run(data, steps=4, batch_size=8, seed=5)
        fresh = ResilientTrainer(_trainer(), tmp_path, checkpoint_every=3)
        with pytest.raises(CheckpointError, match="does not match"):
            fresh.run(data, steps=4, batch_size=4, seed=5, resume=True)

    def test_resume_on_empty_store_starts_fresh(self, data, tmp_path):
        rt = ResilientTrainer(_trainer(), tmp_path, checkpoint_every=3)
        report = rt.run(data, steps=4, batch_size=8, seed=5, resume=True)
        assert report.completed and report.resumed_from_step is None


class TestDivergence:
    def test_nan_loss_triggers_rollback_and_backoff(self, data, tmp_path):
        fired = {"done": False}

        def hook(step):
            if step == 4 and not fired["done"]:
                fired["done"] = True
                return float("nan")
            return None

        rt = ResilientTrainer(
            _trainer(lr=0.05), tmp_path, checkpoint_every=3, step_hook=hook
        )
        report = rt.run(data, steps=8, batch_size=8, seed=5)
        assert report.completed
        assert report.rollbacks == 1
        incident = report.incidents[0]
        assert incident.step == 4
        assert incident.reason == "non-finite loss"
        assert incident.restored_step == 3
        assert incident.lr_after == pytest.approx(0.05 * LR_BACKOFF)
        assert len(report.losses) == 8
        assert all(np.isfinite(report.losses))

    def test_every_retry_restores_the_checkpointed_banks(self, data, tmp_path):
        """A step that programs the banks and then fails must leave the
        in-memory checkpoint as it was: both retries start from it."""
        trainer = _trainer()
        train_step = trainer.train_step
        entry_digests = []

        def writes_then_fails(xb, yb):
            entry_digests.append(
                state_digest(encode_state(trainer.acc.state_dict()))
            )
            loss = train_step(xb, yb)  # programs the updated weights
            if len(entry_digests) <= 2:
                raise MappingError("injected failure after the write")
            return loss

        trainer.train_step = writes_then_fails
        rt = ResilientTrainer(trainer, tmp_path, checkpoint_every=3)
        report = rt.run(data, steps=1, batch_size=8, seed=5)
        assert report.completed and report.rollbacks == 2
        assert len(entry_digests) == 3
        assert entry_digests[1] == entry_digests[0]
        assert entry_digests[2] == entry_digests[0]

    def test_spike_triggers_rollback(self, data, tmp_path):
        fired = {"done": False}

        def hook(step):
            if step == 5 and not fired["done"]:
                fired["done"] = True
                return 1e6  # finite, but far above the running median
            return None

        rt = ResilientTrainer(
            _trainer(), tmp_path, checkpoint_every=3, step_hook=hook
        )
        report = rt.run(data, steps=8, batch_size=8, seed=5)
        assert report.completed
        assert report.rollbacks == 1
        assert "spike" in report.incidents[0].reason

    def test_retry_budget_exhaustion_aborts_gracefully(self, data, tmp_path):
        def hook(step):
            return float("nan") if step == 2 else None

        rt = ResilientTrainer(
            _trainer(), tmp_path, checkpoint_every=3, step_hook=hook
        )
        report = rt.run(data, steps=8, batch_size=8, seed=5)
        assert not report.completed
        assert "retries exhausted" in report.aborted_reason
        assert report.rollbacks == MAX_RETRIES + 1
        # Each retry halves the LR again from the checkpointed value.
        lrs = [i.lr_after for i in report.incidents[:-1]]
        assert lrs == sorted(lrs, reverse=True)
        # The store still holds a valid checkpoint for post-mortem.
        assert rt.store.latest() is not None

    def test_min_lr_floors_the_backoff(self, data, tmp_path):
        def hook(step):
            return float("nan") if step == 1 else None

        # Two halvings take 3e-4 below the 1e-4 floor.
        rt = ResilientTrainer(
            _trainer(lr=3e-4), tmp_path, checkpoint_every=3, step_hook=hook
        )
        report = rt.run(data, steps=4, batch_size=8, seed=5)
        lrs = [i.lr_after for i in report.incidents]
        assert 3e-4 * LR_BACKOFF**2 < MIN_LR
        assert lrs[0] == pytest.approx(3e-4 * LR_BACKOFF)
        assert min(lrs) == MIN_LR

    def test_report_render_and_as_dict(self, data, tmp_path):
        rt = ResilientTrainer(_trainer(), tmp_path, checkpoint_every=3)
        report = rt.run(data, steps=4, batch_size=8, seed=5)
        text = report.render()
        assert "4/4 steps completed" in text
        doc = report.as_dict()
        assert doc["completed"] is True
        assert len(doc["losses"]) == 4


class TestBatchSchedule:
    def test_schedule_is_deterministic_and_covers_epoch(self, data):
        a = ResilientTrainer._batch_at(data, 8, seed=3, step=7)
        b = ResilientTrainer._batch_at(data, 8, seed=3, step=7)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        per_epoch = -(-data.n_samples // 8)
        seen = np.concatenate(
            [
                ResilientTrainer._batch_at(data, 8, seed=3, step=s)[1]
                for s in range(per_epoch)
            ]
        )
        assert seen.shape[0] == data.n_samples  # every sample exactly once

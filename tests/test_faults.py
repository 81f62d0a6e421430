"""Runtime fault management: detection, repair ladder, campaign engine."""

import warnings

import numpy as np
import pytest

from repro import TridentAccelerator, TridentConfig
from repro.arch.weight_bank import WeightBank
from repro.cli import main
from repro.devices.program_verify import ProgramVerifyConfig, ProgramVerifyWriter
from repro.errors import (
    ConfigError,
    FaultError,
    ProgrammingError,
    RepairError,
    WriteConvergenceWarning,
)
from repro.eval.export import export_fault_campaign
from repro.faults import (
    BankFaultMap,
    CampaignConfig,
    FaultDetector,
    FaultManager,
    RepairConfig,
    RepairPolicy,
    run_campaign,
)


def _verified_acc(seed=0, spare_rows=4, n_pes=44, floor=0.0):
    acc = TridentAccelerator(
        config=TridentConfig(
            n_pes=n_pes, spare_rows=spare_rows, convergence_floor=floor
        ),
        seed=seed,
        program_verify=ProgramVerifyConfig(),
    )
    acc.map_mlp([10, 14, 3])
    return acc


class TestErrors:
    def test_fault_error_aliases_programming_error(self):
        # Deprecation compatibility: old except-sites keep working.
        assert issubclass(FaultError, ProgrammingError)
        bank = WeightBank()
        with pytest.raises(FaultError):
            bank.inject_stuck_faults(1.5, np.random.default_rng(0))
        with pytest.raises(ProgrammingError):
            bank.inject_stuck_faults(-0.1, np.random.default_rng(0))
        with pytest.raises(FaultError):
            bank.inject_stuck_faults(0.1, np.random.default_rng(0), stuck_level=999)

    def test_repair_error_for_exhausted_spares(self):
        bank = WeightBank(spare_rows=0)
        with pytest.raises(RepairError):
            bank.remap_row(0)


class TestConvergenceReadback:
    def test_unconverged_fraction_zero_without_verify(self):
        bank = WeightBank()
        bank.program(np.full((4, 4), 0.5))
        assert bank.unconverged_fraction == 0.0
        assert bank.last_converged is None

    def test_converged_mask_stored(self, rng):
        bank = WeightBank()
        writer = ProgramVerifyWriter(ProgramVerifyConfig(), rng=rng)
        _, result = bank.program_verified(rng.uniform(-1, 1, (8, 8)), writer)
        assert bank.last_converged is not None
        assert bank.last_converged.shape == (8, 8)
        assert bank.unconverged_fraction == pytest.approx(
            1.0 - result.convergence_rate
        )

    def test_stuck_cells_never_converge(self, rng):
        bank = WeightBank()
        bank.inject_stuck_faults(1.0, rng, stuck_level=254)
        writer = ProgramVerifyWriter(ProgramVerifyConfig(), rng=rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", WriteConvergenceWarning)
            _, result = bank.program_verified(np.full((6, 6), -0.9), writer)
        assert result.convergence_rate == 0.0
        # Frozen cells burn the full pulse budget — the wear signal.
        assert np.all(result.pulses == writer.config.max_iterations)
        assert bank.unconverged_fraction == 1.0

    def test_cached_fraction_follows_every_write(self, rng):
        # The fraction is cached between writes; every store must drop it.
        def recomputed(bank):
            mask = bank.last_converged
            return 0.0 if mask is None else float(1.0 - mask.mean())

        bank = WeightBank(spare_rows=2, convergence_floor=0.0)
        writer = ProgramVerifyWriter(ProgramVerifyConfig(), rng=rng)
        bank.program(rng.uniform(-1, 1, (8, 8)))
        assert bank.unconverged_fraction == recomputed(bank) == 0.0
        bank.program_verified(rng.uniform(-1, 1, (8, 8)), writer)
        healthy = bank.unconverged_fraction
        assert healthy == recomputed(bank)
        # Degrade, then rewrite: the stuck cells show only after the write.
        bank.inject_stuck_faults(0.3, rng, stuck_level=254)
        assert bank.unconverged_fraction == healthy
        bank.program_verified(np.full((8, 8), -0.5), writer)
        assert bank.unconverged_fraction == recomputed(bank) > healthy
        restored = WeightBank(spare_rows=2, convergence_floor=0.0)
        assert restored.unconverged_fraction == 0.0
        restored.load_state_dict(bank.state_dict())
        assert restored.unconverged_fraction == recomputed(restored)
        assert restored.unconverged_fraction == bank.unconverged_fraction
        bank.program(rng.uniform(-1, 1, (8, 8)))
        assert bank.unconverged_fraction == recomputed(bank) == 0.0

    def test_warning_below_floor(self, rng):
        bank = WeightBank(convergence_floor=0.99)
        bank.inject_stuck_faults(0.5, rng, stuck_level=254)
        writer = ProgramVerifyWriter(ProgramVerifyConfig(), rng=rng)
        with pytest.warns(WriteConvergenceWarning):
            bank.program_verified(np.full((8, 8), -0.5), writer)

    def test_no_warning_at_floor_zero(self, rng):
        bank = WeightBank(convergence_floor=0.0)
        bank.inject_stuck_faults(0.5, rng, stuck_level=254)
        writer = ProgramVerifyWriter(ProgramVerifyConfig(), rng=rng)
        with warnings.catch_warnings():
            warnings.simplefilter("error", WriteConvergenceWarning)
            bank.program_verified(np.full((8, 8), -0.5), writer)


class TestSpareRemap:
    def test_remap_moves_logical_row(self, rng):
        bank = WeightBank(rows=4, cols=4, spare_rows=2)
        w = rng.uniform(-1, 1, (4, 4))
        bank.program(w)
        new_phys = bank.remap_row(1)
        assert new_phys == 4  # first spare
        assert bank.remapped_rows == {1: 4}
        assert 4 not in bank.free_spare_rows

    def test_mvm_refused_until_reprogram(self, rng):
        bank = WeightBank(rows=4, cols=4, spare_rows=1)
        bank.program(rng.uniform(-1, 1, (4, 4)))
        bank.remap_row(0)
        with pytest.raises(ProgrammingError):
            bank.matmat(np.zeros((4, 1)))
        bank.program(rng.uniform(-1, 1, (4, 4)))
        bank.matmat(np.zeros((4, 1)))  # streams again

    def test_remap_routes_around_stuck_row(self, rng):
        bank = WeightBank(rows=4, cols=4, spare_rows=2)
        # Stick the whole of physical row 2, then remap logical row 2.
        bank._stuck_mask[2, :] = True
        bank._stuck_levels[2, :] = 0
        w = rng.uniform(-0.5, 0.5, (4, 4))
        bank.program(w)
        assert not np.allclose(bank.logical_weights[2], w[2], atol=bank.weight_step)
        bank.remap_row(2)
        bank.program(w)
        assert np.allclose(bank.logical_weights[2], w[2], atol=bank.weight_step)

    def test_specific_spare_must_be_free(self):
        bank = WeightBank(rows=4, cols=4, spare_rows=2)
        bank.remap_row(0, spare_physical=5)
        with pytest.raises(RepairError):
            bank.remap_row(1, spare_physical=5)
        with pytest.raises(FaultError):
            bank.remap_row(99)

    def test_row_stuck_counts_follow_the_map(self, rng):
        bank = WeightBank(rows=4, cols=4, spare_rows=1)
        bank._stuck_mask[0, :2] = True
        assert list(bank.row_stuck_counts()) == [2, 0, 0, 0]
        bank.program(rng.uniform(-1, 1, (4, 4)))
        bank.remap_row(0)
        assert list(bank.row_stuck_counts()) == [0, 0, 0, 0]


class TestSelftest:
    def test_selftest_flags_stuck_cells(self, rng):
        bank = WeightBank(rows=4, cols=4, spare_rows=2)
        bank.inject_stuck_faults(0.3, rng, stuck_level=254)
        writer = ProgramVerifyWriter(ProgramVerifyConfig(), rng=rng)
        fault_map = BankFaultMap(bank.physical_rows, bank.cols)
        for result in bank.selftest(writer):
            fault_map.observe_physical(result)
        # Level 254 sits far from both test patterns: every stuck cell
        # collects two strikes and is flagged; healthy cells almost
        # surely converge at least once.
        assert np.array_equal(fault_map.faulty, bank._stuck_mask)

    def test_selftest_charges_accounting_and_blocks_mvm(self, rng):
        bank = WeightBank(rows=4, cols=4, spare_rows=2)
        bank.program(rng.uniform(-1, 1, (4, 4)))
        before = bank.stats.write_energy_j
        writer = ProgramVerifyWriter(ProgramVerifyConfig(), rng=rng)
        bank.selftest(writer)
        assert bank.stats.write_energy_j > before  # BIST is not free
        with pytest.raises(ProgrammingError):
            bank.matmat(np.zeros((4, 1)))

    def test_selftest_validates_levels(self, rng):
        bank = WeightBank()
        writer = ProgramVerifyWriter(ProgramVerifyConfig(), rng=rng)
        with pytest.raises(FaultError):
            bank.selftest(writer, test_levels=(300,))
        with pytest.raises(FaultError):
            bank.selftest(writer, test_levels=())


class TestDetector:
    def test_strikes_require_persistence(self):
        fault_map = BankFaultMap(4, 4, strike_threshold=2)

        class R:
            def __init__(self, conv):
                self.converged = conv

        class B:
            active_row_map = np.arange(4)

        miss = np.ones((4, 4), dtype=bool)
        miss[0, 0] = False
        fault_map.observe(B(), R(miss))
        assert not fault_map.faulty.any()  # one strike is not a fault
        fault_map.observe(B(), R(miss))
        assert fault_map.faulty[0, 0] and fault_map.faulty.sum() == 1
        # A converged write clears the record — transient, not worn.
        fault_map.observe(B(), R(np.ones((4, 4), dtype=bool)))
        assert not fault_map.faulty.any() and not fault_map.strikes.any()

    def test_detector_attaches_to_accelerator_writes(self, rng):
        acc = _verified_acc()
        detector = FaultDetector().attach(acc)
        acc.inject_stuck_faults(0.1, stuck_level=254)
        acc.set_weights(
            [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        )
        assert set(detector.maps) == {0, 1}
        assert all(m.writes_observed == 1 for m in detector.maps.values())
        # One write = one strike: nothing flagged yet at threshold 2.
        assert detector.total_flagged == 0
        acc.set_weights(
            [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        )
        assert detector.total_flagged > 0

    def test_check_drift(self):
        detector = FaultDetector()
        fresh = detector.check_drift(age_s=0.0, temperature_k=358.15)
        assert not fresh.needs_refresh
        old = detector.check_drift(age_s=3.15e8, temperature_k=400.0)
        assert old.needs_refresh
        with pytest.raises(ConfigError):
            detector.check_drift(age_s=-1.0)


class TestRepairLadder:
    def test_policy_parse_and_tiers(self):
        assert RepairPolicy.parse("spare") is RepairPolicy.SPARE
        assert RepairPolicy.parse(RepairPolicy.NONE) is RepairPolicy.NONE
        assert (
            RepairPolicy.NONE.tier
            < RepairPolicy.RETRY.tier
            < RepairPolicy.SPARE.tier
            < RepairPolicy.REMAP.tier
        )
        with pytest.raises(ConfigError):
            RepairPolicy.parse("nuke-from-orbit")

    def test_manager_requires_verify(self):
        acc = TridentAccelerator()
        acc.map_mlp([10, 14, 3])
        with pytest.raises(ConfigError):
            FaultManager(acc, config=RepairConfig(policy="spare"))
        FaultManager(acc, config=RepairConfig(policy="none"))  # fine

    def test_sdc_escalations_checkpoint_roundtrip(self, rng):
        acc = _verified_acc(seed=3)
        manager = FaultManager(acc, config=RepairConfig(policy="retry"))
        manager.deploy(
            [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        )
        manager.note_sdc()
        manager.note_sdc()
        assert manager.log.sdc_escalations == 2
        state = manager.state_dict()
        assert state["log"]["sdc_escalations"] == 2
        restored = FaultManager(acc, config=RepairConfig(policy="retry"))
        restored.load_state_dict(state)
        assert restored.log.sdc_escalations == 2
        # Pre-integrity snapshots lack the key and must still load.
        del state["log"]["sdc_escalations"]
        restored.load_state_dict(state)
        assert restored.log.sdc_escalations == 0

    def test_unconverged_limit_is_validated(self):
        for bad in (-0.1, 1.0, float("nan")):
            with pytest.raises(ConfigError, match="max_unconverged_fraction"):
                RepairConfig(max_unconverged_fraction=bad)
        RepairConfig(max_unconverged_fraction=0.0)  # fine

    def test_unconverged_limit_retries_a_tile_inside_the_error_budget(self):
        from repro.serving.workload import serving_chip

        dims = (12, 16, 4)

        def deploy(config):
            # Seed 377's deploy leaves 2 of the last layer's 64 cells
            # unconverged, both within the default error budget.
            acc = serving_chip(dims, 377)
            rng = np.random.default_rng(378)
            weights = [
                rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
                for i in range(len(dims) - 1)
            ]
            log = FaultManager(acc, config=config).deploy(weights)
            worst = max(
                acc.pes[tile[4]].bank.unconverged_fraction
                for layer in acc.layers
                for tile in layer.tiles
            )
            return log, worst

        log, worst = deploy(RepairConfig(policy="retry"))
        assert log.retries == 0 and worst > 0.02
        log, worst = deploy(
            RepairConfig(policy="retry", max_unconverged_fraction=0.02)
        )
        assert log.retries >= 1 and log.tiles_unrepaired == 0
        assert worst <= 0.02

    def test_retry_cannot_fix_stuck_cells(self, rng):
        acc = _verified_acc(seed=3)
        acc.inject_stuck_faults(0.1, stuck_level=254)
        manager = FaultManager(acc, config=RepairConfig(policy="retry"))
        weights = [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        log = manager.deploy(weights)
        assert log.retries > 0
        assert log.row_remaps == 0 and log.migrations == 0
        assert log.tiles_unrepaired > 0  # degraded, gracefully

    def test_spare_policy_repairs_and_recovers_weights(self, rng):
        acc = _verified_acc(seed=3, spare_rows=8)
        acc.inject_stuck_faults(0.05, stuck_level=254)
        manager = FaultManager(acc, config=RepairConfig(policy="spare"))
        weights = [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        log = manager.deploy(weights)
        assert log.row_remaps > 0
        for layer, w in zip(acc.layers, weights):
            bank = acc.pes[layer.tiles[0][4]].bank
            r, c = w.shape
            realized = bank.logical_weights[:r, :c]
            # 3 sigma of write noise on top of the half-step quantization.
            assert np.allclose(
                realized, w / layer.weight_scale, atol=5 * bank.weight_step
            )

    def test_remap_policy_migrates_when_spares_cannot_help(self, rng):
        acc = _verified_acc(seed=1, spare_rows=1)
        # Heavy damage on a bank with a single spare forces migration.
        acc.inject_stuck_faults(0.3, stuck_level=254)
        n_pes_before = len(acc.pes)
        manager = FaultManager(
            acc, config=RepairConfig(policy="remap", max_migrations=2)
        )
        weights = [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        log = manager.deploy(weights)
        assert log.migrations >= 1
        assert len(acc.pes) == n_pes_before + log.migrations
        # Migrated tiles point at the new PEs and still stream.
        acc.forward_batch(rng.uniform(-1, 1, (4, 10)))

    def test_migration_respects_pe_budget(self, rng):
        acc = _verified_acc(seed=1, spare_rows=0, n_pes=2)
        acc.inject_stuck_faults(0.3, stuck_level=254)
        manager = FaultManager(acc, config=RepairConfig(policy="remap"))
        log = manager.deploy(
            [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        )
        assert log.migrations == 0  # budget already full: degrade instead
        assert log.tiles_unrepaired > 0

    def test_repairs_are_charged(self, rng):
        weights = [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        energies = {}
        for policy in ("none", "spare"):
            acc = _verified_acc(seed=3, spare_rows=8)
            acc.inject_stuck_faults(0.05, stuck_level=254)
            FaultManager(acc, config=RepairConfig(policy=policy)).deploy(
                [w.copy() for w in weights]
            )
            energies[policy] = (acc.energy_estimate_j(), acc.time_estimate_s())
        assert energies["spare"][0] > energies["none"][0]
        assert energies["spare"][1] > energies["none"][1]

    def test_maybe_refresh(self, rng):
        acc = _verified_acc(seed=0)
        manager = FaultManager(acc, config=RepairConfig(policy="retry"))
        acc.set_weights(
            [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        )
        writes_before = acc.counters.bank_writes
        assert not manager.maybe_refresh(age_s=60.0, temperature_k=300.0)
        assert acc.counters.bank_writes == writes_before
        assert manager.maybe_refresh(age_s=3.15e8, temperature_k=400.0)
        assert acc.counters.bank_writes == writes_before + 2
        assert manager.log.refreshes == 1


class TestAcceleratorPlumbing:
    def test_seeded_runs_are_bit_identical(self, rng):
        weights = [rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))]
        realized = []
        for _ in range(2):
            acc = _verified_acc(seed=42)
            acc.inject_stuck_faults(0.1, stuck_level=254)
            acc.set_weights([w.copy() for w in weights])
            realized.append(
                [pe.bank.realized_weights.copy() for pe in acc.pes]
            )
        for a, b in zip(*realized):
            assert np.array_equal(a, b)

    def test_migrate_tile_requires_budget(self, rng):
        acc = TridentAccelerator(config=TridentConfig(n_pes=2))
        acc.map_mlp([10, 14, 3])
        with pytest.raises(RepairError):
            acc.migrate_tile(0, 0)

    def test_reprogram_tile_before_weights_raises(self):
        acc = _verified_acc()
        from repro.errors import MappingError

        with pytest.raises(MappingError):
            acc.reprogram_tile(0, 0)


class TestCampaign:
    def test_smoke_campaign_end_to_end(self, tmp_path):
        report = run_campaign(CampaignConfig.smoke())
        assert report.parity_ok
        assert len(report.rows) == 4  # 2 fractions x 2 policies x 1 trial
        assert 0.0 <= report.clean_accuracy <= 1.0
        # Training survived every run (finite losses).
        assert all(np.isfinite(r.train_loss_last) for r in report.rows)
        paths = export_fault_campaign(report, tmp_path)
        assert [p.name for p in paths] == [
            "fault_campaign.csv",
            "fault_campaign.json",
        ]
        assert all(p.exists() and p.stat().st_size > 0 for p in paths)

    def test_full_campaign_repairs_damaging_faults(self):
        """At a damaging stuck-cell rate (>= 5 %, stuck at weight +1) the
        spare-remap ladder recovers at least half of the accuracy the
        unrepaired chip loses, pays for every repair through the event
        accounting, and never breaks batch invariance."""
        report = run_campaign(CampaignConfig())
        config = report.config
        assert report.parity_ok
        damaging = [
            f
            for f in config.fault_fractions
            if f >= 0.05 and report.clean_accuracy - report.mean_accuracy(f, "none") > 0.01
        ]
        assert damaging, "campaign produced no damaging fault rate to repair"
        for fraction in damaging:
            assert report.recovery(fraction, "spare") >= 0.5
            energy, time_s = report.repair_overhead(fraction, "spare")
            assert energy > 0 and time_s > 0
            # Retry alone cannot fix stuck cells.
            assert (
                report.mean_accuracy(fraction, "retry")
                <= report.mean_accuracy(fraction, "spare") + 1e-9
            )
        # Repair never leaves a chip worse than no repair.
        for fraction in config.fault_fractions:
            none_acc = report.mean_accuracy(fraction, "none")
            for policy in ("spare", "remap"):
                assert report.mean_accuracy(fraction, policy) >= none_acc - 0.02
        # In-situ training survived every run.
        losses = [(r.train_loss_first, r.train_loss_last) for r in report.rows]
        assert not np.isnan(losses).any()

    def test_campaign_validation(self):
        # Structural mistakes stay ConfigError...
        with pytest.raises(ConfigError):
            CampaignConfig(dims=(10,))
        with pytest.raises(ConfigError):
            CampaignConfig(policies=("bogus",))
        # ...numeric ranges raise FaultError with the offending value named.
        with pytest.raises(FaultError):
            CampaignConfig(fault_fractions=())
        with pytest.raises(FaultError, match="1.5"):
            CampaignConfig(fault_fractions=(1.5,))
        with pytest.raises(FaultError, match="-0.1"):
            CampaignConfig(fault_fractions=(-0.1,))
        with pytest.raises(FaultError, match="trials"):
            CampaignConfig(trials=0)
        with pytest.raises(FaultError, match="train_lr"):
            CampaignConfig(train_lr=0.0)
        with pytest.raises(FaultError, match="train_lr"):
            CampaignConfig(train_lr=-0.5)
        with pytest.raises(FaultError, match="train_batches"):
            CampaignConfig(train_batches=-1)
        with pytest.raises(FaultError, match="stuck_level"):
            CampaignConfig(stuck_level=300)
        with pytest.raises(FaultError, match="spare_rows"):
            CampaignConfig(spare_rows=-1)
        with pytest.raises(FaultError, match="parity_samples"):
            CampaignConfig(parity_samples=0)

    def test_cli_faults_smoke(self, capsys):
        assert main(["faults", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "Fault campaign" in out
        assert "parity: OK" in out


class TestTrainingSurvival:
    def test_aborts_at_first_nonfinite_loss(self, monkeypatch):
        """A NaN loss ends the survival loop immediately and records the
        step it died at — later steps would train on garbage weights."""
        from repro.faults.campaign import _training_survives
        from repro.nn.datasets import make_blobs
        from repro.training.insitu import InSituTrainer

        losses = iter([0.9, float("nan"), 0.1, 0.05])
        calls = {"n": 0}

        def fake_step(self, xb, yb):
            calls["n"] += 1
            return next(losses)

        monkeypatch.setattr(InSituTrainer, "train_step", fake_step)
        repairs = {"n": 0}

        class FakeManager:
            def repair(self):
                repairs["n"] += 1

        config = CampaignConfig(train_batches=4)
        acc = _verified_acc()
        acc.set_weights(
            [np.zeros((14, 10)), np.zeros((3, 14))]
        )
        test = make_blobs(n_samples=64, n_features=10, n_classes=3, seed=0)
        first, last, died = _training_survives(
            acc, FakeManager(), test, config
        )
        assert first == 0.9
        assert np.isnan(last)
        assert died == 1
        assert calls["n"] == 2  # steps 2 and 3 never ran
        assert repairs["n"] == 1  # only the healthy step swept repairs

    def test_surviving_run_reports_no_death(self, monkeypatch):
        from repro.faults.campaign import _training_survives
        from repro.nn.datasets import make_blobs
        from repro.training.insitu import InSituTrainer

        monkeypatch.setattr(
            InSituTrainer, "train_step", lambda self, xb, yb: 0.5
        )

        class FakeManager:
            def repair(self):
                pass

        config = CampaignConfig(train_batches=3)
        acc = _verified_acc()
        acc.set_weights([np.zeros((14, 10)), np.zeros((3, 14))])
        test = make_blobs(n_samples=64, n_features=10, n_classes=3, seed=0)
        first, last, died = _training_survives(
            acc, FakeManager(), test, config
        )
        assert (first, last, died) == (0.5, 0.5, None)


class TestCampaignResume:
    def test_interrupted_campaign_resumes_bit_identically(self, tmp_path):
        """Halt after one cell, resume, and the final report must equal an
        uninterrupted run: same rows, losses, counters, clean accuracy."""
        from repro.faults import resume_campaign

        config = CampaignConfig.smoke()
        baseline = run_campaign(config)
        assert baseline.complete

        partial = run_campaign(config, checkpoint_dir=tmp_path, max_cells=1)
        assert not partial.complete
        assert len(partial.rows) == 1
        assert (tmp_path / "campaign_cells.jsonl").exists()

        resumed = resume_campaign(tmp_path)
        assert resumed.complete
        assert resumed.clean_accuracy == baseline.clean_accuracy
        assert [r.as_dict() for r in resumed.rows] == [
            r.as_dict() for r in baseline.rows
        ]

    def test_completed_cells_are_not_rerun(self, tmp_path):
        config = CampaignConfig.smoke()
        run_campaign(config, checkpoint_dir=tmp_path)
        ledger = tmp_path / "campaign_cells.jsonl"
        before = ledger.read_text()
        # A second run loads every cell from the ledger and appends nothing.
        report = run_campaign(config, checkpoint_dir=tmp_path)
        assert report.complete
        assert len(report.rows) == 4
        assert ledger.read_text() == before

    def test_torn_trailing_line_is_ignored(self, tmp_path):
        config = CampaignConfig.smoke()
        run_campaign(config, checkpoint_dir=tmp_path, max_cells=2)
        ledger = tmp_path / "campaign_cells.jsonl"
        # Simulate a crash mid-append: truncate the last line.
        text = ledger.read_text()
        ledger.write_text(text[:-30])
        from repro.faults import resume_campaign

        with pytest.warns(RuntimeWarning, match="torn"):
            resumed = resume_campaign(tmp_path)
        assert resumed.complete
        assert len(resumed.rows) == 4

    def test_mismatched_config_rejected(self, tmp_path):
        from repro.errors import CheckpointError

        run_campaign(CampaignConfig.smoke(), checkpoint_dir=tmp_path, max_cells=1)
        other = CampaignConfig.smoke()
        other = CampaignConfig(
            fault_fractions=other.fault_fractions,
            policies=other.policies,
            trials=other.trials,
            train_batches=other.train_batches,
            seed=99,
        )
        with pytest.raises(CheckpointError, match="different"):
            run_campaign(other, checkpoint_dir=tmp_path)

    def test_cli_resume_smoke(self, capsys):
        assert main(["resume", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "bit-identical to uninterrupted run: OK" in out

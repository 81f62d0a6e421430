"""ABFT integrity: checksum attachment, noise-calibrated attestation,
the SDC escalation ladder, sharded attestation, and repair scrubbing."""

import numpy as np
import pytest

from repro.arch import TridentAccelerator, TridentConfig
from repro.chaos import ChaosPlan, Injection
from repro.chaos.session import session as chaos_scope
from repro.devices.noise import NoiseModel
from repro.devices.program_verify import ProgramVerifyConfig
from repro.errors import IntegrityError, IntegrityFault
from repro.integrity import (
    ChecksumUnit,
    IntegrityCounters,
    PipelineChecker,
    attest_batch,
    build_integrity_worker,
)
from repro.serving import build_sharded_worker
from repro.sharding import plan_pipeline

DIMS = (12, 16, 4)
SEED = 7
BATCH = 16


def _batch(seed=SEED, n=BATCH, width=DIMS[0]):
    return np.random.default_rng(seed + 50).uniform(-1.0, 1.0, (n, width))


def _small_acc(dims=(8, 8), n_pes=2, seed=0, with_weights=True):
    rows = max(dims)
    config = TridentConfig(
        n_pes=n_pes, bank_rows=rows, bank_cols=rows, convergence_floor=0.0
    )
    acc = TridentAccelerator(config=config, seed=seed)
    acc.map_mlp(list(dims))
    if with_weights:
        rng = np.random.default_rng(seed + 1)
        acc.set_weights(
            [
                rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
                for i in range(len(dims) - 1)
            ]
        )
    return acc


def _upset_data_tiles(worker, seed=SEED, cells=48, delta=0.6):
    """Silently drift realized levels on every data tile (health stays
    green; only the checksum can see it)."""
    rng = np.random.default_rng((0xABF7, seed))
    acc = worker.acc
    for layer in acc.layers:
        for tile in layer.tiles:
            acc.pes[tile[4]].bank.upset_cells(cells, rng, delta=delta)


# ---------------------------------------------------------------------------
# Attachment
# ---------------------------------------------------------------------------
class TestChecksumAttachment:
    def test_attach_requires_mapped_network(self):
        acc = TridentAccelerator(config=TridentConfig(n_pes=2))
        with pytest.raises(IntegrityError, match="map and program"):
            ChecksumUnit(acc)

    def test_attach_requires_programmed_weights(self):
        acc = _small_acc(with_weights=False)
        with pytest.raises(IntegrityError, match="weights"):
            ChecksumUnit(acc)

    def test_attach_respects_pe_budget(self):
        # One data tile fills the only PE; the checksum row has nowhere
        # to live and must say so rather than stealing a data tile.
        acc = _small_acc(n_pes=1)
        with pytest.raises(IntegrityError, match="enlarge n_pes"):
            ChecksumUnit(acc)

    def test_checksum_rows_stay_out_of_data_tiles(self):
        acc = _small_acc(n_pes=2)
        before = [list(layer.tiles) for layer in acc.layers]
        unit = ChecksumUnit(acc)
        assert len(acc.pes) == 2  # data tile + checksum tile
        assert [list(layer.tiles) for layer in acc.layers] == before
        assert unit.tiles[0][0][2] == 1  # allocated beyond the mapping

    def test_verify_requires_calibration(self):
        unit = ChecksumUnit(_small_acc())
        with pytest.raises(IntegrityError, match="calibrate"):
            unit.violations()

    def test_residuals_require_recorded_batch(self):
        unit = ChecksumUnit(_small_acc())
        with pytest.raises(IntegrityError, match="record"):
            unit.analog_residuals()

    def test_counters_conservation_predicate(self):
        counters = IntegrityCounters(checks=5, tripped=2, reexec_recovered=1)
        assert not counters.conserved()
        counters.escalated = 1
        assert counters.conserved()


# ---------------------------------------------------------------------------
# Clean attestation: no false trips, no perturbation
# ---------------------------------------------------------------------------
class TestCleanAttestation:
    @pytest.mark.parametrize("seed", [3, 7, 11])
    def test_clean_batches_never_trip(self, seed):
        worker = build_integrity_worker(0, DIMS, seed)
        for i in range(3):
            outputs = worker.execute(_batch(seed + i))
            assert np.all(np.isfinite(outputs))
        assert worker.integrity.counters.checks == 3
        assert worker.integrity.counters.tripped == 0
        assert worker.integrity.counters.conserved()

    def test_noisy_tiled_chips_never_trip(self):
        """Detection noise on every tile and checksum row: calibrated
        thresholds absorb it, so clean batches never trip."""
        dims = [64, 48, 10]
        trips = 0
        for chip in range(20):
            acc = TridentAccelerator(
                config=TridentConfig(n_pes=24, bank_rows=16, bank_cols=16),
                noise=NoiseModel.realistic(seed=chip),
                seed=chip,
            )
            acc.map_mlp(dims)
            rng = np.random.default_rng(chip + 1)
            acc.set_weights(
                [rng.normal(0.0, 0.3, (dims[i + 1], dims[i])) for i in range(2)]
            )
            unit = ChecksumUnit(acc, seed=chip)
            unit.calibrate()
            for _ in range(25):
                outputs = acc.forward_batch(
                    rng.uniform(-1.0, 1.0, (16, dims[0])), record=True
                )
                trips += len(unit.violations(outputs))
        assert trips == 0

    def test_attestation_never_perturbs_outputs(self):
        checked = build_integrity_worker(0, DIMS, SEED, with_integrity=True)
        plain = build_integrity_worker(0, DIMS, SEED, with_integrity=False)
        xs = _batch()
        a = checked.execute(xs)
        b = plain.execute(xs)
        assert a.tobytes() == b.tobytes()

    def test_checked_runs_replay_bit_identically(self):
        xs = _batch()
        a = build_integrity_worker(0, DIMS, SEED).execute(xs)
        b = build_integrity_worker(0, DIMS, SEED).execute(xs)
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The escalation ladder, rung by rung
# ---------------------------------------------------------------------------
class TestEscalationLadder:
    def _one_shot_plan(self, mode, magnitude=4.0):
        return ChaosPlan(
            seed=3,
            injections=(
                Injection(
                    t_s=0.0,
                    kind="silent_corrupt",
                    target=0,
                    params={"mode": mode, "magnitude": magnitude},
                ),
            ),
        )

    @pytest.mark.parametrize(
        "mode,magnitude", [("bias", 4.0), ("scale", 100.0)]
    )
    def test_transient_corruption_recovers_by_reexecution(
        self, mode, magnitude
    ):
        worker = build_integrity_worker(0, DIMS, SEED)
        clean = build_integrity_worker(0, DIMS, SEED, with_integrity=False)
        xs = _batch()
        with chaos_scope(self._one_shot_plan(mode, magnitude)) as session:
            outputs = worker.execute(xs)
        counters = worker.integrity.counters
        assert session.applied_counts() == {"silent_corrupt": 1}
        assert counters.tripped == 1
        assert counters.reexec_recovered == 1
        assert counters.escalated == 0
        assert counters.conserved()
        # The re-executed batch is the clean result, not the poison.
        assert outputs.tobytes() == clean.execute(xs).tobytes()
        actions = [i["action"] for i in worker.integrity.incidents]
        assert actions == ["reexec_recovered"]

    def test_faulty_checksum_row_is_exonerated_by_digital_spare(self):
        worker = build_integrity_worker(0, DIMS, SEED)
        (unit,) = worker.integrity.units[0]
        rng = np.random.default_rng(5)
        for tiles in unit.tiles:
            for _, _, pe_index in tiles:
                worker.acc.pes[pe_index].bank.upset_cells(64, rng, delta=1.0)
        outputs = worker.execute(_batch())
        counters = worker.integrity.counters
        assert np.all(np.isfinite(outputs))
        assert counters.tripped == 1
        assert counters.spare_confirmed == 1
        assert counters.escalated == 0
        assert counters.conserved()

    def test_persistent_data_corruption_escalates(self):
        worker = build_integrity_worker(0, DIMS, SEED)
        _upset_data_tiles(worker)
        with pytest.raises(IntegrityFault):
            worker.execute(_batch())
        counters = worker.integrity.counters
        assert counters.escalated == 1
        assert counters.conserved()
        assert worker.batches_failed == 1
        # The escalation is charged to the worker's repair history.
        (manager,) = worker.managers
        assert manager.log.sdc_escalations == 1

    def test_repair_scrubs_and_recalibrates_after_escalation(self):
        worker = build_integrity_worker(0, DIMS, SEED)
        _upset_data_tiles(worker)
        with pytest.raises(IntegrityFault):
            worker.execute(_batch())
        assert worker.repair()
        outputs = worker.execute(_batch(SEED + 1))
        counters = worker.integrity.counters
        assert np.all(np.isfinite(outputs))
        assert counters.escalated == 1  # no new escalation post-scrub
        assert counters.tripped == 1
        assert counters.conserved()

    def test_attest_batch_charges_every_manager(self):
        class _Spy:
            calls = 0

            def note_sdc(self):
                self.calls += 1

        worker = build_integrity_worker(0, DIMS, SEED)
        _upset_data_tiles(worker)
        xs = _batch()
        outputs = worker.acc.forward_batch(xs, record=True)
        spies = [_Spy(), _Spy()]
        with pytest.raises(IntegrityFault):
            attest_batch(
                worker.integrity,
                xs,
                outputs,
                worker_id=0,
                now_s=0.0,
                managers=spies,
            )
        assert [spy.calls for spy in spies] == [1, 1]


# ---------------------------------------------------------------------------
# Sharded pipelines attest the same ladder
# ---------------------------------------------------------------------------
SHARD = TridentConfig(n_pes=8, bank_rows=8, bank_cols=8)
DETERMINISTIC_PV = ProgramVerifyConfig(write_std_levels=0.0, read_std_levels=0.0)
SHARD_DIMS = [8, 32, 32, 8]


def _sharded(with_integrity=True, with_managers=True, seed=3):
    rng = np.random.default_rng(seed)
    weights = [
        rng.normal(0.0, 0.6, (SHARD_DIMS[i + 1], SHARD_DIMS[i]))
        for i in range(len(SHARD_DIMS) - 1)
    ]
    worker = build_sharded_worker(
        0,
        plan_pipeline(SHARD_DIMS, SHARD),
        weights,
        config=SHARD,
        seed=seed,
        program_verify=DETERMINISTIC_PV,
        with_managers=with_managers,
        spare_pes=8,
    )
    if with_integrity:
        worker.integrity = PipelineChecker(worker.pipeline, seed=seed)
    return worker


class TestShardedIntegrity:
    def test_clean_sharded_batch_attests_without_tripping(self):
        worker = _sharded()
        outputs = worker.execute(_batch(width=SHARD_DIMS[0]))
        counters = worker.integrity.counters
        assert np.all(np.isfinite(outputs))
        assert counters.checks == 1
        assert counters.tripped == 0

    def test_sharded_attestation_parity_with_unchecked(self):
        xs = _batch(width=SHARD_DIMS[0])
        a = _sharded(with_integrity=True).execute(xs)
        b = _sharded(with_integrity=False).execute(xs)
        assert a.tobytes() == b.tobytes()

    def test_sharded_escalation_and_scrub(self):
        worker = _sharded()
        rng = np.random.default_rng((0xABF7, 3))
        for acc in worker.accelerators:
            for layer in acc.layers:
                for tile in layer.tiles:
                    acc.pes[tile[4]].bank.upset_cells(48, rng, delta=0.6)
        with pytest.raises(IntegrityFault):
            worker.execute(_batch(width=SHARD_DIMS[0]))
        counters = worker.integrity.counters
        assert counters.escalated == 1
        assert counters.conserved()
        assert worker.repair()
        outputs = worker.execute(_batch(SEED + 2, width=SHARD_DIMS[0]))
        assert np.all(np.isfinite(outputs))
        assert counters.escalated == 1  # clean after the scrub

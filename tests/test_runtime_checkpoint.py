"""Checkpoint codec, atomic store, and accelerator state round-trips."""

import json

import numpy as np
import pytest

from repro import TridentAccelerator, TridentConfig
from repro.devices.program_verify import ProgramVerifyConfig
from repro.errors import CheckpointError
from repro.nn.datasets import make_blobs
from repro.runtime import (
    SCHEMA_VERSION,
    CheckpointStore,
    decode_state,
    describe_checkpoint,
    encode_state,
    load_checkpoint,
    save_checkpoint,
    state_digest,
)
from repro.training.insitu import InSituTrainer

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - exercised only without hypothesis
    HAVE_HYPOTHESIS = False


def _built_acc(seed=0, dims=(6, 8, 3), spare_rows=2):
    acc = TridentAccelerator(
        config=TridentConfig(
            bank_rows=8, bank_cols=8, n_pes=4, spare_rows=spare_rows,
            convergence_floor=0.0,
        ),
        seed=seed,
        program_verify=ProgramVerifyConfig(),
    )
    acc.map_mlp(list(dims))
    rng = np.random.default_rng(seed + 100)
    acc.set_weights(
        [
            rng.normal(0.0, 0.4, (dims[i + 1], dims[i]))
            for i in range(len(dims) - 1)
        ]
    )
    return acc


class TestCodec:
    def test_round_trip_preserves_bits(self):
        payload = {
            "ints": np.arange(12, dtype=np.int64).reshape(3, 4),
            "floats": np.array([0.1, -1e-300, np.nan, np.inf]),
            "bools": np.array([True, False]),
            "scalar": 0.1 + 0.2,
            "nested": {"list": [1, "two", None, 3.5], "empty": {}},
        }
        decoded = decode_state(encode_state(payload))
        assert np.array_equal(
            decoded["ints"], payload["ints"]
        ) and decoded["ints"].dtype == np.int64
        # Bit-level float equality, NaN included.
        assert (
            payload["floats"].tobytes() == decoded["floats"].tobytes()
        )
        assert decoded["bools"].dtype == bool
        assert decoded["scalar"] == payload["scalar"]
        assert decoded["nested"] == payload["nested"]

    def test_encoded_form_is_json_serializable(self):
        encoded = encode_state({"a": np.eye(3), "b": [np.float64(2.5)]})
        text = json.dumps(encoded)
        assert np.array_equal(decode_state(json.loads(text))["a"], np.eye(3))

    def test_unsupported_type_rejected(self):
        with pytest.raises(CheckpointError):
            encode_state({"bad": object()})
        with pytest.raises(CheckpointError):
            encode_state({1: "non-string key"})

    def test_digest_is_stable_and_content_sensitive(self):
        a = encode_state({"x": np.arange(4)})
        b = encode_state({"x": np.arange(4)})
        c = encode_state({"x": np.arange(5)})
        assert state_digest(a) == state_digest(b)
        assert state_digest(a) != state_digest(c)


class TestCheckpointFile:
    def test_save_load_round_trip(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        payload = {"step": 7, "arr": np.linspace(0, 1, 5)}
        save_checkpoint(path, payload, kind="unit")
        loaded = load_checkpoint(path, expect_kind="unit")
        assert loaded["step"] == 7
        assert np.array_equal(loaded["arr"], payload["arr"])

    def test_tampered_file_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"value": 1.25}, kind="unit")
        doc = json.loads(path.read_text())
        doc["payload"]["value"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="hash"):
            load_checkpoint(path, expect_kind="unit")

    def test_wrong_kind_and_garbage_rejected(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"v": 1}, kind="unit")
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path, expect_kind="other")
        garbage = tmp_path / "garbage.ckpt"
        garbage.write_text("not json{")
        with pytest.raises(CheckpointError):
            load_checkpoint(garbage, expect_kind="unit")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "missing.ckpt", expect_kind="unit")

    def test_describe_never_raises(self, tmp_path):
        path = tmp_path / "snap.ckpt"
        save_checkpoint(path, {"v": 1}, kind="unit")
        info = describe_checkpoint(path)
        assert info["valid"] and info["kind"] == "unit"
        assert info["schema"] == SCHEMA_VERSION
        broken = tmp_path / "broken.ckpt"
        broken.write_text("{}")
        assert describe_checkpoint(broken)["valid"] is False
        assert describe_checkpoint(tmp_path / "nope.ckpt")["valid"] is False


class TestCheckpointStore:
    def test_keep_last_prunes_old_steps(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=2)
        for step in (1, 2, 3, 4):
            store.save(step, {"step": step})
        assert store.steps() == [3, 4]
        step, payload = store.latest()
        assert step == 4 and payload["step"] == 4

    def test_latest_skips_corrupt_newest(self, tmp_path):
        store = CheckpointStore(tmp_path, keep_last=5)
        store.save(1, {"step": 1})
        store.save(2, {"step": 2})
        store.path_for(2).write_text("corrupted!")
        with pytest.warns(UserWarning, match="skipping"):
            step, payload = store.latest()
        assert step == 1 and payload["step"] == 1

    def test_empty_store_has_no_latest(self, tmp_path):
        assert CheckpointStore(tmp_path).latest() is None


class TestAcceleratorStateDict:
    def test_forward_bit_identical_after_restore(self):
        acc = _built_acc(seed=3)
        rng = np.random.default_rng(0)
        acc.forward_batch(rng.normal(0, 0.5, (1, 6)))  # advance RNG + wear counters
        state = acc.state_dict()
        # Restore into a *differently seeded* twin: every divergence source
        # must be overwritten by the snapshot.
        twin = TridentAccelerator(
            config=TridentConfig(
                bank_rows=8, bank_cols=8, n_pes=4, spare_rows=2,
                convergence_floor=0.0,
            ),
            seed=999,
            program_verify=ProgramVerifyConfig(),
        )
        twin.load_state_dict(state)
        for _ in range(4):
            x = rng.normal(0, 0.5, (1, 6))
            assert np.array_equal(acc.forward_batch(x), twin.forward_batch(x))
        assert acc.counters.as_dict() == twin.counters.as_dict()

    def test_train_step_bit_identical_after_restore(self):
        acc = _built_acc(seed=5)
        state = acc.state_dict()
        twin = _built_acc(seed=77)
        twin.load_state_dict(state)
        data = make_blobs(n_samples=32, n_features=6, n_classes=3, seed=2)
        a = InSituTrainer(acc, lr=0.05)
        b = InSituTrainer(twin, lr=0.05)
        for start in (0, 8):
            xb, yb = data.x[start : start + 8], data.y[start : start + 8]
            assert a.train_step(xb, yb) == b.train_step(xb, yb)
        assert acc.counters.as_dict() == twin.counters.as_dict()

    def test_restoring_one_snapshot_twice_after_a_write(self):
        """Writes after a restore stay out of the snapshot: restoring the
        same snapshot again gives identical banks and outputs."""
        acc = _built_acc(seed=3)
        state = acc.state_dict()
        twin = _built_acc(seed=7)
        twin.load_state_dict(state)
        rng = np.random.default_rng(5)
        twin.set_weights(
            [rng.normal(0.0, 0.4, (8, 6)), rng.normal(0.0, 0.4, (3, 8))]
        )
        twin.inject_stuck_faults(0.1, stuck_level=254)
        twin.pes[0].bank.remap_row(1)
        twin.load_state_dict(state)
        assert state_digest(encode_state(twin.state_dict())) == state_digest(
            encode_state(acc.state_dict())
        )
        x = rng.normal(0, 0.5, (4, 6))
        assert np.array_equal(twin.forward_batch(x), acc.forward_batch(x))

    def test_survives_disk_round_trip(self, tmp_path):
        acc = _built_acc(seed=9)
        path = tmp_path / "acc.ckpt"
        save_checkpoint(path, {"accelerator": acc.state_dict()}, kind="unit")
        twin = _built_acc(seed=11)
        twin.load_state_dict(
            load_checkpoint(path, expect_kind="unit")["accelerator"]
        )
        x = np.random.default_rng(1).normal(0, 0.5, (1, 6))
        assert np.array_equal(acc.forward_batch(x), twin.forward_batch(x))

    def test_fault_and_remap_state_round_trips(self):
        acc = _built_acc(seed=13)
        acc.inject_stuck_faults(0.1, stuck_level=254)
        acc.pes[0].bank.remap_row(1)
        # Remap leaves the bank needing a reprogram; snapshot mid-repair.
        state = acc.state_dict()
        twin = _built_acc(seed=14)
        twin.load_state_dict(state)
        src, dst = acc.pes[0].bank, twin.pes[0].bank
        assert np.array_equal(src._stuck_mask, dst._stuck_mask)
        assert src.remapped_rows == dst.remapped_rows
        assert src.free_spare_rows == dst.free_spare_rows
        assert dst._needs_reprogram

    def test_geometry_mismatch_rejected(self):
        acc = _built_acc(seed=1)
        other = TridentAccelerator(
            config=TridentConfig(
                bank_rows=10, bank_cols=10, n_pes=4, spare_rows=2
            ),
            seed=1,
            program_verify=ProgramVerifyConfig(),
        )
        with pytest.raises(CheckpointError, match="bank_rows"):
            other.load_state_dict(acc.state_dict())


@pytest.mark.skipif(not HAVE_HYPOTHESIS, reason="hypothesis not installed")
class TestStateDictProperty:
    @settings(max_examples=8, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        fraction=st.floats(min_value=0.0, max_value=0.2),
        steps=st.integers(min_value=0, max_value=2),
    )
    def test_round_trip_is_bit_identical(self, seed, fraction, steps):
        """state_dict -> load_state_dict preserves every observable:
        physical levels, spare/remap state, counters, and the next
        forward/train_step outputs (property test over random runs)."""
        acc = _built_acc(seed=seed)
        if fraction > 0:
            acc.inject_stuck_faults(fraction, stuck_level=254)
            acc.set_weights(
                [layer.weights.copy() for layer in acc.layers]
            )
        data = make_blobs(n_samples=24, n_features=6, n_classes=3, seed=4)
        trainer = InSituTrainer(acc, lr=0.05)
        for _ in range(steps):
            trainer.train_step(data.x[:8], data.y[:8])

        state = acc.state_dict()
        twin = _built_acc(seed=seed + 1)
        twin.load_state_dict(state)

        for pe_a, pe_b in zip(acc.pes, twin.pes):
            assert np.array_equal(
                pe_a.bank.physical_levels, pe_b.bank.physical_levels
            )
            assert pe_a.bank.remapped_rows == pe_b.bank.remapped_rows
            assert pe_a.bank.free_spare_rows == pe_b.bank.free_spare_rows
        assert acc.counters.as_dict() == twin.counters.as_dict()

        x = np.random.default_rng(seed ^ 0x5EED).normal(0, 0.5, (1, 6))
        assert np.array_equal(acc.forward_batch(x), twin.forward_batch(x))
        t2 = InSituTrainer(twin, lr=0.05)
        assert trainer.train_step(data.x[8:16], data.y[8:16]) == t2.train_step(
            data.x[8:16], data.y[8:16]
        )

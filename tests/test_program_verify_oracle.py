"""Program-verify writes agree bit for bit with their straightforward forms.

The writer keeps its unconverged cells as a compacted index array, and a
verified bank write quantizes and stores the block once.  The oracles
below are the plain forms of both, kept as test code only:

- ``mask_write``: the verify loop over full-size boolean masks, every
  iteration re-indexing the targets and the result arrays by the mask.
- ``two_pass_program_verified``: a nominal :meth:`WeightBank.program`,
  then the writer's levels written over the block, then the accounting
  corrected from one nominal pulse to the loop's real cost.

Both must give the same arrays, the same floats under ``==`` and leave
every generator in the same state.
"""

import numpy as np
import pytest

from repro.arch.weight_bank import BankStats, WeightBank
from repro.devices.noise import NoiseModel
from repro.devices.program_verify import ProgramVerifyConfig, ProgramVerifyWriter

SEEDS = range(5)
SHAPES = [(64, 64), (16, 16), (10, 64), (1, 1), (37,)]
CONFIGS = {
    "default": ProgramVerifyConfig(),
    "max_iterations=3": ProgramVerifyConfig(max_iterations=3),
    "noiseless": ProgramVerifyConfig(write_std_levels=0.0, read_std_levels=0.0),
    "tolerance=0.2": ProgramVerifyConfig(tolerance_levels=0.2),
}


def mask_write(writer, targets, frozen=None, frozen_levels=None):
    """(achieved, pulses, reads, converged) from the full-mask verify loop."""
    cfg = writer.config
    rng = writer._rng
    targets = np.asarray(targets, dtype=np.float64)
    shape = targets.shape
    achieved = np.full(shape, np.nan)
    pulses = np.zeros(shape, dtype=np.int64)
    reads = np.zeros(shape, dtype=np.int64)
    pending = np.ones(shape, dtype=bool)
    for _ in range(cfg.max_iterations):
        if not pending.any():
            break
        n = int(pending.sum())
        landed = targets[pending] + rng.standard_normal(n) * cfg.write_std_levels
        landed = np.clip(landed, 0, cfg.levels - 1)
        if frozen is not None:
            landed = np.where(frozen[pending], frozen_levels[pending], landed)
        achieved[pending] = landed
        pulses[pending] += 1
        observed = landed + rng.standard_normal(n) * cfg.read_std_levels
        reads[pending] += 1
        ok = np.abs(observed - targets[pending]) <= cfg.tolerance_levels
        still = pending.copy()
        still[pending] = ~ok
        pending = still
    return achieved, pulses, reads, ~pending


def write_case(shape, seed, frozen_cells):
    """Targets over the whole grid (edges included) and, optionally, a
    frozen mask whose levels sometimes sit on the target."""
    rng = np.random.default_rng(1000 + seed)
    targets = rng.integers(0, 255, shape).astype(np.float64)
    targets.flat[0] = 0.0
    targets.flat[-1] = 254.0
    if not frozen_cells:
        return targets, None, None
    frozen = rng.random(shape) < 0.2
    levels = rng.integers(0, 255, shape).astype(np.float64)
    levels = np.where(rng.random(shape) < 0.3, targets, levels)
    return targets, frozen, levels


class TestWriterOracle:
    @pytest.mark.parametrize("config", CONFIGS.values(), ids=list(CONFIGS))
    @pytest.mark.parametrize("frozen_cells", [False, True], ids=["clean", "frozen"])
    @pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
    def test_matches_mask_loop(self, shape, frozen_cells, config):
        for seed in SEEDS:
            targets, frozen, levels = write_case(shape, seed, frozen_cells)
            fast = ProgramVerifyWriter(config, seed=seed)
            slow = ProgramVerifyWriter(config, seed=seed)
            if frozen_cells:
                got = fast.write(targets, frozen_mask=frozen, frozen_levels=levels)
            else:
                got = fast.write(targets)
            achieved, pulses, reads, converged = mask_write(
                slow, targets, frozen, levels
            )
            assert np.array_equal(got.achieved_levels, achieved, equal_nan=True)
            assert got.achieved_levels.dtype == achieved.dtype
            assert np.array_equal(got.pulses, pulses)
            assert got.pulses.dtype == pulses.dtype
            assert got.total_reads == int(reads.sum())
            assert np.array_equal(got.converged, converged)
            assert fast._rng.bit_generator.state == slow._rng.bit_generator.state

    def test_non_contiguous_targets_keep_flat_order(self):
        targets = np.asfortranarray(write_case((16, 24), 0, False)[0])
        got = ProgramVerifyWriter(seed=4).write(targets[:, ::2])
        slow = ProgramVerifyWriter(seed=4)
        achieved, pulses, _, converged = mask_write(slow, targets[:, ::2])
        assert np.array_equal(got.achieved_levels, achieved)
        assert np.array_equal(got.pulses, pulses)
        assert np.array_equal(got.converged, converged)


# ---------------------------------------------------------------------------
def two_pass_program_verified(bank, weights, writer):
    """A nominal program, the writer's levels over it, then the correction."""
    w = np.atleast_2d(np.asarray(weights, dtype=np.float64))
    bank.program(w)
    r, c = w.shape
    phys = bank._row_map[:r]
    targets = bank._quantize(w).astype(np.float64)
    frozen = bank._stuck_mask[phys, :c]
    if frozen.any():
        result = writer.write(
            targets,
            frozen_mask=frozen,
            frozen_levels=bank._stuck_levels[phys, :c].astype(np.float64),
        )
    else:
        result = writer.write(targets)
    achieved = np.rint(np.clip(result.achieved_levels, 0, bank.levels - 1)).astype(
        np.int64
    )
    bank._levels[phys, :c] = achieved
    bank._realized[phys, :c] = bank._dequantize(achieved)
    bank._last_converged = result.converged.copy()
    bank._last_level_errors = np.abs(achieved - targets)
    bank._unconverged_mask[:] = False
    bank._unconverged_mask[phys, :c] = ~result.converged
    extra_pulses = result.total_pulses - r * c
    bank.stats.cells_written += extra_pulses
    bank.stats.write_energy_j += (
        extra_pulses * writer.config.write_energy_j
        + result.total_reads * writer.config.read_energy_j
    )
    extra_rounds = max(int(result.pulses.max(initial=0)) - 1, 0)
    bank.stats.write_time_s += extra_rounds * bank.tuning.write_time()
    return bank._realized[phys, :c].copy(), result


def damaged_bank(remap, stuck):
    """A 16x16 bank with two spare rows, optionally a remapped row and
    stuck cells both inside and outside a 12x10 block."""
    bank = WeightBank(16, 16, spare_rows=2, convergence_floor=0.0)
    if stuck:
        bank.inject_stuck_faults(0.15, np.random.default_rng(7), stuck_level=40)
        bank.inject_stuck_faults(0.05, np.random.default_rng(8), stuck_level=200)
    if remap:
        bank.remap_row(3)
    return bank


def assert_same_bank(fast, slow):
    assert np.array_equal(fast.physical_levels, slow.physical_levels)
    assert np.array_equal(fast.realized_weights, slow.realized_weights)
    assert np.array_equal(fast.logical_weights, slow.logical_weights)
    assert np.array_equal(fast.unconverged_mask, slow.unconverged_mask)
    assert np.array_equal(fast.last_converged, slow.last_converged)
    assert np.array_equal(fast.last_write_error_levels, slow.last_write_error_levels)
    assert fast.occupancy == slow.occupancy
    for field in BankStats.__dataclass_fields__:
        assert getattr(fast.stats, field) == getattr(slow.stats, field), field


class TestVerifiedWriteOracle:
    @pytest.mark.parametrize("stuck", [False, True], ids=["healthy", "stuck"])
    @pytest.mark.parametrize("remap", [False, True], ids=["identity", "remapped"])
    def test_matches_two_pass(self, remap, stuck):
        fast, slow = damaged_bank(remap, stuck), damaged_bank(remap, stuck)
        if stuck:
            inside = fast._stuck_mask[fast.active_row_map[:12], :10]
            assert inside.any() and fast._stuck_mask.sum() > inside.sum()
        fast_writer = ProgramVerifyWriter(seed=11)
        slow_writer = ProgramVerifyWriter(seed=11)
        rng = np.random.default_rng(3)
        # Several writes of different blocks: the float counters accumulate.
        for shape in [(12, 10), (16, 16), (12, 10), (5, 16)]:
            w = rng.uniform(-1, 1, shape)
            got, got_result = fast.program_verified(w, fast_writer)
            want, want_result = two_pass_program_verified(slow, w, slow_writer)
            assert np.array_equal(got, want)
            assert np.array_equal(got_result.pulses, want_result.pulses)
            assert_same_bank(fast, slow)
        assert (
            fast_writer._rng.bit_generator.state == slow_writer._rng.bit_generator.state
        )

    def test_matches_two_pass_after_a_nominal_write(self):
        fast, slow = damaged_bank(True, True), damaged_bank(True, True)
        w = np.random.default_rng(5).uniform(-1, 1, (12, 10))
        fast.program(w)
        slow.program(w)
        fast.program_verified(w[:8], ProgramVerifyWriter(seed=2))
        two_pass_program_verified(slow, w[:8], ProgramVerifyWriter(seed=2))
        assert_same_bank(fast, slow)


class TestProgrammingNoiseDraw:
    """With programming noise on, a verified write takes and discards the
    r x c draw a nominal write would make, so the noise model's stream is
    that of a nominal write followed by the verify loop."""

    def test_verified_write_draws_one_block_of_normals(self):
        bank = WeightBank(noise=NoiseModel.realistic(seed=9), programming_noise_levels=1.0)
        w = np.random.default_rng(0).uniform(-1, 1, (12, 10))
        bank.program_verified(w, ProgramVerifyWriter(seed=1))
        fresh = np.random.default_rng(9)
        fresh.standard_normal(12 * 10)
        assert bank.noise.rng.bit_generator.state == fresh.bit_generator.state

    def test_no_programming_noise_draws_nothing(self):
        bank = WeightBank(noise=NoiseModel.realistic(seed=9))
        bank.program_verified(np.full((12, 10), 0.5), ProgramVerifyWriter(seed=1))
        fresh = np.random.default_rng(9)
        assert bank.noise.rng.bit_generator.state == fresh.bit_generator.state

    def test_noisy_verified_write_matches_two_pass(self):
        def make():
            return WeightBank(
                noise=NoiseModel.realistic(seed=9), programming_noise_levels=1.0
            )

        fast, slow = make(), make()
        w = np.random.default_rng(0).uniform(-1, 1, (12, 10))
        fast.program_verified(w, ProgramVerifyWriter(seed=1))
        two_pass_program_verified(slow, w, ProgramVerifyWriter(seed=1))
        assert_same_bank(fast, slow)
        assert fast.noise.rng.bit_generator.state == slow.noise.rng.bit_generator.state

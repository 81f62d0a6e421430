"""Tests for iterative program-and-verify PCM writing."""

import numpy as np
import pytest

from repro.devices.program_verify import (
    ProgramVerifyConfig,
    ProgramVerifyWriter,
)
from repro.errors import ConfigError, ProgrammingError

TOLERANCES = (3.0, 2.0, 1.0, 0.5)


@pytest.fixture
def writer():
    return ProgramVerifyWriter(seed=1)


class TestConfig:
    def test_defaults_valid(self):
        cfg = ProgramVerifyConfig()
        assert cfg.levels == 255
        assert cfg.max_iterations == 10

    def test_validation(self):
        with pytest.raises(ConfigError):
            ProgramVerifyConfig(write_std_levels=-1)
        with pytest.raises(ConfigError):
            ProgramVerifyConfig(tolerance_levels=0)
        with pytest.raises(ConfigError):
            ProgramVerifyConfig(max_iterations=0)
        with pytest.raises(ConfigError):
            ProgramVerifyConfig(levels=1)


class TestWrite:
    def test_targets_validated(self, writer):
        with pytest.raises(ProgrammingError):
            writer.write(np.array([300.0]))
        with pytest.raises(ProgrammingError):
            writer.write(np.array([-1.0]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_targets_rejected(self, bad):
        writer = ProgramVerifyWriter(seed=4)
        with pytest.raises(ProgrammingError, match="finite"):
            writer.write(np.array([[bad, 10.0]]))
        # Rejected before any draw.
        fresh = np.random.default_rng(4)
        assert writer._rng.bit_generator.state == fresh.bit_generator.state

    @pytest.mark.parametrize("bad", [900.0, -3.0, np.nan])
    def test_off_grid_frozen_levels_rejected(self, writer, bad):
        with pytest.raises(ProgrammingError, match="frozen levels"):
            writer.write(
                np.array([[5.0, 10.0]]),
                frozen_mask=np.array([[False, True]]),
                frozen_levels=np.array([[0.0, bad]]),
            )

    def test_unfrozen_cells_ignore_their_frozen_level(self, writer):
        result = writer.write(
            np.array([5.0, 10.0]),
            frozen_mask=np.array([True, False]),
            frozen_levels=np.array([5.0, np.nan]),
        )
        assert result.achieved_levels[0] == 5.0
        assert np.isfinite(result.achieved_levels[1])

    def test_converges_with_default_noise(self, writer):
        targets = np.random.default_rng(0).integers(0, 255, size=(16, 16))
        result = writer.write(targets)
        assert result.convergence_rate > 0.95
        assert result.achieved_levels.shape == (16, 16)

    def test_achieved_near_targets(self, writer):
        targets = np.full((16, 16), 128.0)
        result = writer.write(targets)
        errors = result.level_errors(targets)
        # Converged cells verified within tolerance + read noise slack.
        cfg = writer.config
        slack = cfg.tolerance_levels + 4 * cfg.read_std_levels
        assert np.abs(errors[result.converged]).max() <= slack

    def test_multiple_pulses_needed_on_average(self, writer):
        targets = np.full(1000, 100.0)
        result = writer.write(targets)
        # write_std 1.5 vs tolerance 1.0: acceptance < 1, so mean > 1.
        assert result.mean_pulses_per_cell > 1.0

    def test_noiseless_writer_single_pulse(self):
        cfg = ProgramVerifyConfig(write_std_levels=0.0, read_std_levels=0.0)
        result = ProgramVerifyWriter(cfg, seed=0).write(np.arange(255.0))
        assert result.total_pulses == 255
        assert result.convergence_rate == 1.0
        assert np.array_equal(result.achieved_levels, np.arange(255.0))

    def test_impossible_tolerance_hits_iteration_cap(self):
        cfg = ProgramVerifyConfig(
            write_std_levels=50.0, tolerance_levels=0.1, max_iterations=4
        )
        result = ProgramVerifyWriter(cfg, seed=0).write(np.full(200, 128.0))
        assert result.pulses.max() == 4
        assert result.convergence_rate < 0.5

    def test_seeded_repeatability(self):
        targets = np.random.default_rng(1).integers(0, 255, size=64)
        a = ProgramVerifyWriter(seed=9).write(targets)
        b = ProgramVerifyWriter(seed=9).write(targets)
        assert np.array_equal(a.achieved_levels, b.achieved_levels)
        assert np.array_equal(a.pulses, b.pulses)

    def test_energy_accounts_pulses_and_reads(self, writer):
        result = writer.write(np.full(10, 100.0))
        cfg = writer.config
        expected = (
            result.total_pulses * cfg.write_energy_j
            + result.total_reads * cfg.read_energy_j
        )
        assert result.energy_j == pytest.approx(expected)

    def test_one_read_per_pulse(self, writer):
        result = writer.write(np.full(100, 50.0))
        assert result.total_reads == result.total_pulses


class TestExpectedPulses:
    @pytest.mark.parametrize("tolerance", TOLERANCES)
    def test_matches_monte_carlo(self, tolerance):
        writer = ProgramVerifyWriter(
            ProgramVerifyConfig(tolerance_levels=tolerance), seed=3
        )
        targets = np.full(20000, 128.0)
        result = writer.write(targets)
        assert result.mean_pulses_per_cell == pytest.approx(
            writer.expected_pulses_per_cell(), rel=0.05
        )

    def test_noiseless_expectation_is_one(self):
        cfg = ProgramVerifyConfig(write_std_levels=0.0, read_std_levels=0.0)
        assert ProgramVerifyWriter(cfg).expected_pulses_per_cell() == 1.0

    def test_tighter_tolerance_needs_more_pulses(self):
        loose = ProgramVerifyWriter(ProgramVerifyConfig(tolerance_levels=2.0))
        tight = ProgramVerifyWriter(ProgramVerifyConfig(tolerance_levels=0.5))
        assert (
            tight.expected_pulses_per_cell() > loose.expected_pulses_per_cell()
        )



@pytest.fixture(scope="module")
def sweep():
    """(targets, {label: result}): single-pulse writing ("single") and the
    verify loop at each tolerance, on the same 4,096 random targets."""
    targets = np.random.default_rng(2).integers(0, 255, size=4096).astype(float)
    single_cfg = ProgramVerifyConfig(max_iterations=1, tolerance_levels=1.0)
    results = {"single": ProgramVerifyWriter(single_cfg, seed=2).write(targets)}
    for tol in TOLERANCES:
        cfg = ProgramVerifyConfig(tolerance_levels=tol)
        results[tol] = ProgramVerifyWriter(cfg, seed=2).write(targets)
    return targets, results


class TestToleranceSweep:
    """Write fidelity against energy across the acceptance tolerance."""

    def test_tight_verify_beats_single_pulse_error(self, sweep):
        targets, results = sweep
        tight = np.abs(results[0.5].level_errors(targets)).mean()
        single = np.abs(results["single"].level_errors(targets)).mean()
        assert tight < single

    def test_tight_verify_costs_more_energy(self, sweep):
        _, results = sweep
        assert results[0.5].energy_j > results["single"].energy_j

    def test_tighter_tolerance_takes_more_pulses(self, sweep):
        _, results = sweep
        pulses = [results[tol].mean_pulses_per_cell for tol in TOLERANCES]
        assert all(a <= b for a, b in zip(pulses, pulses[1:]))

"""Tests: power traces from schedules + program-verify bank integration."""

import numpy as np
import pytest

from repro.arch.weight_bank import WeightBank
from repro.dataflow.cost_model import PhotonicArch
from repro.dataflow.power_trace import power_trace
from repro.dataflow.schedule_sim import simulate_layer
from repro.dataflow.tiling import TileSchedule
from repro.devices.program_verify import (
    ProgramVerifyConfig,
    ProgramVerifyResult,
    ProgramVerifyWriter,
)
from repro.errors import ConfigError
from repro.nn.layers import GEMMShape


@pytest.fixture(scope="module")
def arch():
    return PhotonicArch.trident()


def sched(m, k, n):
    return TileSchedule(GEMMShape(m=m, k=k, n=n), 16, 16)


class TestPowerTrace:
    def test_peak_never_exceeds_budget(self, arch):
        """The paper's sizing argument holds dynamically: even with every
        PE mid-write, the chip stays within 30 W."""
        sim = simulate_layer("l", sched(44 * 16, 256, 200), arch)
        trace = power_trace(sim, arch)
        assert trace.peak_w <= 30.0 + 1e-9
        assert trace.peak_w == pytest.approx(
            arch.n_pes * arch.sizing_power_pe_w, rel=0.01
        )

    def test_post_tuning_plateau_at_streaming_power(self, arch):
        """Table III's 0.67 -> 0.11 W drop appears in the trace: once all
        banks are written, chip power sits at PEs x streaming power."""
        sim = simulate_layer("l", sched(44 * 16, 16, 5000), arch)
        trace = power_trace(sim, arch, n_samples=4000)
        # Sample a window well inside the streaming phase.
        mid = (trace.times_s > 0.5 * sim.makespan_s) & (
            trace.times_s < 0.9 * sim.makespan_s
        )
        plateau = trace.power_w[mid]
        assert np.allclose(plateau, arch.n_pes * arch.streaming_power_pe_w)

    def test_resident_layer_peaks_at_sizing_power(self, arch):
        """A full-bank tile set with long streaming: the write burst peaks
        at PEs x sizing power within the 30 W budget, and streaming draws
        Table III's 83.34% less."""
        sim = simulate_layer("l", sched(44 * 16, 16, 5000), arch)
        trace = power_trace(sim, arch, n_samples=4000)
        assert trace.peak_w <= 30.0
        assert trace.peak_w == pytest.approx(
            arch.n_pes * arch.sizing_power_pe_w, rel=0.01
        )
        drop = 1 - arch.streaming_power_pe_w / arch.sizing_power_pe_w
        assert drop == pytest.approx(0.8334, abs=0.001)

    def test_trace_energy_matches_event_energy(self, arch):
        """Integrating the trace reproduces the closed-form energy.

        Write-phase power x write time == cells x write energy only at full
        occupancy, so use an exactly full bank tile set.
        """
        sim = simulate_layer("l", sched(44 * 16, 16, 2000), arch)
        trace = power_trace(sim, arch, n_samples=20_000)
        closed = (
            sim.streaming_energy_j
            + sim.n_tiles * arch.sizing_power_pe_w * arch.write_time_s
        )
        assert trace.energy_j() == pytest.approx(closed, rel=0.02)

    def test_single_tile_profile(self, arch):
        sim = simulate_layer("l", sched(16, 16, 1000), arch)
        trace = power_trace(sim, arch, n_samples=1000)
        # One PE active: first the write level, then the streaming level.
        assert trace.power_w[1] == pytest.approx(arch.sizing_power_pe_w)
        assert trace.power_w[-2] == pytest.approx(arch.streaming_power_pe_w)

    def test_mean_below_peak(self, arch):
        sim = simulate_layer("l", sched(100, 100, 300), arch)
        trace = power_trace(sim, arch)
        assert trace.mean_w < trace.peak_w

    def test_requires_events(self, arch):
        sim = simulate_layer("l", sched(16, 16, 10), arch, keep_events=False)
        with pytest.raises(ConfigError):
            power_trace(sim, arch)

    def test_rejects_bad_sampling(self, arch):
        sim = simulate_layer("l", sched(16, 16, 10), arch)
        with pytest.raises(ConfigError):
            power_trace(sim, arch, n_samples=1)


class TestProgramWithVerify:
    def test_accuracy_improves_over_noisy_single_pulse(self, rng):
        w = rng.uniform(-1, 1, (16, 16))
        cfg = ProgramVerifyConfig(write_std_levels=3.0, tolerance_levels=1.0)

        verified_bank = WeightBank()
        realized, result = verified_bank.program_verified(
            w, ProgramVerifyWriter(cfg, seed=5)
        )
        single_cfg = ProgramVerifyConfig(
            write_std_levels=3.0, tolerance_levels=1.0, max_iterations=1
        )
        single_bank = WeightBank()
        single_real, _ = single_bank.program_verified(
            w, ProgramVerifyWriter(single_cfg, seed=5)
        )
        assert np.abs(realized - w).mean() < np.abs(single_real - w).mean()

    def test_accounting_reflects_extra_pulses(self, rng):
        w = rng.uniform(-1, 1, (8, 8))
        bank = WeightBank()
        _, result = bank.program_verified(w, ProgramVerifyWriter(seed=2))
        assert bank.stats.cells_written == result.total_pulses
        expected_energy = (
            result.total_pulses * 660e-12 + result.total_reads * 20e-12
        )
        assert bank.stats.write_energy_j == pytest.approx(expected_energy)

    def test_matvec_consistent_with_achieved_levels(self, rng):
        w = rng.uniform(-1, 1, (8, 8))
        bank = WeightBank()
        realized, _ = bank.program_verified(w, ProgramVerifyWriter(seed=3))
        x = rng.uniform(-1, 1, 8)
        assert np.allclose(bank.matmat(x[:, None])[:, 0], realized @ x)

    def test_noiseless_writer_equals_plain_program(self, rng):
        w = rng.uniform(-1, 1, (8, 8))
        cfg = ProgramVerifyConfig(write_std_levels=0.0, read_std_levels=0.0)
        pv_bank = WeightBank()
        realized, _ = pv_bank.program_verified(w, ProgramVerifyWriter(cfg, seed=0))
        plain = WeightBank()
        expected = plain.program(w)
        assert np.allclose(realized, expected)

    def test_write_time_includes_extra_rounds(self, rng):
        """The verify loop's extra rounds must show up in the recorded
        write time (and hence in any time estimate derived from it)."""
        w = rng.uniform(-1, 1, (8, 8))
        cfg = ProgramVerifyConfig(
            write_std_levels=50.0, tolerance_levels=0.1, max_iterations=4
        )
        bank = WeightBank()
        _, result = bank.program_verified(w, ProgramVerifyWriter(cfg, seed=0))
        rounds = int(result.pulses.max())
        assert rounds > 1
        assert bank.stats.write_time_s == pytest.approx(
            rounds * bank.tuning.write_time()
        )

    def test_already_converged_writer_never_refunds_time(self, rng):
        """A pathological writer reporting zero pulses (targets already
        reached) must not *subtract* the write time the nominal program
        charged — the round increment clamps at zero."""

        class ConvergedWriter:
            config = ProgramVerifyConfig()

            def write(self, targets):
                t = np.asarray(targets, dtype=np.float64)
                return ProgramVerifyResult(
                    achieved_levels=t.copy(),
                    pulses=np.zeros(t.shape, dtype=np.int64),
                    converged=np.ones(t.shape, dtype=bool),
                    config=self.config,
                )

        w = rng.uniform(-1, 1, (8, 8))
        bank = WeightBank()
        realized, _ = bank.program_verified(w, ConvergedWriter())
        assert bank.stats.write_time_s == pytest.approx(bank.tuning.write_time())
        assert bank.stats.write_time_s >= 0.0
        plain = WeightBank()
        assert np.allclose(realized, plain.program(w))

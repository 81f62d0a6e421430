"""Tests: the discrete-event schedule simulator validates the closed forms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
from repro.dataflow.schedule_sim import simulate_layer, simulate_model
from repro.dataflow.tiling import TileSchedule
from repro.errors import ConfigError, ScheduleError
from repro.nn import build_model
from repro.nn.graph import Network
from repro.nn.layers import GEMMShape, Pool, TensorShape


@pytest.fixture(scope="module")
def arch():
    return PhotonicArch.trident()


def sched(m, k, n, groups=1):
    return TileSchedule(GEMMShape(m=m, k=k, n=n, groups=groups), 16, 16)


def analytical_makespan_s(schedule, arch, batch=1):
    """The cost model's closed form for one layer's compute time:
    ``rounds x (t_write + batch x positions / f)``."""
    round_time = arch.write_time_s + batch * schedule.positions / arch.symbol_rate_hz
    return schedule.rounds(arch.n_pes) * round_time


class TestLayerSimulation:
    def test_single_tile(self, arch):
        s = sched(16, 16, 100)
        result = simulate_layer("l", s, arch, batch=1)
        assert result.n_tiles == 1
        expected = arch.write_time_s + 100 / arch.symbol_rate_hz
        assert result.makespan_s == pytest.approx(expected)

    def test_matches_closed_form_exactly(self, arch):
        """Uniform tiles under greedy scheduling == rounds x round_time."""
        for dims in ((256, 2304, 3136), (64, 576, 784), (100, 100, 50)):
            s = sched(*dims)
            sim = simulate_layer("l", s, arch, batch=4, keep_events=False)
            assert sim.makespan_s == pytest.approx(
                analytical_makespan_s(s, arch, batch=4), rel=1e-12
            )

    def test_events_never_overlap_per_pe(self, arch):
        s = sched(128, 128, 49)
        result = simulate_layer("l", s, arch)
        by_pe: dict[int, list] = {}
        for e in result.events:
            by_pe.setdefault(e.pe, []).append(e)
        for events in by_pe.values():
            events.sort(key=lambda e: e.start_s)
            for a, b in zip(events, events[1:]):
                assert b.start_s >= a.end_s - 1e-15

    def test_all_tiles_scheduled(self, arch):
        s = sched(64, 64, 10)
        result = simulate_layer("l", s, arch)
        assert result.n_tiles == s.n_tiles
        assert sorted(e.tile for e in result.events) == list(range(s.n_tiles))

    def test_utilization_full_when_tiles_multiple_of_pes(self, arch):
        # 176 tiles (2816/16 rows) over 44 PEs: exactly 4 rounds, no idle.
        s = sched(2816, 16, 100)
        result = simulate_layer("l", s, arch)
        assert result.pe_utilization(arch.n_pes) == pytest.approx(1.0)

    def test_utilization_below_one_with_remainder(self, arch):
        s = sched(45 * 16, 16, 100)  # 45 tiles on 44 PEs -> straggler round
        result = simulate_layer("l", s, arch)
        assert result.pe_utilization(arch.n_pes) < 0.6

    def test_energy_matches_cost_model(self, arch):
        """Event-level energy == the cost model's tuning + streaming."""
        s = sched(256, 2304, 3136)
        batch = 8
        sim = simulate_layer("l", s, arch, batch=batch, keep_events=False)
        cm = PhotonicCostModel(arch, batch=batch)
        (cost,) = cm.layer_costs(
            ("l",), *(np.array([v]) for v in (256, 2304, 3136, 1, 56 * 56 * 64, True))
        ).records()
        # Cost model reports per-inference; simulation is per-batch.
        assert sim.tuning_energy_j == pytest.approx(
            cost.energy_breakdown["tuning"] * batch
        )
        assert sim.streaming_energy_j == pytest.approx(
            cost.energy_breakdown["streaming"] * batch
        )

    def test_rejects_bad_batch(self, arch):
        with pytest.raises(ConfigError):
            simulate_layer("l", sched(4, 4, 4), arch, batch=0)

    @settings(max_examples=20, deadline=None)
    @given(
        m=st.integers(1, 300),
        k=st.integers(1, 300),
        n=st.integers(1, 200),
    )
    def test_simulation_never_beats_closed_form(self, arch, m, k, n):
        """Property: greedy makespan equals the analytical bound (uniform
        tiles), and certainly never exceeds it."""
        s = sched(m, k, n)
        sim = simulate_layer("l", s, arch, keep_events=False)
        analytical = analytical_makespan_s(s, arch)
        assert sim.makespan_s == pytest.approx(analytical, rel=1e-9)


class TestModelSimulation:
    def test_googlenet_matches_cost_model_time(self, arch):
        """Whole-model simulated makespan == analytical compute time.
        GoogleNet: every weight tensor fits L2, so no layer is DRAM-bound
        and the cost model's max(compute, dram) reduces to compute."""
        net = build_model("googlenet")
        batch = 8
        sim = simulate_model(net, arch, batch=batch)
        cm = PhotonicCostModel(arch, batch=batch)
        cost = cm.model_cost(net)
        assert sim.makespan_s / batch == pytest.approx(cost.time_s, rel=0.01)

    def test_layer_count(self, arch):
        sim = simulate_model(build_model("alexnet"), arch)
        assert len(sim.layers) == 8

    def test_dram_bound_layers_simulate_faster_than_cost_model(self, arch):
        """AlexNet's fc6 weights (37.7 MB) exceed L2: the cost model adds
        DRAM transfer time the pure compute simulation does not see."""
        net = build_model("alexnet")
        sim = simulate_model(net, arch, batch=8)
        cost = PhotonicCostModel(arch, batch=8).model_cost(net)
        assert sim.makespan_s / 8 < cost.time_s

    def test_rejects_no_compute(self, arch):
        net = Network("empty", TensorShape(8, 8, 3))
        net.add(Pool("p", kernel=2))
        with pytest.raises(ScheduleError):
            simulate_model(net, arch)

    def test_energy_totals_positive(self, arch):
        sim = simulate_model(build_model("googlenet"), arch, batch=2)
        assert sim.tuning_energy_j > 0
        assert sim.streaming_energy_j > 0

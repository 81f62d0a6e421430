"""Tests for the thermal-crosstalk resolution model and PE pipelining."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import TridentAccelerator
from repro.arch.config import TridentConfig
from repro.dataflow.cost_model import (
    PhotonicArch,
    PhotonicCostModel,
    forward_batch_latency_s,
)
from repro.devices.thermal_crosstalk import (
    ThermalCrosstalkModel,
    thermal_resolution_sweep,
)
from repro.errors import ConfigError, MappingError
from repro.nn.graph import Network
from repro.nn.layers import Dense, TensorShape
from repro.serving.worker import DISPATCH_OVERHEAD_S, AcceleratorWorker
from repro.sharding import layer_tile_count, reduction_tile_count, single_chip_pipeline


class TestCouplingMatrix:
    def test_diagonal_unity(self):
        m = ThermalCrosstalkModel(n_rings=8).coupling_matrix()
        assert np.allclose(np.diag(m), 1.0)

    def test_symmetric(self):
        m = ThermalCrosstalkModel(n_rings=8).coupling_matrix()
        assert np.allclose(m, m.T)

    def test_adjacent_coupling_as_specified(self):
        model = ThermalCrosstalkModel(n_rings=8, adjacent_coupling=0.01)
        m = model.coupling_matrix()
        assert m[3, 4] == pytest.approx(0.01)

    def test_decays_with_distance(self):
        m = ThermalCrosstalkModel(n_rings=8).coupling_matrix()
        assert m[0, 1] > m[0, 2] > m[0, 3]


class TestWeightErrors:
    def test_zero_coupling_zero_error(self):
        model = ThermalCrosstalkModel(n_rings=8, adjacent_coupling=0.0)
        errors = model.weight_errors(np.random.default_rng(0).uniform(0, 1, 8))
        assert np.allclose(errors, 0.0)

    def test_all_on_is_worst_case(self):
        model = ThermalCrosstalkModel(n_rings=8, adjacent_coupling=0.01)
        rng = np.random.default_rng(1)
        worst = model.worst_case_error()
        for _ in range(50):
            errors = model.weight_errors(rng.uniform(0, 1, 8))
            assert errors.max() <= worst + 1e-12

    def test_errors_nonnegative_for_nonneg_kernel(self):
        model = ThermalCrosstalkModel(n_rings=8)
        errors = model.weight_errors(np.ones(8))
        assert np.all(errors >= 0)

    def test_input_validation(self):
        model = ThermalCrosstalkModel(n_rings=4)
        with pytest.raises(ConfigError):
            model.weight_errors(np.ones(5))
        with pytest.raises(ConfigError):
            model.weight_errors(np.array([0.5, -0.1, 0.2, 0.3]))


class TestResolution:
    def test_default_matches_paper_6_bits(self):
        """The Sec. II-B claim: thermal banks resolve 6 bits."""
        assert ThermalCrosstalkModel().usable_bits() == 6

    def test_zero_coupling_unbounded(self):
        assert ThermalCrosstalkModel(adjacent_coupling=0.0).usable_bits() == 16

    def test_bits_decrease_with_coupling(self):
        rows = thermal_resolution_sweep()
        bits = [r["usable_bits"] for r in rows]
        assert bits == sorted(bits, reverse=True)

    def test_sweep_includes_6bit_operating_point(self):
        rows = {r["adjacent_coupling"]: r["usable_bits"] for r in thermal_resolution_sweep()}
        assert rows[0.0035] == 6

    def test_sweep_includes_gst_like_zero_coupling(self):
        rows = {r["adjacent_coupling"]: r["usable_bits"] for r in thermal_resolution_sweep()}
        assert rows[0.0] == 16

    def test_monte_carlo_below_worst_case(self):
        model = ThermalCrosstalkModel()
        assert model.monte_carlo_error() <= model.worst_case_error()

    def test_validation(self):
        with pytest.raises(ConfigError):
            ThermalCrosstalkModel(n_rings=0)
        with pytest.raises(ConfigError):
            ThermalCrosstalkModel(adjacent_coupling=1.5)
        with pytest.raises(ConfigError):
            ThermalCrosstalkModel().monte_carlo_error(n_patterns=0)


def critical_path_s(acc):
    """One sample's critical path on the mapped chip: ``forward_batch_latency_s``
    over each layer's reduction (column) tiles, without dispatch overhead."""
    tiles = [reduction_tile_count(layer.in_dim, acc.config.bank_cols)
             for layer in acc.layers]
    return forward_batch_latency_s(PhotonicArch.trident(acc.config), tiles, 1)


def mapped_mlp(dims, config=None):
    """A chip with ``dims`` mapped and uniform(-1, 1) weights programmed."""
    acc = TridentAccelerator(config=config)
    acc.map_mlp(list(dims))
    rng = np.random.default_rng(0)
    acc.set_weights([rng.uniform(-1, 1, (o, i)) for i, o in zip(dims[:-1], dims[1:])])
    return acc, rng


class TestPipelining:
    """A chip's energy view counts every PE-symbol; its time view is the
    critical path, where the row tiles of one layer stream in parallel.
    The cost model prices the same mapping's tiles, symbols, cells and
    write energy."""

    def test_latency_is_nanoseconds_for_small_mlp(self):
        acc = TridentAccelerator()
        acc.map_mlp([16, 16, 4])
        # Two single-tile layers: 2 symbol periods at 346 MHz ~ 5.8 ns.
        assert critical_path_s(acc) == pytest.approx(2 / acc.config.symbol_rate_hz)

    def test_tiled_layer_adds_reduction_stages(self):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        # Layer 0: ceil(40/16)=3 reduction tiles; layer 1: ceil(24/16)=2.
        assert critical_path_s(acc) == pytest.approx(5 / acc.config.symbol_rate_hz)

    def test_requires_mapping(self):
        with pytest.raises(MappingError):
            single_chip_pipeline(TridentAccelerator())

    def test_pipeline_faster_than_serial_estimate(self):
        acc, rng = mapped_mlp([16, 16, 4])
        acc.forward_batch(rng.uniform(-1, 1, (1, 16)))
        assert critical_path_s(acc) < acc.time_estimate_s()

    @settings(max_examples=100, deadline=None)
    # shard-pipeline's model: per sample 11 PE-symbols (3 + 6 + 2) against
    # 6 symbol periods (1 + 3 + 2) on the critical path.
    @example(dims=[8, 24, 16, 4], rows=8, cols=8, batch=3)
    @given(
        dims=st.lists(st.integers(1, 40), min_size=3, max_size=5),
        rows=st.integers(1, 16),
        cols=st.integers(1, 16),
        batch=st.integers(1, 64),
    )
    def test_energy_view_and_time_view(self, dims, rows, cols, batch):
        layers = list(zip(dims[:-1], dims[1:]))
        tiles = [layer_tile_count(o, i, rows, cols) for i, o in layers]
        reduction = [reduction_tile_count(i, cols) for i, _ in layers]
        config = TridentConfig(n_pes=sum(tiles), bank_rows=rows, bank_cols=cols)
        net = Network("mlp", TensorShape(1, 1, dims[0]))
        for k, (_, out) in enumerate(layers):
            net.add(Dense(f"fc{k}", out))
        model = PhotonicCostModel(PhotonicArch.trident(config), batch=1)
        columns = model.model_cost(net).columns
        acc, rng = mapped_mlp(dims, config)
        # The model's tuning energy (batch 1) is the engine's nominal writes.
        written = acc.bank_stats()
        assert int(columns.macs.sum()) == written.cells_written
        assert sum(columns.breakdown["tuning"]) == pytest.approx(
            written.write_energy_j, rel=1e-12, abs=0.0
        )
        banks = [[acc.pes[t[4]].bank for t in layer.tiles] for layer in acc.layers]
        before = [sum(bank.stats.symbols for bank in layer) for layer in banks]
        symbols, stats = acc.counters.symbols, acc.bank_stats().symbols
        acc.forward_batch(rng.uniform(-1, 1, (batch, dims[0])))
        # Energy view: one symbol per bank a sample's vector enters.
        assert acc.counters.symbols - symbols == batch * sum(tiles)
        assert acc.bank_stats().symbols - stats == batch * sum(tiles)
        assert columns.tiles.tolist() == [len(layer) for layer in banks] == tiles
        streamed = [
            sum(bank.stats.symbols for bank in layer) - start
            for layer, start in zip(banks, before)
        ]
        assert [batch * int(n) for n in columns.symbols] == streamed
        # Time view: what serving charges a dispatch of this batch.
        worker = AcceleratorWorker(0, single_chip_pipeline(acc))
        assert worker.service_time_s(batch) == forward_batch_latency_s(
            PhotonicArch.trident(config), reduction, batch, DISPATCH_OVERHEAD_S
        )
        # Row tiles stream in parallel: they cost energy, not time.
        for (_, out), layer_tiles, layer_reduction in zip(layers, tiles, reduction):
            assert layer_reduction <= layer_tiles
            assert (layer_reduction == layer_tiles) == (out <= rows)

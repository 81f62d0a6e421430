"""Tests for the per-PE / per-layer profiling context."""

import pytest

from repro.arch import Profiler, TridentAccelerator
from repro.errors import ConfigError


@pytest.fixture
def mapped(rng):
    acc = TridentAccelerator()
    acc.map_mlp([10, 14, 3])
    acc.set_weights([rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))])
    return acc


class TestProfiler:
    def test_report_unavailable_before_exit(self, mapped):
        prof = Profiler(mapped)
        with pytest.raises(ConfigError):
            prof.report
        with prof:
            with pytest.raises(ConfigError):
                prof.report

    def test_counts_only_region_events(self, mapped, rng):
        mapped.forward_batch(rng.uniform(-1, 1, (4, 10)))  # outside region
        with Profiler(mapped) as prof:
            mapped.forward_batch(rng.uniform(-1, 1, (8, 10)))
        assert prof.report.counters.symbols == 8 * 2
        assert prof.report.counters.bank_writes == 0
        assert prof.report.wall_time_s > 0

    def test_per_pe_and_per_layer_attribution(self, mapped, rng):
        with Profiler(mapped) as prof:
            mapped.forward_batch(rng.uniform(-1, 1, (6, 10)))
        report = prof.report
        assert len(report.per_pe) == len(mapped.pes)
        assert len(report.per_layer) == len(mapped.layers)
        assert all(p.symbols == 6 for p in report.per_pe)
        assert all(p.symbols == 6 * p.n_tiles for p in report.per_layer)
        total = sum(p.symbols for p in report.per_pe)
        assert total == report.counters.symbols

    def test_tiled_layer_aggregates_tiles(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        acc.set_weights(
            [rng.uniform(-1, 1, (24, 40)), rng.uniform(-1, 1, (4, 24))]
        )
        with Profiler(acc) as prof:
            acc.forward_batch(rng.uniform(-1, 1, (3, 40)))
        layer0 = prof.report.per_layer[0]
        assert layer0.n_tiles == 6
        assert layer0.symbols == 3 * 6

    def test_exception_skips_report(self, mapped):
        prof = Profiler(mapped)
        with pytest.raises(ValueError):
            with prof:
                raise ValueError("boom")
        with pytest.raises(ConfigError):
            prof.report

    def test_render_contains_tables(self, mapped, rng):
        with Profiler(mapped) as prof:
            mapped.forward_batch(rng.uniform(-1, 1, (4, 10)))
        text = prof.report.render("test region")
        assert "test region" in text
        assert "symbols" in text
        assert "PE" in text

    def test_symbols_per_second(self, mapped, rng):
        with Profiler(mapped) as prof:
            mapped.forward_batch(rng.uniform(-1, 1, (4, 10)))
        assert prof.report.symbols_per_second > 0

    def test_reusable_context(self, mapped, rng):
        prof = Profiler(mapped)
        with prof:
            mapped.forward_batch(rng.uniform(-1, 1, (1, 10)))
        first = prof.report.counters.symbols
        with prof:
            mapped.forward_batch(rng.uniform(-1, 1, (3, 10)))
        assert first == 2
        assert prof.report.counters.symbols == 3 * 2

"""Tests for per-layer profiling read from the tracer's ``layer`` spans.

``forward_batch`` opens one accelerator-attached ``layer`` span per mapped
layer; :func:`repro.telemetry.span_totals` sums them per layer and
``repro profile`` prints the result.
"""

import pytest

from repro import telemetry
from repro.arch import TridentAccelerator
from repro.cli import main


@pytest.fixture
def mapped(rng):
    acc = TridentAccelerator()
    acc.map_mlp([10, 14, 3])
    acc.set_weights([rng.uniform(-1, 1, (14, 10)), rng.uniform(-1, 1, (3, 14))])
    return acc


def layer_totals(acc, xs):
    with telemetry.session() as t:
        acc.forward_batch(xs)
    return telemetry.span_totals(t.tracer.records, "layer", "layer")


class TestProfiler:
    def test_counts_only_region_events(self, mapped, rng):
        mapped.forward_batch(rng.uniform(-1, 1, (4, 10)))  # outside session
        totals = layer_totals(mapped, rng.uniform(-1, 1, (8, 10)))
        assert sorted(totals) == [0, 1]
        assert all(row["spans"] == 1 for row in totals.values())
        assert sum(row["symbols"] for row in totals.values()) == 8 * 2
        assert all(row["bank_writes"] == 0 for row in totals.values())
        assert all(row["duration_s"] > 0 for row in totals.values())

    def test_per_pe_and_per_layer_attribution(self, mapped, rng):
        """A layer span's symbols are its tile PEs' bank-stat symbols."""
        before = [pe.bank.stats.symbols for pe in mapped.pes]
        totals = layer_totals(mapped, rng.uniform(-1, 1, (6, 10)))
        for layer in mapped.layers:
            pes = [tile[4] for tile in layer.tiles]
            bank = sum(mapped.pes[i].bank.stats.symbols - before[i] for i in pes)
            assert totals[layer.index]["symbols"] == bank == 6 * len(pes)

    def test_tiled_layer_aggregates_tiles(self, rng):
        acc = TridentAccelerator()
        acc.map_mlp([40, 24, 4])
        acc.set_weights(
            [rng.uniform(-1, 1, (24, 40)), rng.uniform(-1, 1, (4, 24))]
        )
        assert (acc.config.bank_rows, acc.config.bank_cols) == (16, 16)
        totals = layer_totals(acc, rng.uniform(-1, 1, (3, 40)))
        assert len(acc.layers[0].tiles) == 6
        assert totals[0]["symbols"] == 3 * 6

    def test_render_contains_tables(self, capsys):
        assert main(["profile", "--dims", "10", "14", "3", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        header = "layer  tiles  symbols  writes  cells  activations  wall ms"
        assert out.count(header) == 2  # one table per side
        assert "forward_batch (B=4)" in out
        assert "forward_batch (B=1) x4" in out

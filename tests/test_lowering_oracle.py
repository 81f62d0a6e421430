"""One lowering per node and one zoo per collect agree bit for bit with the
walk they replaced.

:meth:`Network.stats` resolves each node's output shape once and lowers
the node once (:meth:`LayerSpec.lower`).  The oracle below is the walk it
replaced, kept as test code only: per node, the output shape through a
topological shape walk, then ``macs``, ``params`` and ``gemm`` as three
separate calls, each written out with the per-layer formulas those methods
used to carry (the conv GEMM rebuilding the output shape, the depthwise
conv binding a fresh :class:`Conv2D` on every call).  Every record field,
total and column must be equal under ``==``.

:meth:`ReproductionSummary.collect` builds the five paper networks once and
hands them to Table V and Figs 4 and 6; each generator called on its own
still builds its own, and must return the same report either way.
"""

import numpy as np
import pytest

import repro.eval.summary as summary
from repro.errors import ConfigError, ReproError
from repro.eval.figures import fig4_photonic_energy, fig6_inferences_per_second
from repro.eval.tables import table5_training
from repro.nn import build_model
from repro.nn.graph import INPUT, LayerStats, LayerTable, Network
from repro.nn.layers import (
    Activation,
    Add,
    BatchNorm,
    Concat,
    Conv2D,
    Dense,
    DepthwiseConv2D,
    GEMMShape,
    GlobalAvgPool,
    Pool,
    TensorShape,
)
from repro.nn.models import PAPER_MODELS

TABLE_COLUMNS = (
    "m", "k", "n", "groups", "input_elements", "output_elements", "params", "macs", "fused",
)


# ---------------------------------------------------------------------------
# The replaced walk
# ---------------------------------------------------------------------------
def old_gemm(layer, ins):
    if isinstance(layer, DepthwiseConv2D):
        return old_gemm(layer._bind(layer._single(ins)), ins)
    if isinstance(layer, Conv2D):
        s = layer._single(ins)
        layer._check_groups(s.channels)
        out = layer.output_shape(ins)
        return GEMMShape(
            m=layer.out_channels // layer.groups,
            k=layer.kernel * layer.kernel * (s.channels // layer.groups),
            n=out.height * out.width,
            groups=layer.groups,
        )
    if isinstance(layer, Dense):
        s = layer._single(ins)
        return GEMMShape(m=layer.out_features, k=s.elements, n=1)
    return None


def old_macs(layer, ins):
    if isinstance(layer, (Conv2D, Dense)):
        return old_gemm(layer, ins).macs
    return 0


def old_params(layer, ins):
    if isinstance(layer, DepthwiseConv2D):
        return old_params(layer._bind(layer._single(ins)), ins)
    if isinstance(layer, Conv2D):
        s = layer._single(ins)
        layer._check_groups(s.channels)
        weights = (
            layer.out_channels * (s.channels // layer.groups) * layer.kernel * layer.kernel
        )
        return weights + (layer.out_channels if layer.bias else 0)
    if isinstance(layer, Dense):
        s = layer._single(ins)
        return layer.out_features * s.elements + (layer.out_features if layer.bias else 0)
    if isinstance(layer, BatchNorm):
        return 2 * layer._single(ins).channels
    return 0


def old_walk(network):
    """(records, total_macs, total_params, n_weight_layers)."""
    shapes = {INPUT: network.input_shape}
    for name in network.layer_names:
        ins = [shapes[src] for src in network.inputs_of(name)]
        shapes[name] = network.layer(name).output_shape(ins)
    records = []
    total_macs = total_params = n_weight = 0
    for name in network.layer_names:
        layer = network.layer(name)
        ins = [shapes[src] for src in network.inputs_of(name)]
        macs = old_macs(layer, ins)
        params = old_params(layer, ins)
        records.append(
            LayerStats(
                name=name,
                kind=type(layer).__name__,
                input_shape=ins[0],
                output=shapes[name],
                macs=macs,
                params=params,
                gemm=old_gemm(layer, ins),
                fused_activation=layer.fused_activation,
            )
        )
        total_macs += macs
        total_params += params
        n_weight += layer.has_weights
    return tuple(records), total_macs, total_params, n_weight


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------
def branchy():
    """Grouped and depthwise conv, BatchNorm, Add, Concat, pooling, Dense."""
    net = Network("branchy", TensorShape(17, 17, 8))
    stem = net.add(Conv2D("stem", 16, kernel=3, stride=2, padding=1))
    grouped = net.add(Conv2D("grouped", 32, kernel=3, groups=4), stem)
    dw = net.add(DepthwiseConv2D("dw", kernel=3), grouped)
    bn = net.add(BatchNorm("bn"), dw)
    act = net.add(Activation("act"), bn)
    side = net.add(
        Conv2D("side", 32, kernel=1, fused_activation=False, bias=False), grouped
    )
    add = net.add(Add("add"), [act, side])
    other = net.add(Conv2D("other", 8, kernel=1), stem)
    cat = net.add(Concat("cat"), [add, other, stem])
    net.add(Pool("pool", kernel=2, mode="avg"), cat)
    net.add(Dense("fc", 10, fused_activation=False))
    return net


def strided():
    """Stride-2 convs with explicit padding, a strided depthwise conv, a
    padded max pool and Dense layers after global pooling."""
    net = Network("strided", TensorShape(32, 30, 3))
    net.add(Conv2D("c5", 12, kernel=5, stride=2, padding=2))
    net.add(Pool("p", kernel=3, stride=2, padding=1))
    net.add(DepthwiseConv2D("dw2", kernel=3, stride=2, padding=0))
    net.add(Conv2D("c3", 24, kernel=3, stride=2, padding=3, groups=3))
    net.add(GlobalAvgPool("gap"))
    net.add(Dense("fc1", 16, bias=False))
    net.add(Dense("fc2", 4, fused_activation=False))
    return net


GRAPHS = {name: (lambda name=name: build_model(name)) for name in PAPER_MODELS}
GRAPHS.update(branchy=branchy, strided=strided)


@pytest.mark.parametrize("graph", sorted(GRAPHS))
class TestLoweringOracle:
    def test_records_and_totals_match_the_old_walk(self, graph):
        net = GRAPHS[graph]()
        records, total_macs, total_params, n_weight = old_walk(net)
        stats = net.stats()
        assert len(stats.layers) == len(records)
        for got, want in zip(stats.layers, records):
            for field in LayerStats.__dataclass_fields__:
                assert getattr(got, field) == getattr(want, field), (got.name, field)
        assert stats.total_macs == total_macs
        assert stats.total_params == total_params
        assert stats.n_weight_layers == n_weight
        assert stats.total_activations == sum(
            r.output.elements for r in records if r.fused_activation
        )

    def test_compute_table_matches_the_old_walk(self, graph):
        net = GRAPHS[graph]()
        got = net.stats().compute_table
        want = LayerTable.from_layers(old_walk(net)[0])
        assert got.names == want.names
        for column in TABLE_COLUMNS:
            a, b = getattr(got, column), getattr(want, column)
            assert a.dtype == b.dtype and np.array_equal(a, b), column

    def test_wrappers_match_the_old_methods(self, graph):
        net = GRAPHS[graph]()
        for record in net.stats().layers:
            layer = net.layer(record.name)
            ins = [
                net.input_shape if src == INPUT else net.shape_of(src)
                for src in net.inputs_of(record.name)
            ]
            assert layer.gemm(ins) == old_gemm(layer, ins)
            assert layer.macs(ins) == old_macs(layer, ins)
            assert layer.params(ins) == old_params(layer, ins)


def test_graphs_cover_every_lowering_case():
    kinds = {record.kind for record in branchy().stats().layers}
    kinds |= {record.kind for record in strided().stats().layers}
    assert kinds == {
        "Conv2D", "DepthwiseConv2D", "BatchNorm", "Activation", "Add", "Concat",
        "Pool", "GlobalAvgPool", "Dense",
    }
    assert any(r.gemm is not None and r.gemm.groups > 1 for r in branchy().stats().layers)


def test_walk_checks_still_raise():
    net = Network("bad-groups", TensorShape(8, 8, 6))
    net.add(Conv2D("g", 8, kernel=3, groups=4))
    with pytest.raises(ReproError, match="groups"):
        net.stats()
    net = Network("collapsed", TensorShape(4, 4, 3))
    net.add(Conv2D("c", 8, kernel=7, padding=0))
    with pytest.raises(ReproError, match="collapsed"):
        net.stats()


# ---------------------------------------------------------------------------
# One zoo per collect
# ---------------------------------------------------------------------------
def test_collect_builds_each_zoo_network_once(monkeypatch):
    built = []

    def counting_build(name, **kwargs):
        built.append(name)
        return build_model(name, **kwargs)

    monkeypatch.setattr(summary, "build_model", counting_build)
    first = summary.ReproductionSummary.collect()
    assert built == list(PAPER_MODELS)
    summary.ReproductionSummary.collect()
    assert built == 2 * list(PAPER_MODELS)  # nothing is kept between collects
    assert len(first.results) == 34


@pytest.fixture(scope="module")
def zoo():
    return {name: build_model(name) for name in PAPER_MODELS}


GENERATORS = {
    "table5": table5_training,
    "fig4": fig4_photonic_energy,
    "fig6": fig6_inferences_per_second,
}


def assert_same_report(got, want):
    assert got == want
    if hasattr(want, "series"):
        assert list(got.series) == list(want.series)
        for key, series in want.series.items():
            assert list(got.series[key]) == list(series)


@pytest.mark.parametrize("generator", sorted(GENERATORS))
class TestSharedZoo:
    def test_same_report_with_and_without_a_shared_mapping(self, generator, zoo):
        make = GENERATORS[generator]
        assert_same_report(make(networks=zoo), make())

    def test_mapping_order_does_not_reorder_the_report(self, generator, zoo):
        make = GENERATORS[generator]
        reordered = dict(reversed(list(zoo.items())))
        assert_same_report(make(networks=reordered), make(networks=zoo))

    def test_missing_model_is_a_domain_error(self, generator, zoo):
        partial_zoo = {name: net for name, net in zoo.items() if name != "vgg16"}
        with pytest.raises(ConfigError, match="vgg16"):
            GENERATORS[generator](networks=partial_zoo)


def test_collect_matches_the_generators_run_alone():
    alone = []
    for generator in (
        summary.table1_tuning,
        summary.table3_power,
        summary.table4_tops,
        summary.table5_training,
        summary.fig3_activation_transfer,
        summary.fig4_photonic_energy,
        summary.fig5_area_breakdown,
        summary.fig6_inferences_per_second,
    ):
        alone.extend(generator().comparisons)
    assert summary.ReproductionSummary.collect().results == alone

"""The array cost passes agree bit for bit with the per-layer loops.

:meth:`PhotonicCostModel.model_cost`, :meth:`ElectronicAccelerator.model_cost`
and :meth:`TrainingCostModel.step_costs` price every compute layer of a
network in NumPy passes over its column table.  The oracles below are the
per-layer loops they replaced, kept as test code only:

- ``loop_model_cost``: :meth:`PhotonicCostModel.layer_cost` per layer, then
  the builtin ``sum`` over the records;
- ``loop_step_costs``: four ``layer_cost`` calls per layer, the faster
  outer-product orientation by ``min``, and a running ``+=`` per pass;
- ``loop_roofline``: the electronic roofline per layer.

Every float must be equal under ``==``.  The golden ledgers check these
bits only on their recorded machine, so this is the check that runs on
every Python (``sum`` is compensated from 3.12 on).
"""

from dataclasses import fields, replace

import pytest

from repro.arch.cache import CacheConfig
from repro.baselines import electronic_baselines, photonic_baselines
from repro.baselines.electronic import XAVIER_TRAINING_UTILIZATION, agx_xavier_training
from repro.dataflow.cost_model import PhotonicCostModel
from repro.dataflow.report import LayerCost
from repro.dataflow.tiling import TileSchedule
from repro.nn import build_model
from repro.nn.graph import INPUT
from repro.nn.layers import GEMMShape
from repro.nn.models import PAPER_MODELS
from repro.training.latency import TrainingCostModel

MODELS = PAPER_MODELS
ARCHS = {arch.name: arch for arch in photonic_baselines()}
GEOMETRIES = ((16, 16), (8, 8), (64, 64))
BATCHES = (1, 7, 128)
TRAINING_BATCHES = (1, 32, 256)
BREAKDOWN_KEYS = ("tuning", "streaming", "hold", "conversion", "memory")


@pytest.fixture(scope="module")
def nets():
    return {name: build_model(name) for name in MODELS}


def input_shape_of(network, name):
    src = network.inputs_of(name)[0]
    return network.input_shape if src == INPUT else network.shape_of(src)


def loop_model_cost(cm, network):
    """(records, time_s, energy_j, {key: component}) from the layer loop."""
    records = []
    for record in network.stats().layers:
        if record.gemm is None:
            continue
        schedule = TileSchedule(record.gemm, cm.arch.bank_rows, cm.arch.bank_cols)
        records.append(
            cm.layer_cost(
                record.name, schedule, input_shape_of(network, record.name),
                record.fused_activation,
            )
        )
    components = {
        key: sum(r.energy_breakdown.get(key, 0.0) for r in records)
        for key in BREAKDOWN_KEYS + ("compute",)
    }
    return (
        records,
        sum(r.time_s for r in records),
        sum(r.energy_j for r in records),
        components,
    )


def loop_step_costs(tcm, network):
    """Every TrainingPassCosts field from the per-layer ``+=`` loop."""
    B = tcm.batch
    rows, cols = tcm.arch.bank_rows, tcm.arch.bank_cols
    single = PhotonicCostModel(tcm.arch, cache=tcm.cache, batch=1)
    batched = PhotonicCostModel(tcm.arch, cache=tcm.cache, batch=B)
    fwd_t = fwd_e = grad_t = grad_e = outer_t = outer_e = upd_t = upd_e = 0.0
    for record in network.stats().layers:
        gemm = record.gemm
        if gemm is None:
            continue
        fwd_sched = TileSchedule(gemm, rows, cols)
        fwd = batched.layer_cost(
            record.name, fwd_sched, input_shape_of(network, record.name),
            record.fused_activation,
        )
        fwd_t += fwd.time_s
        fwd_e += fwd.energy_j
        grad_sched = TileSchedule(
            GEMMShape(m=gemm.k, k=gemm.m, n=gemm.n, groups=gemm.groups), rows, cols
        )
        grad = batched.layer_cost(record.name, grad_sched, record.output, False)
        grad_t += grad.time_s
        grad_e += grad.energy_j
        outer = min(
            (
                single.layer_cost(record.name, TileSchedule(shape, rows, cols),
                                  record.output, False)
                for shape in (
                    GEMMShape(m=gemm.m, k=gemm.n * B, n=gemm.k, groups=gemm.groups),
                    GEMMShape(m=gemm.k, k=gemm.n * B, n=gemm.m, groups=gemm.groups),
                )
            ),
            key=lambda c: c.time_s,
        )
        outer_t += outer.time_s / B
        outer_e += outer.energy_j / B
        upd_t += fwd_sched.rounds(tcm.arch.n_pes) * tcm.arch.write_time_s / B
        upd_e += fwd_sched.cells * tcm.arch.write_energy_per_cell_j / B
    return {
        "forward_time_s": fwd_t, "gradient_time_s": grad_t,
        "outer_time_s": outer_t, "update_time_s": upd_t,
        "forward_energy_j": fwd_e, "gradient_energy_j": grad_e,
        "outer_energy_j": outer_e, "update_energy_j": upd_e,
    }


def loop_roofline(acc, network, batch):
    """(records, time_s) from the per-layer roofline loop."""
    records = []
    e_op = acc._effective_energy_per_op()
    for record in network.stats().layers:
        if record.gemm is None:
            continue
        in_shape = input_shape_of(network, record.name)
        ops = 2 * record.macs
        compute_time = ops / acc.sustained_ops_per_s
        traffic_bytes = in_shape.elements + record.output.elements + record.params / batch
        memory_time = traffic_bytes / acc.dram_bandwidth_bytes_per_s
        energy = ops * e_op
        records.append(
            LayerCost(
                name=record.name, macs=record.macs,
                time_s=max(compute_time, memory_time), energy_j=energy,
                energy_breakdown={"compute": energy},
            )
        )
    return records, sum(r.time_s for r in records)


def assert_same_records(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for f in fields(LayerCost):
            x, y = getattr(a, f.name), getattr(b, f.name)
            assert x == y and type(x) is type(y), (b.name, f.name, x, y)


def assert_same_cost(cost, network, cm):
    records, time_s, energy_j, components = loop_model_cost(cm, network)
    assert_same_records(cost.layers, records)
    assert cost.time_s == time_s
    assert cost.energy_j == energy_j
    assert cost.inferences_per_second == 1.0 / time_s
    for key, value in components.items():
        assert cost.energy_component(key) == value, key


@pytest.mark.parametrize("arch_name", list(ARCHS))
@pytest.mark.parametrize("model", MODELS)
def test_model_cost_matches_layer_loop(nets, model, arch_name):
    network = nets[model]
    for rows, cols in GEOMETRIES:
        arch = replace(ARCHS[arch_name], bank_rows=rows, bank_cols=cols)
        for hold in (False, True):
            for bpe in (1, 2):
                for batch in BATCHES:
                    cm = PhotonicCostModel(
                        arch, batch=batch, charge_hold_power=hold, bytes_per_element=bpe
                    )
                    assert_same_cost(cm.model_cost(network), network, cm)


def test_grid_runs_every_branch(nets):
    """The grid reaches the hold-energy and conversion branches and every
    cache level."""
    assert any(a.hold_power_per_cell_w > 0 for a in ARCHS.values())
    assert any(a.digital_activation for a in ARCHS.values())
    assert any(not a.digital_activation for a in ARCHS.values())
    table = nets["vgg16"].stats().compute_table
    cache = CacheConfig()
    assert (table.m * table.k * table.groups).max() > cache.l2_bytes
    assert table.output_elements.min() <= cache.l1_bytes


@pytest.mark.parametrize("model", MODELS)
def test_step_costs_match_layer_loop(nets, model):
    network = nets[model]
    for rows, cols in GEOMETRIES:
        arch = replace(ARCHS["trident"], bank_rows=rows, bank_cols=cols)
        for batch in TRAINING_BATCHES:
            tcm = TrainingCostModel(arch, batch=batch)
            costs = tcm.step_costs(network)
            for name, value in loop_step_costs(tcm, network).items():
                assert getattr(costs, name) == value, (rows, batch, name)


@pytest.mark.parametrize("model", MODELS)
def test_roofline_matches_layer_loop(nets, model):
    network = nets[model]
    accs = electronic_baselines() + [
        agx_xavier_training(name) for name in XAVIER_TRAINING_UTILIZATION
    ]
    for acc in accs:
        for batch in (1, 32):
            cost = acc.model_cost(network, batch=batch)
            records, time_s = loop_roofline(acc, network, batch)
            assert_same_records(cost.layers, records)
            assert cost.time_s == time_s
            assert cost.energy_j == sum(r.energy_j for r in records)
            assert cost.energy_component("compute") == cost.energy_j
        if acc.can_train:
            _, time_s = loop_roofline(acc, network, 32)
            assert acc.training_time_s(network, 50_000) == (
                50_000 * time_s * acc.training_expansion
            )

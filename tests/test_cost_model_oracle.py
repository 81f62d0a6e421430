"""The array cost passes agree bit for bit with the per-layer loops.

:meth:`PhotonicCostModel.model_cost`, :meth:`ElectronicAccelerator.model_cost`
and :meth:`TrainingCostModel.step_costs` price every compute layer of a
network in NumPy passes over its column table.  The oracles below are the
scalar paths and per-layer loops they replaced, kept as test code only:

- ``layer_cost``: the scalar per-layer pricing, reading memory traffic
  through ``access``, the scalar cache path (one tensor at a time);
- ``loop_model_cost``: ``layer_cost`` per layer, then the builtin ``sum``
  over the records;
- ``loop_step_costs``: four ``layer_cost`` calls per layer, the faster
  outer-product orientation by ``min``, and a running ``+=`` per pass;
- ``loop_roofline``: the electronic roofline per layer.

Every float must be equal under ``==``.  The golden ledgers check these
bits only on their recorded machine, so this is the check that runs on
every Python (``sum`` is compensated from 3.12 on).

The three methods are the one-network case of a pass over a
:class:`NetworkStack`; the stacked pass must give each network the same
bits in any stacking order and subset, and a stack must never hand out a
stored pricing for inputs that differ from the ones it was priced at.
"""

from dataclasses import fields, replace
from typing import NamedTuple

import pytest

from repro.arch.cache import CacheConfig, CacheModel
from repro.baselines import electronic_baselines, photonic_baselines
from repro.baselines.electronic import XAVIER_TRAINING_UTILIZATION, agx_xavier_training
from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
from repro.dataflow.report import LayerCost, NetworkStack
from repro.eval import summary
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


# ---------------------------------------------------------------------------
# The scalar pricing path
# ---------------------------------------------------------------------------
class Traffic(NamedTuple):
    """Energy and transfer time of a block of memory traffic."""

    energy_j: float
    transfer_time_s: float


def level_for(cache, tensor_bytes):
    """Which level serves a tensor of this size: 'l1' | 'l2' | 'dram'."""
    if tensor_bytes <= cache.config.l1_bytes:
        return "l1"
    if tensor_bytes <= cache.config.l2_bytes:
        return "l2"
    return "dram"


def access(cache, tensor_bytes, times=1):
    """Cost of streaming one tensor ``times`` times through its level."""
    cfg = cache.config
    level = level_for(cache, tensor_bytes)
    energy_per_byte = {
        "l1": cfg.l1_energy_per_byte_j,
        "l2": cfg.l2_energy_per_byte_j,
        "dram": cfg.dram_energy_per_byte_j,
    }[level]
    total = tensor_bytes * times
    dram_bytes = total if level == "dram" else 0
    return Traffic(total * energy_per_byte, dram_bytes / cfg.dram_bandwidth_bytes_per_s)


def layer_cost(cm, name, schedule, input_shape, fused_activation):
    """Per-inference cost of one compute layer under cost model ``cm``."""
    arch = cm.arch
    B = cm.batch
    rounds = schedule.rounds(arch.n_pes)

    round_time = arch.write_time_s + B * schedule.positions / arch.symbol_rate_hz
    compute_time = rounds * round_time / B
    tuning_j = schedule.cells * arch.write_energy_per_cell_j / B
    streaming_j = schedule.symbols * arch.symbol_energy_j
    hold_j = 0.0
    if cm.charge_hold_power and arch.hold_power_per_cell_w > 0:
        stream_time_per_tile = schedule.positions / arch.symbol_rate_hz
        cells_per_tile = schedule.cells / schedule.n_tiles
        hold_j = (
            arch.hold_power_per_cell_w
            * cells_per_tile
            * stream_time_per_tile
            * schedule.n_tiles
        )
    conversion_j = 0.0
    if arch.digital_activation:
        samples = schedule.output_elements * schedule.tiles_k
        conversion_j = (
            samples * arch.adc_energy_per_sample_j
            + schedule.output_elements * arch.dac_energy_per_sample_j
        )

    # Inputs re-stream once per row tile; each extra reduction tile reads
    # and rewrites the output stripe; outputs are written once (a digital
    # activation adds a read-modify-write round trip); weights are fetched
    # once per batch.
    bpe = cm.bytes_per_element
    input_traffic = access(cm.cache, input_shape.bytes(bpe), times=schedule.tiles_m)
    out_bytes = schedule.output_elements * bpe
    partial_traffic = (
        access(cm.cache, out_bytes, times=2 * (schedule.tiles_k - 1))
        if schedule.tiles_k > 1
        else None
    )
    out_times = 3 if arch.digital_activation and fused_activation else 1
    output_traffic = access(cm.cache, out_bytes, times=out_times)
    weight_traffic = access(cm.cache, schedule.cells * bpe, times=1)
    memory_j = (
        input_traffic.energy_j
        + (partial_traffic.energy_j if partial_traffic else 0.0)
        + output_traffic.energy_j
        + weight_traffic.energy_j / B
    )
    dram_time = (
        input_traffic.transfer_time_s
        + (partial_traffic.transfer_time_s if partial_traffic else 0.0)
        + output_traffic.transfer_time_s
        + weight_traffic.transfer_time_s / B
    )

    breakdown = {
        "tuning": tuning_j,
        "streaming": streaming_j,
        "hold": hold_j,
        "conversion": conversion_j,
        "memory": memory_j,
    }
    return LayerCost(
        name=name,
        macs=schedule.gemm.macs,
        time_s=max(compute_time, dram_time),
        energy_j=sum(breakdown.values()),
        energy_breakdown=breakdown,
        symbols=schedule.symbols,
        tiles=schedule.n_tiles,
        rounds=rounds,
    )


def loop_model_cost(cm, network):
    """(records, time_s, energy_j, {key: component}) from the layer loop."""
    records = []
    for record in network.stats().layers:
        if record.gemm is None:
            continue
        schedule = TileSchedule(record.gemm, cm.arch.bank_rows, cm.arch.bank_cols)
        records.append(
            layer_cost(
                cm, record.name, schedule, input_shape_of(network, record.name),
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
        fwd = layer_cost(
            batched, record.name, fwd_sched, input_shape_of(network, record.name),
            record.fused_activation,
        )
        fwd_t += fwd.time_s
        fwd_e += fwd.energy_j
        grad_sched = TileSchedule(
            GEMMShape(m=gemm.k, k=gemm.m, n=gemm.n, groups=gemm.groups), rows, cols
        )
        grad = layer_cost(batched, record.name, grad_sched, record.output, False)
        grad_t += grad.time_s
        grad_e += grad.energy_j
        outer = min(
            (
                layer_cost(single, record.name, TileSchedule(shape, rows, cols),
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
    assert_matches_loop(cost, loop_model_cost(cm, network))


def assert_matches_loop(cost, loop):
    records, time_s, energy_j, components = loop
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


# ---------------------------------------------------------------------------
# The stacked pass
# ---------------------------------------------------------------------------
#: Stackings of the zoo: paper order, reversed, and a two-network subset.
STACKINGS = (MODELS, MODELS[::-1], ("vgg16", "mobilenet_v2"))


def stackings(nets):
    return [NetworkStack({m: nets[m] for m in names}) for names in STACKINGS]


def assert_own_rows(costs, stack, accelerator):
    assert list(costs) == list(stack)
    for key, cost in costs.items():
        network = stack[key]
        assert cost.model == network.name and cost.accelerator == accelerator
        assert cost.total_macs == network.stats().total_macs
        assert cost.columns.names == network.stats().compute_table.names
        assert not cost.columns.time_s.flags.writeable
        assert not cost.columns.energy_j.flags.writeable


@pytest.mark.parametrize("arch_name", list(ARCHS))
def test_stacked_model_costs_match_layer_loop(nets, arch_name):
    for rows, cols in GEOMETRIES:
        arch = replace(ARCHS[arch_name], bank_rows=rows, bank_cols=cols)
        for hold in (False, True):
            for bpe in (1, 2):
                for batch in BATCHES:
                    cm = PhotonicCostModel(
                        arch, batch=batch, charge_hold_power=hold, bytes_per_element=bpe
                    )
                    priced = [(stack, cm.model_costs(stack)) for stack in stackings(nets)]
                    for stack, costs in priced:
                        assert_own_rows(costs, stack, arch.name)
                    for model in MODELS:
                        loop = loop_model_cost(cm, nets[model])
                        for _, costs in priced:
                            if model in costs:
                                assert_matches_loop(costs[model], loop)


def test_stacked_step_costs_match_layer_loop(nets):
    for rows, cols in GEOMETRIES:
        arch = replace(ARCHS["trident"], bank_rows=rows, bank_cols=cols)
        for batch in TRAINING_BATCHES:
            tcm = TrainingCostModel(arch, batch=batch)
            priced = [tcm.stack_step_costs(stack) for stack in stackings(nets)]
            for model in MODELS:
                loop = loop_step_costs(tcm, nets[model])
                for costs in priced:
                    if model in costs:
                        assert costs[model].model == nets[model].name
                        for name, value in loop.items():
                            assert getattr(costs[model], name) == value, (rows, batch, name)


def test_stacked_roofline_matches_layer_loop(nets):
    accs = electronic_baselines() + [
        agx_xavier_training(name) for name in XAVIER_TRAINING_UTILIZATION
    ]
    stacks = stackings(nets)
    for acc in accs:
        for batch in (1, 32):
            priced = [(stack, acc.model_costs(stack, batch=batch)) for stack in stacks]
            for stack, costs in priced:
                assert_own_rows(costs, stack, acc.name)
            for model in MODELS:
                records, time_s = loop_roofline(acc, nets[model], batch)
                for _, costs in priced:
                    if model in costs:
                        assert_same_records(costs[model].layers, records)
                        assert costs[model].time_s == time_s


def bumped(value):
    """A different valid value of a parameter field."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, str):
        return value + "-x"
    if isinstance(value, int):
        return 2 * value + 1
    return 2 * value + 1e-12


def test_a_changed_input_never_reuses_a_stored_pricing(nets):
    """The stack stores one pricing per point: an equal point reuses it,
    and a point that differs in any input the pass reads gets its own."""
    stack = NetworkStack({m: nets[m] for m in ("alexnet", "mobilenet_v2")})
    arch, cache = ARCHS["deap-cnn"], CacheModel()
    base = dict(arch=arch, cache=cache, batch=7, charge_hold_power=True,
                bytes_per_element=1)
    first = PhotonicCostModel(**base).model_costs(stack)
    assert PhotonicCostModel(**base).model_costs(stack) is first
    changes = [
        ("arch", replace(arch, **{f.name: bumped(getattr(arch, f.name))}))
        for f in fields(PhotonicArch)
    ] + [
        ("cache", CacheModel(replace(cache.config, **{
            f.name: bumped(getattr(cache.config, f.name))})))
        for f in fields(CacheConfig)
    ] + [("batch", 8), ("charge_hold_power", False), ("bytes_per_element", 2)]
    seen = [first]
    for key, value in changes:
        cm = PhotonicCostModel(**{**base, key: value})
        costs = cm.model_costs(stack)
        assert all(costs is not other for other in seen), (key, value)
        seen.append(costs)
        for model, cost in costs.items():
            assert_matches_loop(cost, loop_model_cost(cm, stack[model]))
    assert len(stack.priced) == len(seen)


def test_figures_alone_match_one_collect(monkeypatch):
    """Inside one collect Fig 6 reads the photonic points Fig 4 priced;
    its series are those of the figure run alone."""
    inside = {}
    for name in ("fig4_photonic_energy", "fig6_inferences_per_second"):
        def capture(*args, _generator=getattr(summary, name), _name=name, **kwargs):
            inside[_name] = _generator(*args, **kwargs)
            return inside[_name]

        monkeypatch.setattr(summary, name, capture)
    priced = []
    layer_costs = PhotonicCostModel.layer_costs

    def counting(self, *args):
        priced.append(self.arch.name)
        return layer_costs(self, *args)

    monkeypatch.setattr(PhotonicCostModel, "layer_costs", counting)
    summary.ReproductionSummary.collect()
    # Four photonic points shared by Figs 4 and 6, four Table V passes.
    assert len(priced) == 8
    monkeypatch.undo()
    for name, alone in (
        ("fig4_photonic_energy", summary.fig4_photonic_energy()),
        ("fig6_inferences_per_second", summary.fig6_inferences_per_second()),
    ):
        got = inside[name]
        assert got == alone
        assert list(got.series) == list(alone.series)
        for key, series in alone.series.items():
            assert list(got.series[key].items()) == list(series.items())


def test_stack_rejects_an_empty_network_or_mapping(nets):
    from repro.errors import ConfigError, ScheduleError
    from repro.nn import GlobalAvgPool, Network, TensorShape

    empty = Network("pool-only", TensorShape(4, 4, 3))
    empty.add(GlobalAvgPool("gap"))
    with pytest.raises(ScheduleError, match="pool-only"):
        NetworkStack({"alexnet": nets["alexnet"], "pool-only": empty})
    with pytest.raises(ConfigError):
        NetworkStack({})

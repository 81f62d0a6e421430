"""Cost-model ablations: how the photonic cost model responds when one
design choice moves (power budget, bank geometry, tuning technology,
streaming batch, hold-power accounting).

Every sweep prices its networks as one :class:`NetworkStack` per
architecture point (:meth:`PhotonicCostModel.model_costs`).
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.baselines import photonic_baselines
from repro.dataflow.cost_model import PhotonicArch, PhotonicCostModel
from repro.dataflow.report import NetworkStack
from repro.devices.tuning import ElectricTuning, GSTTuning, ThermalTuning
from repro.nn import build_model
from repro.nn.models import PAPER_MODELS


@pytest.fixture(scope="module")
def zoo():
    return NetworkStack({name: build_model(name) for name in PAPER_MODELS})


@pytest.fixture(scope="module")
def resnet(zoo):
    return NetworkStack({"resnet50": zoo["resnet50"]})


def costs(arch, stack, **kwargs):
    return PhotonicCostModel(arch, **kwargs).model_costs(stack)


class TestPowerBudget:
    """The paper fixes 30 W; edge deployments span 5-60 W (ResNet-50,
    batch 128)."""

    BUDGETS_W = (5.0, 10.0, 20.0, 30.0, 45.0, 60.0)

    def test_trident_scales_and_keeps_the_pe_lead(self, resnet):
        pes, ips = [], []
        for budget in self.BUDGETS_W:
            archs = {a.name: a for a in photonic_baselines(budget)}
            trident = archs.pop("trident")
            pes.append(trident.n_pes)
            ips.append(costs(trident, resnet, batch=128)["resnet50"].inferences_per_second)
            # GST's cheaper tuning buys Trident the most PEs at every budget.
            assert trident.n_pes >= max(a.n_pes for a in archs.values()), budget
        assert all(np.diff(pes) > 0)
        assert all(np.diff(ips) > 0)


class TestBankGeometry:
    """J x N weight banks at a constant total MRR count (44 x 256)."""

    GEOMETRIES = ((8, 8), (8, 32), (16, 16), (32, 8), (32, 32))

    def test_small_banks_suit_depthwise_and_dense_models_are_neutral(self, zoo):
        base = PhotonicArch.trident()
        ips = {}
        for rows, cols in self.GEOMETRIES:
            arch = replace(
                base, name=f"trident-{rows}x{cols}", bank_rows=rows, bank_cols=cols,
                n_pes=max(1, 44 * 256 // (rows * cols)),
            )
            priced = costs(arch, zoo, batch=128)
            ips[rows, cols] = {m: priced[m].inferences_per_second for m in priced}
        # MobileNetV2's tiny depthwise GEMMs waste big banks.
        assert ips[8, 8]["mobilenet_v2"] > ips[32, 32]["mobilenet_v2"]
        # Dense ResNet-50 barely notices the geometry.
        resnet = [by_model["resnet50"] for by_model in ips.values()]
        assert max(resnet) / min(resnet) < 2.5


class TestTuningTechnology:
    """Trident with its GST tuning swapped for thermal or electric tuning
    (ResNet-50, batch 8 so programming shows, hold power charged)."""

    def test_gst_beats_volatile_tuning(self, resnet):
        base = PhotonicArch.trident()
        priced = {}
        for tuning in (GSTTuning(), ThermalTuning(), ElectricTuning()):
            arch = replace(
                base,
                name=f"trident-{tuning.method.value}",
                write_energy_per_cell_j=tuning.write_energy_j,
                write_time_s=tuning.write_time_s,
                hold_power_per_cell_w=tuning.hold_power_w,
                weight_bits=tuning.bit_resolution,
            )
            cost = costs(arch, resnet, batch=8, charge_hold_power=True)["resnet50"]
            priced[tuning.method.value] = cost
        gst = priced["gst"]
        assert gst.energy_j < priced["thermal"].energy_j
        assert gst.energy_j < priced["electric"].energy_j
        assert gst.inferences_per_second > priced["thermal"].inferences_per_second


class TestStreamingBatch:
    """Weights are pre-loaded and reused across the batch (ResNet-50)."""

    BATCHES = (1, 4, 16, 64, 256)

    def test_batch_amortizes_tuning(self, resnet):
        trident = PhotonicArch.trident()
        priced = {b: costs(trident, resnet, batch=b)["resnet50"] for b in self.BATCHES}
        tuning = {b: cost.energy_component("tuning") for b, cost in priced.items()}
        energy = [priced[b].energy_j for b in self.BATCHES]
        assert tuning[1] > 50 * tuning[64]
        assert all(a >= b for a, b in zip(energy, energy[1:]))
        # At batch 1 programming is most of the energy (the Table III story).
        assert tuning[1] > 0.5 * priced[1].energy_j
        assert priced[256].inferences_per_second > priced[1].inferences_per_second


class TestHoldPower:
    """Charging volatile tuning its hold power (1.7 mW per thermal ring),
    averaged over the five CNNs at batch 128."""

    def test_hold_power_widens_every_baseline_gap(self, zoo):
        trident, *baselines = photonic_baselines()
        reference = costs(trident, zoo, batch=128)

        def extra_energy(arch, charge):
            priced = costs(arch, zoo, batch=128, charge_hold_power=charge)
            return np.mean([priced[m].energy_j / reference[m].energy_j - 1 for m in zoo])

        gaps = {a.name: (extra_energy(a, False), extra_energy(a, True)) for a in baselines}
        for name, (event_only, honest) in gaps.items():
            assert honest > event_only, name
        event_only, honest = gaps["deap-cnn"]
        assert honest > 2 * event_only

"""Generators for the paper's Figures 3-6 (data series, not plots).

Each generator returns the series a plot of the figure would draw, plus
paper-vs-measured comparisons for the quantities the paper states about the
figure (average improvements, breakdown shares, thresholds).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.arch.area import AreaModel
from repro.arch.config import TridentConfig
from repro.baselines import electronic_baselines, photonic_baselines
from repro.dataflow.cost_model import PhotonicCostModel
from repro.devices.activation_cell import GSTActivationCell
from repro.eval.experiments import PAPER, ExperimentResult, compare, paper_networks
from repro.nn import Network
from repro.nn.models import PAPER_MODELS


@dataclass
class FigureReport:
    """A regenerated figure's data plus its paper comparisons."""

    title: str
    #: series name -> x-label -> value (or an array pair for curves).
    series: dict[str, dict[str, float]]
    comparisons: list[ExperimentResult] = field(default_factory=list)

    def max_relative_error(self) -> float:
        """Worst |relative error| across the comparisons."""
        if not self.comparisons:
            return 0.0
        return max(c.within for c in self.comparisons)


# ---------------------------------------------------------------------------
# Fig 3 — GST activation transfer function
# ---------------------------------------------------------------------------
def fig3_activation_transfer(n_points: int = 201) -> FigureReport:
    """Output vs input pulse energy of the GST activation cell."""
    cell = GSTActivationCell()
    energies = np.linspace(0.0, 1000e-12, n_points)
    outputs = cell.response_energy(energies)
    # Measured threshold: first input with non-zero output.
    nonzero = np.nonzero(outputs > 0)[0]
    threshold = float(energies[nonzero[0]]) if nonzero.size else float("inf")
    # Measured slope above threshold.
    above = energies > cell.config.threshold_j
    slope = float(np.polyfit(energies[above], outputs[above], 1)[0])
    series = {
        "input_energy_pj": {str(i): float(e * 1e12) for i, e in enumerate(energies)},
        "output_energy_pj": {str(i): float(o * 1e12) for i, o in enumerate(outputs)},
    }
    comparisons = [
        compare("fig3", "activation threshold", PAPER.activation_threshold_j * 1e12,
                threshold * 1e12, "pJ"),
        compare("fig3", "activation slope", PAPER.activation_slope, slope),
    ]
    return FigureReport(
        title="Fig 3: GST Activation Cell Output Function (1553.4 nm)",
        series=series,
        comparisons=comparisons,
    )


# ---------------------------------------------------------------------------
# Fig 4 — photonic accelerators total energy
# ---------------------------------------------------------------------------
def fig4_photonic_energy(
    batch: int = 128, networks: Mapping[str, Network] | None = None
) -> FigureReport:
    """Per-inference energy of the four photonic architectures x 5 CNNs.

    ``networks`` maps each of :data:`PAPER_MODELS` to its built network;
    without it the generator builds its own.  Each architecture prices
    the networks in one pass (:func:`paper_networks`).
    """
    nets = paper_networks(PAPER_MODELS, networks)
    series: dict[str, dict[str, float]] = {}
    for arch in photonic_baselines():
        costs = PhotonicCostModel(arch, batch=batch).model_costs(nets)
        series[arch.name] = {m: costs[m].energy_j for m in PAPER_MODELS}
    trident = series["trident"]

    def improvement(name: str) -> float:
        """Average energy improvement of Trident vs the baseline, %.

        Matches the paper's phrasing: baseline uses x% more energy.
        """
        return float(
            np.mean([series[name][m] / trident[m] - 1.0 for m in PAPER_MODELS]) * 100.0
        )

    comparisons = [
        compare("fig4", "vs deap-cnn", PAPER.energy_improvement_vs_deap_pct,
                improvement("deap-cnn"), "%"),
        compare("fig4", "vs crosslight", PAPER.energy_improvement_vs_crosslight_pct,
                improvement("crosslight"), "%"),
        compare("fig4", "vs pixel", PAPER.energy_improvement_vs_pixel_pct,
                improvement("pixel"), "%"),
    ]
    return FigureReport(
        title="Fig 4: Photonic Accelerators Total Energy per Inference",
        series=series,
        comparisons=comparisons,
    )


# ---------------------------------------------------------------------------
# Fig 5 — Trident chip area breakdown
# ---------------------------------------------------------------------------
def fig5_area_breakdown(config: TridentConfig | None = None) -> FigureReport:
    """Fig 5: Trident chip-area breakdown by component."""
    config = config or TridentConfig()
    model = AreaModel(config)
    rows = model.as_rows()
    series = {
        "area_mm2": {str(r["component"]): float(r["area_mm2"]) for r in rows},
        "percentage": {str(r["component"]): float(r["percentage"]) for r in rows},
    }
    comparisons = [
        compare("fig5", "chip area", PAPER.chip_area_mm2, model.chip_area_mm2, "mm^2"),
    ]
    return FigureReport(
        title="Fig 5: Trident Chip Area Breakdown by Component",
        series=series,
        comparisons=comparisons,
    )


# ---------------------------------------------------------------------------
# Fig 6 — inferences per second, all seven accelerators
# ---------------------------------------------------------------------------
def fig6_inferences_per_second(
    batch: int = 128,
    electronic_batch: int = 32,
    networks: Mapping[str, Network] | None = None,
) -> FigureReport:
    """Fig 6: inferences/s for all seven accelerators x 5 CNNs.

    ``networks`` is as in :func:`fig4_photonic_energy`.
    """
    nets = paper_networks(PAPER_MODELS, networks)
    series: dict[str, dict[str, float]] = {}
    for arch in photonic_baselines():
        costs = PhotonicCostModel(arch, batch=batch).model_costs(nets)
        series[arch.name] = {m: costs[m].inferences_per_second for m in PAPER_MODELS}
    for acc in electronic_baselines():
        costs = acc.model_costs(nets, batch=electronic_batch)
        series[acc.name] = {m: costs[m].inferences_per_second for m in PAPER_MODELS}
    trident = series["trident"]

    def advantage(name: str) -> float:
        return float(
            np.mean([trident[m] / series[name][m] - 1.0 for m in PAPER_MODELS]) * 100.0
        )

    comparisons = [
        compare("fig6", "vs deap-cnn", PAPER.ips_improvement_vs_deap_pct,
                advantage("deap-cnn"), "%"),
        compare("fig6", "vs crosslight", PAPER.ips_improvement_vs_crosslight_pct,
                advantage("crosslight"), "%"),
        compare("fig6", "vs pixel", PAPER.ips_improvement_vs_pixel_pct,
                advantage("pixel"), "%"),
        compare("fig6", "vs agx-xavier", PAPER.ips_improvement_vs_xavier_pct,
                advantage("agx-xavier"), "%"),
        compare("fig6", "vs tb96-ai", PAPER.ips_improvement_vs_tb96_pct,
                advantage("tb96-ai"), "%"),
        compare("fig6", "vs google-coral", PAPER.ips_improvement_vs_coral_pct,
                advantage("google-coral"), "%"),
    ]
    return FigureReport(
        title="Fig 6: Edge Accelerators Inferences per Second",
        series=series,
        comparisons=comparisons,
    )

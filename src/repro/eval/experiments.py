"""The paper's published numbers and paper-vs-measured comparison records.

Everything the paper commits to quantitatively lives in
:class:`PaperTargets`, so benches and tests compare against one source of
truth.  ``compare`` builds :class:`ExperimentResult` records; EXPERIMENTS.md
is generated from them.  ``paper_networks`` gives a generator the zoo
networks it prices as one :class:`~repro.dataflow.report.NetworkStack`:
the caller's shared stack, a stack of the caller's mapping, or freshly
built.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from repro.dataflow.report import NetworkStack
from repro.errors import ConfigError
from repro.nn import Network, build_model


@dataclass(frozen=True)
class PaperTargets:
    """Quantitative claims from the paper, by section/table/figure."""

    # --- Table I (tuning) -------------------------------------------------
    thermal_write_energy_j: float = 1.02e-9
    thermal_write_time_s: float = 0.6e-6
    electric_speed_s: float = 500e-9
    gst_write_energy_j: float = 660e-12
    gst_write_time_s: float = 300e-9

    # --- Table III (per-PE power) -----------------------------------------
    pe_total_power_w: float = 0.67
    gst_tuning_share_pct: float = 83.34
    pe_post_tuning_power_w: float = 0.11

    # --- Sec. IV (system) ----------------------------------------------------
    n_pes: int = 44
    mrrs_per_pe: int = 256
    chip_area_mm2: float = 604.6
    max_clock_hz: float = 1.37e9
    power_budget_w: float = 30.0

    # --- Table IV (TOPS) ----------------------------------------------------
    trident_tops: float = 7.8
    trident_tops_per_watt_paper: float = 0.29  # note: 7.8/30 = 0.26
    xavier_tops: float = 32.0
    tb96_tops: float = 3.0
    coral_tops: float = 4.0

    # --- Fig 4 (photonic energy, avg improvement %) --------------------------
    energy_improvement_vs_deap_pct: float = 16.4
    energy_improvement_vs_crosslight_pct: float = 43.5
    energy_improvement_vs_pixel_pct: float = 43.4

    # --- Fig 6 (inferences/s, avg improvement %) ------------------------------
    ips_improvement_vs_deap_pct: float = 27.9
    ips_improvement_vs_crosslight_pct: float = 150.2
    ips_improvement_vs_pixel_pct: float = 143.6
    ips_improvement_vs_xavier_pct: float = 107.7
    ips_improvement_vs_tb96_pct: float = 594.7
    ips_improvement_vs_coral_pct: float = 1413.1

    # --- Table V (training, seconds for 50 000 images) -----------------------
    training_xavier_s: tuple[tuple[str, float], ...] = (
        ("mobilenet_v2", 32.5),
        ("googlenet", 57.1),
        ("resnet50", 365.7),
        ("vgg16", 1293.8),
    )
    training_trident_s: tuple[tuple[str, float], ...] = (
        ("mobilenet_v2", 29.7),
        ("googlenet", 63.2),
        ("resnet50", 307.2),
        ("vgg16", 796.1),
    )

    # --- Fig 3 (GST activation) ------------------------------------------------
    activation_threshold_j: float = 430e-12
    activation_slope: float = 0.34

    def training_table(self) -> dict[str, tuple[float, float]]:
        """model -> (xavier_s, trident_s)."""
        xavier = dict(self.training_xavier_s)
        trident = dict(self.training_trident_s)
        return {m: (xavier[m], trident[m]) for m in xavier}


PAPER = PaperTargets()


@dataclass(frozen=True)
class ExperimentResult:
    """One paper-vs-measured data point."""

    experiment: str
    metric: str
    paper_value: float
    measured_value: float
    units: str = ""

    @property
    def relative_error(self) -> float:
        """(measured - paper) / |paper|."""
        if self.paper_value == 0:
            raise ConfigError(f"{self.metric}: paper value is zero")
        return (self.measured_value - self.paper_value) / abs(self.paper_value)

    @property
    def within(self) -> float:
        """Absolute relative error (for tolerance checks)."""
        return abs(self.relative_error)

    def row(self) -> list[object]:
        """Render as a table row."""
        return [
            self.experiment,
            self.metric,
            self.paper_value,
            self.measured_value,
            f"{self.relative_error * 100:+.1f}%",
            self.units,
        ]


def compare(
    experiment: str, metric: str, paper_value: float, measured_value: float, units: str = ""
) -> ExperimentResult:
    """Build a comparison record."""
    return ExperimentResult(
        experiment=experiment,
        metric=metric,
        paper_value=paper_value,
        measured_value=measured_value,
        units=units,
    )


def paper_networks(
    names: Iterable[str], networks: Mapping[str, Network] | None = None
) -> NetworkStack:
    """The named zoo networks as one stack.

    A :class:`NetworkStack` that holds every name is returned as it is, so
    its callers share what it has priced; any other mapping is stacked in
    ``names`` order.  A mapping that lacks a name raises
    :class:`ConfigError`.  Without one the networks are built fresh.
    """
    names = tuple(names)
    if networks is None:
        return NetworkStack({m: build_model(m) for m in names})
    missing = [m for m in names if m not in networks]
    if missing:
        raise ConfigError(
            f"network mapping lacks {missing}; it has {sorted(networks)}"
        )
    if isinstance(networks, NetworkStack):
        return networks
    return NetworkStack({m: networks[m] for m in names})

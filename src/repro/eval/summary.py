"""One-call paper-vs-measured summary across every experiment.

Regenerates all tables and figures, collects their comparison records, and
renders the consolidated report (the source of EXPERIMENTS.md's summary
table).  Exposed on the CLI as ``python -m repro report``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

from repro.dataflow.report import NetworkStack
from repro.eval.experiments import ExperimentResult
from repro.eval.figures import (
    fig3_activation_transfer,
    fig4_photonic_energy,
    fig5_area_breakdown,
    fig6_inferences_per_second,
)
from repro.eval.formatting import format_table
from repro.eval.tables import (
    table1_tuning,
    table3_power,
    table4_tops,
    table5_training,
)
from repro.nn import build_model
from repro.nn.models import PAPER_MODELS

#: Experiments whose Trident value is expected to deviate (documented in
#: EXPERIMENTS.md) — excluded from the max-error gate.
KNOWN_DEVIATIONS: frozenset[str] = frozenset(
    {
        ("table5", "mobilenet_v2 trident time"),
        ("table5", "resnet50 trident time"),
    }
)


@dataclass
class ReproductionSummary:
    """All comparison records plus convenience views."""

    results: list[ExperimentResult] = field(default_factory=list)

    @classmethod
    def collect(cls) -> "ReproductionSummary":
        """Run every generator and gather its comparisons.

        The five :data:`PAPER_MODELS` networks are built once per call,
        stacked once and shared by the three generators that price them
        (Table V, Figs 4 and 6), so each network is walked once and each
        architecture point is priced once (Figs 4 and 6 read the same
        four).  The stack is a local of this call: nothing priced is kept
        beyond it.
        """
        networks = NetworkStack({m: build_model(m) for m in PAPER_MODELS})
        generators = (
            table1_tuning,
            table3_power,
            table4_tops,
            partial(table5_training, networks=networks),
            fig3_activation_transfer,
            partial(fig4_photonic_energy, networks=networks),
            fig5_area_breakdown,
            partial(fig6_inferences_per_second, networks=networks),
        )
        results: list[ExperimentResult] = []
        for generator in generators:
            results.extend(generator().comparisons)
        return cls(results=results)

    # ------------------------------------------------------------------
    def deviations(self) -> list[ExperimentResult]:
        """Documented-deviation rows."""
        return [
            r for r in self.results
            if (r.experiment, r.metric) in KNOWN_DEVIATIONS
        ]

    def gated(self) -> list[ExperimentResult]:
        """Rows subject to the reproduction-accuracy gate."""
        return [
            r for r in self.results
            if (r.experiment, r.metric) not in KNOWN_DEVIATIONS
        ]

    def max_gated_error(self) -> float:
        """Worst relative error outside the documented deviations."""
        gated = self.gated()
        if not gated:
            return 0.0
        return max(r.within for r in gated)

    def render(self) -> str:
        """ASCII summary table, deviations flagged."""
        rows = []
        for r in self.results:
            flag = "DEVIATION" if (r.experiment, r.metric) in KNOWN_DEVIATIONS else ""
            rows.append(
                [
                    r.experiment,
                    r.metric,
                    r.paper_value,
                    r.measured_value,
                    f"{r.relative_error * 100:+.1f}%",
                    flag,
                ]
            )
        table = format_table(
            ["experiment", "metric", "paper", "measured", "delta", ""],
            rows,
            title="Paper vs measured — every table and figure",
        )
        footer = (
            f"\n{len(self.results)} comparisons; max relative error outside "
            f"documented deviations: {self.max_gated_error() * 100:.1f}%"
        )
        return table + footer

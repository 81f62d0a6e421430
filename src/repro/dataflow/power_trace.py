"""Chip power traces reconstructed from simulated tile schedules.

Table III is a static budget; this module makes it dynamic.  From the
discrete-event tile schedule (:mod:`repro.dataflow.schedule_sim`) each PE
is, at any instant, either *writing* (drawing the full Table III power,
tuning slot included), *streaming* (post-tuning power — the paper's
0.67 W -> 0.11 W drop), or idle.  Sampling the event timeline yields the
chip's power-vs-time trace, which must stay under the 30 W budget at every
instant — an invariant the tests enforce rather than assume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.dataflow.cost_model import PhotonicArch
from repro.dataflow.schedule_sim import LayerSimResult
from repro.errors import ConfigError


@dataclass(frozen=True)
class PowerTrace:
    """Sampled chip power over one layer's schedule."""

    times_s: np.ndarray
    power_w: np.ndarray
    write_power_pe_w: float
    stream_power_pe_w: float

    @property
    def peak_w(self) -> float:
        """Maximum instantaneous chip power [W]."""
        return float(self.power_w.max()) if self.power_w.size else 0.0

    @property
    def mean_w(self) -> float:
        """Average chip power over the trace [W]."""
        return float(self.power_w.mean()) if self.power_w.size else 0.0

    def energy_j(self) -> float:
        """Trapezoidal integral of the trace."""
        if self.times_s.size < 2:
            return 0.0
        return float(np.trapezoid(self.power_w, self.times_s))


def power_trace(
    sim: LayerSimResult,
    arch: PhotonicArch,
    n_samples: int = 2000,
) -> PowerTrace:
    """Sample chip power across a simulated layer's makespan.

    At sample time t, a PE draws the sizing (write) power if t falls in one
    of its write windows, the streaming power if in a streaming window, and
    nothing when idle.  Vectorized: one interval-containment test per event
    array, not per event.
    """
    if n_samples < 2:
        raise ConfigError("need at least two samples")
    if not sim.events:
        raise ConfigError("simulation has no events (run with keep_events=True)")
    t = np.linspace(0.0, sim.makespan_s, n_samples)
    starts = np.array([e.start_s for e in sim.events])
    write_ends = np.array([e.write_end_s for e in sim.events])
    ends = np.array([e.end_s for e in sim.events])

    # (samples, events) interval membership, summed over events.
    tt = t[:, None]
    writing = ((tt >= starts) & (tt < write_ends)).sum(axis=1)
    streaming = ((tt >= write_ends) & (tt < ends)).sum(axis=1)
    power = writing * arch.sizing_power_pe_w + streaming * arch.streaming_power_pe_w
    return PowerTrace(
        times_s=t,
        power_w=power.astype(np.float64),
        write_power_pe_w=arch.sizing_power_pe_w,
        stream_power_pe_w=arch.streaming_power_pe_w,
    )

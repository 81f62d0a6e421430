"""Always-on windowed serving rollups for closed-loop control.

The fleet controller needs live attainment / per-tenant shed / queue /
SDC signals, but it must **not** read the opt-in telemetry session:
control decisions routed through an opt-in sink would differ between
telemetry-on and telemetry-off runs, breaking the repo-wide guarantee
that enabling telemetry perturbs nothing.  :class:`ServingRollup` is the
dedicated always-on sink instead — fed directly by
:class:`~repro.serving.server.TridentServer` (``rollup=`` constructor
argument), pure Python, deterministic, and cheap enough to leave on for
every fleet run.

Samples are timestamped with the *virtual* clock and pruned against the
trailing window the rollup was built with, so
:meth:`ServingRollup.window_stats` is a pure function of (events so far,
now) — identical on replay.

Cost model: every aggregate is maintained **incrementally** — updated
when a sample is recorded and reversed when it ages out of the window —
so a controller tick reads the rollup in O(pruned samples), amortized
O(1) per sample over the run, instead of rescanning the whole window.
That is what keeps the control loop under the < 1%-of-serve-wall gate
(``benchmarks/test_timing_gates.py``) even when a large fleet
pushes thousands of completions through one tick window.  The one
slo-dependent counter (SLO-met completions) is re-armed by a single
scan if a caller switches grading targets mid-run; every other
aggregate is target-independent.
"""

from __future__ import annotations

import dataclasses
from collections import deque

from repro.errors import ServingError


@dataclasses.dataclass(slots=True)
class RollupStats:
    """One windowed reading of the serving signals the controller acts on.

    A plain record, built on every controller tick: a frozen dataclass
    sets each field through ``object.__setattr__``, which was most of
    that build.  Nothing writes a reading after
    :meth:`ServingRollup.window_stats` returns it.
    """

    #: Window the stats cover, ``(now - window_s, now]``: the rollup's own.
    window_s: float
    completions: int
    sheds: int
    #: Completed-within-SLO fraction over *organic* terminations in the
    #: window — sheds count as misses, except ``degraded_shed``: those
    #: are the controller's own policy refusals, and grading them as SLO
    #: failures would make degraded mode self-sustaining (the ladder's
    #: exit threshold could never be met while its floor is active).
    #: 1.0 when nothing terminated organically.
    attainment: float
    shed_by_tenant: dict[str, int]
    terminated_by_tenant: dict[str, int]
    #: Latest queue-depth observation in the window (0 when none).
    last_queue_depth: int
    #: Mean of power samples recorded in the window [W].
    mean_power_w: float
    #: Escalated silent-data-corruption incidents in the window — batches
    #: that failed ABFT attestation beyond local recovery.
    sdc_count: int
    sdc_by_worker: dict[int, int]

    def tenant_shed_rate(self, tenant: str) -> float:
        """Windowed shed fraction for one tenant (0.0 when silent)."""
        total = self.terminated_by_tenant.get(tenant, 0)
        if total == 0:
            return 0.0
        return self.shed_by_tenant.get(tenant, 0) / total

    def sdc_rate(self) -> float:
        """Escalated-SDC fraction over window completions + SDC failures.

        The denominator adds the SDC incidents themselves (an escalated
        batch never completes on that worker), so a worker producing
        *only* corrupt batches reads 1.0, not 0/0.
        """
        total = self.completions + self.sdc_count
        if total == 0:
            return 0.0
        return self.sdc_count / total


def _dict_inc(d: dict, key) -> None:
    d[key] = d.get(key, 0) + 1


def _dict_dec(d: dict, key) -> None:
    value = d.get(key, 0) - 1
    if value <= 0:
        d.pop(key, None)
    else:
        d[key] = value


class ServingRollup:
    """Trailing-window aggregation of completions, sheds, queue, power."""

    def __init__(self, window_s: float) -> None:
        if window_s <= 0:
            raise ServingError(f"rollup window must be positive, got {window_s}")
        self.window_s = float(window_s)
        # Raw samples, time-ordered, kept only until they age out.
        # (t, latency_s, deadline_met, tenant)
        self._completions: deque = deque()
        # (t, organic, tenant): organic is False for ``degraded_shed``.
        self._sheds: deque = deque()
        self._power: deque = deque()  # (t, watts)
        # Incremental aggregates over the unpruned samples.
        self._n_completions = 0
        self._n_organic_sheds = 0
        self._n_sheds = 0
        self._shed_by_tenant: dict[str, int] = {}
        self._terminated_by_tenant: dict[str, int] = {}
        self._power_sum = 0.0
        self._sdc: deque = deque()  # (t, worker_id)
        self._n_sdc = 0
        self._sdc_by_worker: dict[int, int] = {}
        # SLO-met count is the one target-dependent aggregate: armed on
        # the first read and rebuilt (single scan) if the target changes.
        self._armed_slo: float | None = None
        self._met = 0
        self._queue_last: tuple[float, int] | None = None

    # -- feed (called by the server / controller) ----------------------
    # Every record call prunes samples that have aged out of the
    # construction window — upkeep rides on the serve path (amortized
    # O(1) per sample), memory stays bounded even if nothing ever reads
    # the rollup, and the controller's read tick pays only for residue.
    def record_completion(
        self, t_s: float, latency_s: float, deadline_met: bool, tenant: str = ""
    ) -> None:
        """One served request, timestamped at its finish instant."""
        t_s, latency_s = float(t_s), float(latency_s)
        deadline_met = bool(deadline_met)
        self._prune(t_s - self.window_s)
        self._completions.append((t_s, latency_s, deadline_met, tenant))
        self._n_completions += 1
        _dict_inc(self._terminated_by_tenant, tenant)
        if (
            self._armed_slo is not None
            and deadline_met
            and latency_s <= self._armed_slo
        ):
            self._met += 1

    def record_shed(self, t_s: float, reason: str, tenant: str = "") -> None:
        """One rejected request, timestamped at the shed decision."""
        t_s = float(t_s)
        organic = str(reason) != "degraded_shed"
        self._prune(t_s - self.window_s)
        self._sheds.append((t_s, organic, tenant))
        self._n_sheds += 1
        self._n_organic_sheds += organic
        _dict_inc(self._shed_by_tenant, tenant)
        _dict_inc(self._terminated_by_tenant, tenant)

    def record_queue_depth(self, t_s: float, depth: int) -> None:
        """Queue-depth observation (server records on admit/dispatch)."""
        self._queue_last = (float(t_s), int(depth))

    def record_power(self, t_s: float, watts: float) -> None:
        """Fleet power-draw observation [W]."""
        watts = float(watts)
        t_s = float(t_s)
        self._prune(t_s - self.window_s)
        self._power.append((t_s, watts))
        self._power_sum += watts

    def record_sdc(self, t_s: float, worker_id: int = 0) -> None:
        """One escalated SDC incident (an ``IntegrityFault`` completion)."""
        t_s, worker_id = float(t_s), int(worker_id)
        self._prune(t_s - self.window_s)
        self._sdc.append((t_s, worker_id))
        self._n_sdc += 1
        _dict_inc(self._sdc_by_worker, worker_id)

    # -- read (called by the controller each tick) ---------------------
    def _prune(self, horizon: float) -> None:
        """Expire samples at or before ``horizon``, reversing aggregates."""
        completions = self._completions
        if completions and completions[0][0] <= horizon:
            # Completions expire by the hundred per window: keep the
            # per-sample work to the aggregates it must reverse.
            terminated = self._terminated_by_tenant
            armed = self._armed_slo
            expired = met = 0
            while completions and completions[0][0] <= horizon:
                _, latency, deadline_met, tenant = completions.popleft()
                expired += 1
                _dict_dec(terminated, tenant)
                if armed is not None and deadline_met and latency <= armed:
                    met += 1
            self._n_completions -= expired
            self._met -= met
        sheds = self._sheds
        while sheds and sheds[0][0] <= horizon:
            _, organic, tenant = sheds.popleft()
            self._n_sheds -= 1
            self._n_organic_sheds -= organic
            _dict_dec(self._shed_by_tenant, tenant)
            _dict_dec(self._terminated_by_tenant, tenant)
        power = self._power
        while power and power[0][0] <= horizon:
            self._power_sum -= power.popleft()[1]
        sdc = self._sdc
        while sdc and sdc[0][0] <= horizon:
            _, worker_id = sdc.popleft()
            self._n_sdc -= 1
            _dict_dec(self._sdc_by_worker, worker_id)

    def _arm(self, slo_latency_s: float) -> None:
        """(Re)build the SLO-met counter against a new grading target."""
        self._armed_slo = slo_latency_s
        self._met = sum(
            1
            for _, latency, deadline_met, _ in self._completions
            if deadline_met and latency <= slo_latency_s
        )

    def window_stats(self, now_s: float, slo_latency_s: float) -> RollupStats:
        """Aggregate the trailing window ending at ``now_s``.

        ``slo_latency_s`` is the attainment target to grade completions
        against — passed in (not stored) because the controller itself
        retunes the SLO and must grade against its *current* target.
        """
        window = self.window_s
        self._prune(now_s - window)
        if self._armed_slo != float(slo_latency_s):
            self._arm(float(slo_latency_s))
        terminated = self._n_completions + self._n_organic_sheds
        attainment = self._met / terminated if terminated else 1.0
        last = self._queue_last
        last_depth = 0 if last is None or last[0] <= now_s - window else last[1]
        return RollupStats(
            window_s=window,
            completions=self._n_completions,
            sheds=self._n_sheds,
            attainment=attainment,
            shed_by_tenant=dict(self._shed_by_tenant),
            terminated_by_tenant=dict(self._terminated_by_tenant),
            last_queue_depth=last_depth,
            mean_power_w=(
                self._power_sum / len(self._power) if self._power else 0.0
            ),
            sdc_count=self._n_sdc,
            sdc_by_worker=dict(self._sdc_by_worker),
        )

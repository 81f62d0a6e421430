"""Arrival synthesis against the per-request draw loops it replaced.

``synthesize_arrivals`` and ``synthesize_trace`` take one scalar
``exponential`` gap (and, for the fleet, one scalar thinning coin) per
request, then one ``random(2 + n_in)`` row, and derive the priority or
tenant, the deadline and the input from those rows in bulk.  The loops
below are the code they replaced, one ``Generator.choice``, ``random``
and ``uniform`` call per request.  Every field of every request, the
bytes of each input and serve's phase windows must match under ``==``
against the installed NumPy: a NumPy whose ``choice`` or ``uniform``
draws differently fails here instead of drifting.

The config records check their probabilities and rates once, at
construction, because the CDF no longer re-checks them on every draw.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.errors import ServingError
from repro.fleet import Burst, TenantSpec, TraceConfig, smoke_scenario, synthesize_trace
from repro.serving.request import InferenceRequest
from repro.serving.workload import (
    Phase,
    WorkloadConfig,
    categorical,
    synthesize_arrivals,
)

#: The serve gate's sustainable rate and the fleet gate's unit rate, as
#: their chips price them.
SERVE_RATE_HZ = 29291005.291005295
UNIT_RATE_HZ = 14645502.645502647
SLO_S = 1e-5


# ----------------------------------------------------------------------
# Reference loops (one choice, random and uniform call per request)
# ----------------------------------------------------------------------
def reference_arrivals(config, rate_hz, rng):
    requests = []
    windows = {}
    t = 0.0
    request_id = 0
    n_in = config.dims[0]
    slo = config.server.slo_latency_s
    for phase in config.phases:
        start = t
        lam = rate_hz * phase.rate_multiplier
        for _ in range(phase.n_requests):
            t += float(rng.exponential(1.0 / lam))
            priority = int(
                rng.choice(len(config.priority_probs), p=config.priority_probs)
            )
            deadline = t + slo if rng.random() < config.deadline_fraction else None
            requests.append(
                InferenceRequest(
                    request_id=request_id,
                    x=rng.uniform(-1.0, 1.0, n_in),
                    arrival_s=t,
                    deadline_s=deadline,
                    priority=priority,
                )
            )
            request_id += 1
        windows[phase.name] = (start, t)
    return requests, windows


def reference_trace(config, unit_rate_hz, n_in, slo_latency_s):
    if unit_rate_hz <= 0:
        raise ServingError("unit rate must be positive")
    rng = np.random.default_rng(config.seed)
    weights = np.array([t.weight for t in config.tenants], dtype=float)
    weights /= weights.sum()
    envelope_hz = config.peak_rate_x() * unit_rate_hz
    requests = []
    t = 0.0
    request_id = 0
    while True:
        t += float(rng.exponential(1.0 / envelope_hz))
        if t >= config.duration_s:
            break
        if float(rng.random()) * envelope_hz > config.rate_x(t) * unit_rate_hz:
            continue
        tenant = config.tenants[int(rng.choice(len(config.tenants), p=weights))]
        deadline = (
            t + slo_latency_s
            if float(rng.random()) < tenant.deadline_fraction
            else None
        )
        requests.append(
            InferenceRequest(
                request_id=request_id,
                x=rng.uniform(-1.0, 1.0, n_in),
                arrival_s=t,
                deadline_s=deadline,
                priority=tenant.priority,
                tenant=tenant.name,
                kind=tenant.kind,
            )
        )
        request_id += 1
        if request_id >= config.max_requests:
            raise ServingError(f"trace exceeded max_requests={config.max_requests}")
    return requests


def fields(requests):
    """Every request field, with ``x`` as its dtype, shape and bytes."""
    return [
        (
            r.request_id, r.arrival_s, r.deadline_s, r.priority, r.tenant, r.kind,
            r.x.dtype.str, r.x.shape, r.x.tobytes(),
        )
        for r in requests
    ]


def assert_same_requests(got, want):
    assert len(got) == len(want)
    assert fields(got) == fields(want)
    for r in got:
        assert type(r.arrival_s) is float
        assert r.deadline_s is None or type(r.deadline_s) is float
        assert type(r.priority) is int
        assert not r.x.flags.writeable
        assert r.x.flags.c_contiguous


def assert_serve_matches(config, rate_hz=SERVE_RATE_HZ, seed=None):
    seed = config.seed if seed is None else seed
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got, windows = synthesize_arrivals(config, rate_hz, rng)
    want, want_windows = reference_arrivals(config, rate_hz, ref_rng)
    assert_same_requests(got, want)
    assert windows == want_windows
    assert list(windows) == list(want_windows)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return got


def assert_trace_matches(config, unit_rate_hz=UNIT_RATE_HZ, n_in=12):
    got = synthesize_trace(config, unit_rate_hz, n_in, SLO_S)
    assert_same_requests(got, reference_trace(config, unit_rate_hz, n_in, SLO_S))
    return got


def bench_serve_config():
    """``serve-burst``'s config: the default three phases at ten times
    their request counts."""
    base = WorkloadConfig()
    return dataclasses.replace(base, phases=tuple(
        dataclasses.replace(p, n_requests=p.n_requests * 10) for p in base.phases
    ))


# ----------------------------------------------------------------------
# The categorical draw
# ----------------------------------------------------------------------
@pytest.mark.parametrize("probs", [
    (0.97, 0.025, 0.005),
    (0.5, 0.0, 0.5),
    (0.0, 1.0),
    (1.0,),
    (0.55, 0.30, 0.10, 0.05),
    tuple(np.full(7, 1 / 7)),
])
def test_categorical_draws_what_choice_draws(probs):
    a, b = np.random.default_rng(3), np.random.default_rng(3)
    want = [int(a.choice(len(probs), p=probs)) for _ in range(4000)]
    got = categorical(probs, b.random(4000))
    assert got.tolist() == want
    assert a.bit_generator.state == b.bit_generator.state


def test_categorical_of_normalized_weights():
    """The fleet normalizes its tenant weights before ``choice``."""
    weights = np.array([0.55, 0.30, 0.10, 0.05, 1e-3])
    weights /= weights.sum()
    a, b = np.random.default_rng(9), np.random.default_rng(9)
    want = [int(a.choice(len(weights), p=weights)) for _ in range(4000)]
    got = categorical(weights, b.random(4000))
    assert got.tolist() == want


# ----------------------------------------------------------------------
# Serve arrivals
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_serve_at_benchmark_size(seed):
    requests = assert_serve_matches(bench_serve_config(), seed=seed)
    assert len(requests) == 12_000


@pytest.mark.parametrize("config", [
    WorkloadConfig(priority_probs=(0.5, 0.0, 0.5)),
    WorkloadConfig(priority_probs=(1.0,)),
    WorkloadConfig(deadline_fraction=0.0),
    WorkloadConfig(deadline_fraction=1.0),
    WorkloadConfig(dims=(1, 4, 2)),
    WorkloadConfig(phases=(
        Phase("warm", 50, 0.6), Phase("burst", 0, 2.0), Phase("drain", 40, 0.35),
    )),
    WorkloadConfig(phases=(Phase("drain", 0, 1.0),)),
], ids=[
    "zero-probability", "one-priority", "deadline-0", "deadline-1", "n_in-1",
    "empty-phase", "no-requests",
])
def test_serve_edge_configs(config):
    assert_serve_matches(config)


# ----------------------------------------------------------------------
# Fleet traces
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_fleet_smoke_trace(seed):
    requests = assert_trace_matches(smoke_scenario(seed).trace)
    assert len(requests) > 20_000


def test_fleet_single_tenant_and_deadline_edges():
    tenants = (TenantSpec("only", weight=2.0, priority=1, deadline_fraction=1.0),)
    trace = TraceConfig(duration_s=5e-5, base_rate_x=1.5, tenants=tenants, seed=4)
    assert_trace_matches(trace)
    never = (TenantSpec("none", weight=1.0, deadline_fraction=0.0, kind="train"),
             TenantSpec("all", weight=3.0, priority=2, deadline_fraction=1.0))
    assert_trace_matches(dataclasses.replace(trace, tenants=never), n_in=1)


def test_fleet_overlapping_bursts():
    trace = TraceConfig(
        duration_s=5e-5, base_rate_x=1.0,
        bursts=(Burst(1e-5, 1.5e-5, 2.0), Burst(2e-5, 1.5e-5, 1.5)), seed=2,
    )
    assert_trace_matches(trace)


def test_fleet_trace_too_short_to_accept_anything():
    trace = TraceConfig(duration_s=1e-12, base_rate_x=1.0, seed=0)
    assert synthesize_trace(trace, UNIT_RATE_HZ, 12, SLO_S) == []
    assert reference_trace(trace, UNIT_RATE_HZ, 12, SLO_S) == []


def test_fleet_max_requests_raises_at_the_same_count():
    trace = TraceConfig(duration_s=2e-5, base_rate_x=1.0, seed=1)
    n = len(assert_trace_matches(trace))
    assert n > 1
    assert len(assert_trace_matches(dataclasses.replace(trace, max_requests=n + 1))) == n
    for cap in (n, n - 1, 1):
        capped = dataclasses.replace(trace, max_requests=cap)
        with pytest.raises(ServingError, match=f"max_requests={cap}"):
            reference_trace(capped, UNIT_RATE_HZ, 12, SLO_S)
        with pytest.raises(ServingError, match=f"max_requests={cap}"):
            synthesize_trace(capped, UNIT_RATE_HZ, 12, SLO_S)


@pytest.mark.parametrize("unit_rate_hz", [0.0, -1.0, math.nan, math.inf])
def test_fleet_rejects_a_bad_unit_rate(unit_rate_hz):
    trace = TraceConfig(duration_s=1e-4, base_rate_x=1.0)
    with pytest.raises(ServingError, match="unit rate"):
        synthesize_trace(trace, unit_rate_hz, 12, SLO_S)


# ----------------------------------------------------------------------
# Validation at construction
# ----------------------------------------------------------------------
BAD_CONFIGS = {
    "trace duration nan": lambda: TraceConfig(duration_s=math.nan, base_rate_x=1.0),
    "trace base rate nan": lambda: TraceConfig(duration_s=1.0, base_rate_x=math.nan),
    "trace base rate inf": lambda: TraceConfig(duration_s=1.0, base_rate_x=math.inf),
    "trace period nan": lambda: TraceConfig(
        duration_s=1.0, base_rate_x=1.0, period_s=math.nan
    ),
    "burst start nan": lambda: Burst(math.nan, 0.1, 2.0),
    "burst gain nan": lambda: Burst(0.1, 0.1, math.nan),
    "burst duration inf": lambda: Burst(0.1, math.inf, 2.0),
    "tenant weight nan": lambda: TenantSpec("t", weight=math.nan),
    "tenant weight inf": lambda: TenantSpec("t", weight=math.inf),
    "tenant weights overflow": lambda: TraceConfig(
        duration_s=1.0,
        base_rate_x=1.0,
        tenants=(TenantSpec("a", weight=1e308), TenantSpec("b", weight=1e308)),
    ),
    "trace max requests 0": lambda: TraceConfig(
        duration_s=1.0, base_rate_x=1.0, max_requests=0
    ),
    "phase rate nan": lambda: Phase("warm", 10, math.nan),
    "priority probs nan": lambda: WorkloadConfig(priority_probs=(math.nan, 0.5, 0.5)),
    "priority probs negative": lambda: WorkloadConfig(
        priority_probs=(1.05, -0.05, 0.0)
    ),
}


@pytest.mark.parametrize("build", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_arrival_configs_reject_nan_inf_and_negative_values(build):
    with pytest.raises(ServingError):
        build()

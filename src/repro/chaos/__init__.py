"""Deterministic chaos injection and the soak/variability gate.

Robustness claims need adversarial evidence: this package injects
faults *on purpose* — worker crashes mid-batch, corrupted MVM outputs,
stuck-cell bursts, accelerated drift, breaker storms, bit-rotted
checkpoints, torn ledger tails, clock jitter — and then audits that the
stack's contracts (request conservation, structured sheds, atomic
batches, finite outputs, charged repairs, bit-identical replay) held
anyway.

Everything is seeded and replayable.  A :class:`ChaosPlan` is a
JSON-serializable schedule of :class:`Injection` records (compile one
from a :class:`ChaosProfile` with :func:`compile_plan`); a
:class:`~repro.chaos.session.ChaosSession` activates a plan through
explicit hook points — no monkey-patching anywhere — and logs every
applied injection.  Each injection draws from its own derived stream
(``default_rng((plan.seed, index))``), so the same (workload seed,
chaos seed) pair reproduces a run bit-for-bit, and a disabled session
costs one global read per hook (``benchmarks/test_timing_gates.py``
enforces < 1% on the batched forward path).

``python -m repro soak`` sweeps the serve/shard/resume/train/fleet/sdc
scenarios across seeds with chaos on, emitting a pass/flake matrix;
``--smoke`` turns any failure into a non-zero exit for CI.
:mod:`repro.chaos.audit` is the one implementation of the run
invariants: every serving ``--smoke`` gate and soak cell is a scenario
run plus its audit.
"""

from repro.chaos.audit import AuditResult, audit_serve_run, capture_accounting
from repro.chaos.injectors import (
    STORM_REASON,
    apply_file_injection,
    flip_file_bit,
    make_server_action,
    tear_jsonl_tail,
)
from repro.chaos.plan import (
    CORRUPT_MODES,
    CRASH_PHASES,
    FILE_KINDS,
    INJECTION_KINDS,
    INLINE_KINDS,
    SCHEDULED_KINDS,
    ChaosPlan,
    ChaosProfile,
    Injection,
    compile_plan,
)
from repro.chaos.session import (
    ChaosSession,
    active,
    corrupt_output,
    crash_check,
    disable,
    enable,
    enabled,
    session,
)
from repro.chaos.soak import (
    MATRIX_SCHEMA,
    SCENARIO_NAMES,
    SoakConfig,
    render_matrix,
    run_cell,
    run_self_audit,
    run_soak,
    soak_gate,
    validate_matrix,
)

__all__ = [
    "AuditResult",
    "CORRUPT_MODES",
    "CRASH_PHASES",
    "ChaosPlan",
    "ChaosProfile",
    "ChaosSession",
    "FILE_KINDS",
    "INJECTION_KINDS",
    "INLINE_KINDS",
    "Injection",
    "MATRIX_SCHEMA",
    "SCENARIO_NAMES",
    "SCHEDULED_KINDS",
    "STORM_REASON",
    "SoakConfig",
    "active",
    "apply_file_injection",
    "audit_serve_run",
    "capture_accounting",
    "compile_plan",
    "corrupt_output",
    "crash_check",
    "disable",
    "enable",
    "enabled",
    "flip_file_bit",
    "make_server_action",
    "render_matrix",
    "run_cell",
    "run_self_audit",
    "run_soak",
    "soak_gate",
    "session",
    "tear_jsonl_tail",
    "validate_matrix",
]

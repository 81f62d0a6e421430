"""Golden serving ledger: pinned decision logs of the three serving workloads.

Drives the smoke-size ``serve-burst``, ``shard-pipeline`` and
``fleet-diurnal`` workloads of the repo benchmark (``benchmarks/suite/
workloads.py``, loaded read-only) at seed 0 and compares each run with
``tests/golden/serving.json``:

- portable fields, checked on every machine: the request counts, shed
  counts by reason, scheduled retries and the sha256 of the decision log;
- the full serving digest (decision log, every output's bits and the
  chips' event counters), checked only where the recorded machine
  fingerprint (Python, NumPy, platform) matches, because output bits pass
  through BLAS kernels that may round differently elsewhere.

Each workload is built and served twice in one process, so state leaking
from one server into the next fails the test too.

Regenerate the ledger (and print what moved) after an intended change:

    PYTHONPATH=src python tests/test_golden_serving.py
"""

from __future__ import annotations

import difflib
import hashlib
import importlib.util
import json
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "serving.json"
WORKLOADS = ("serve-burst", "shard-pipeline", "fleet-diurnal")
SEED = 0


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "benchmarks" / "suite" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return module


def fingerprint() -> dict:
    """What the full (output-bit) digest is allowed to depend on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


def _hex(data: bytes) -> str:
    return data.hex()[:16]


def record(bench, name: str) -> dict:
    """Serve one smoke-size workload at :data:`SEED`; its ledger entry."""
    workload = bench.WORKLOADS[name](smoke=True)
    ctx = workload.build(SEED)
    report = workload.op(ctx, 0)
    result = workload.inspect(ctx, 0, report)
    decisions = json.dumps(report.decisions, sort_keys=True, default=repr)
    return {
        "portable": {
            "submitted": report.submitted,
            "completed": len(report.completed),
            "shed": dict(sorted(report.shed_by_reason().items())),
            "retries_scheduled": report.retries_scheduled,
            "decisions_sha256": _hex(
                hashlib.sha256(decisions.encode()).digest()
            ),
        },
        # As ``run.py --smoke`` prints it: sha256 of the one op's digest.
        "serve_digest": _hex(hashlib.sha256(result.digest).digest()),
    }


def ledger(bench) -> dict:
    return {
        "fingerprint": fingerprint(),
        "workloads": {name: record(bench, name) for name in WORKLOADS},
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def bench():
    return _load_workloads()


@pytest.mark.parametrize("name", WORKLOADS)
def test_serving_ledger_replays(golden, bench, name):
    expected = golden["workloads"][name]
    same_machine = golden["fingerprint"] == fingerprint()
    for _ in range(2):
        got = record(bench, name)
        assert got["portable"] == expected["portable"]
        if same_machine:
            assert got["serve_digest"] == expected["serve_digest"]


def main() -> int:
    old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    new = ledger(_load_workloads())
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    before = json.dumps(old, indent=2, sort_keys=True).splitlines()
    after = json.dumps(new, indent=2, sort_keys=True).splitlines()
    diff = list(difflib.unified_diff(before, after, "old", "new", lineterm=""))
    print("\n".join(diff) if diff else "golden ledger unchanged")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Shared helpers for the benchmark harness.

Every bench regenerates one of the paper's tables/figures under
pytest-benchmark timing, asserts the paper-vs-measured tolerances, and
writes the rendered report to ``benchmarks/results/`` so the artifacts are
inspectable after a ``pytest benchmarks/ --benchmark-only`` run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture
def record_report(results_dir):
    """Write a rendered report to benchmarks/results/<name>.txt."""

    def _record(name: str, text: str) -> None:
        (results_dir / f"{name}.txt").write_text(text + "\n")

    return _record


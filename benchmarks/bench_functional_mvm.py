"""Performance microbenchmarks of the functional simulator's hot paths.

These guard the vectorization invariants the HPC guides require: bank
programming and the analog MVP must be array operations, not per-ring
Python loops.  Thresholds are generous (they catch accidental O(n) Python
regressions, not platform noise).
"""

import numpy as np
import pytest

from repro.arch.weight_bank import WeightBank
from repro.devices.activation_cell import GSTActivationCell
from repro.devices.gst import patch_transmission


@pytest.fixture
def programmed_bank(rng=np.random.default_rng(0)):
    bank = WeightBank()
    bank.program(rng.uniform(-1, 1, (16, 16)))
    return bank


def test_bank_program_speed(benchmark):
    bank = WeightBank()
    w = np.random.default_rng(1).uniform(-1, 1, (16, 16))
    benchmark(bank.program, w)


def test_bank_matvec_speed(benchmark, programmed_bank):
    # A matrix-vector product is a single-column matmat.
    x = np.random.default_rng(2).uniform(-1, 1, (16, 1))
    benchmark(programmed_bank.matmat, x)


def test_bank_matmat_batch_speed(benchmark, programmed_bank):
    x = np.random.default_rng(3).uniform(-1, 1, (16, 256))
    result = benchmark(programmed_bank.matmat, x)
    assert result.shape == (16, 256)


def test_gst_vectorized_transmission_speed(benchmark):
    fractions = np.linspace(0, 1, 10_000)
    out = benchmark(patch_transmission, fractions, 0.3e-6)
    assert out.shape == (10_000,)


def test_activation_vectorized_speed(benchmark):
    cell = GSTActivationCell()
    h = np.random.default_rng(4).normal(size=100_000)
    out = benchmark(cell.activate, h)
    assert out.shape == (100_000,)

"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import signal

import numpy as np
import pytest

from repro.arch.config import TridentConfig
from repro.devices.noise import NoiseModel
from repro.devices.pcm_mrr import build_calibration


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def config() -> TridentConfig:
    return TridentConfig()


@pytest.fixture
def noisy() -> NoiseModel:
    return NoiseModel.realistic(seed=7)


@pytest.fixture(scope="session")
def calibration():
    """One shared device calibration (it is deterministic and immutable)."""
    return build_calibration()


@pytest.fixture(scope="session")
def hang_guard():
    """``with hang_guard(seconds):`` fails a block that never returns.

    A SIGALRM timer stands in for pytest-timeout, which is not a test
    dependency: a regression that spins an event loop must fail tier-1
    instead of hanging it.
    """

    @contextlib.contextmanager
    def guard(seconds: int = 10):
        def expire(signum, frame):
            raise TimeoutError(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(seconds)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    return guard

"""Shared fixtures: simulated testbeds, deployed models, RNG."""

from __future__ import annotations

import numpy as np
import pytest

from repro.deploy import DeploymentConfig, deploy
from repro.sim.machine import testbed_i, testbed_ii
from tests.machines import custom_machine


@pytest.fixture(scope="session")
def tb1():
    return testbed_i()


@pytest.fixture(scope="session")
def tb2():
    return testbed_ii()


@pytest.fixture(scope="session")
def quiet_machine():
    """A deterministic machine (no noise) with round numbers."""
    return custom_machine(noise_sigma=0.0)


@pytest.fixture(scope="session")
def models_tb2(tb2):
    """Quick-scale deployed model database for Testbed II."""
    return deploy(tb2, DeploymentConfig.quick())


@pytest.fixture(scope="session")
def models_tb1(tb1):
    """Quick-scale deployed model database for Testbed I."""
    return deploy(tb1, DeploymentConfig.quick())


@pytest.fixture(scope="session")
def models_quiet(quiet_machine):
    return deploy(quiet_machine, DeploymentConfig.quick())


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def check_trace():
    """Verify recorded event streams against the structural invariants.

    Yields a callable wrapping :func:`repro.obs.verify_trace`; call it
    with a :class:`TraceRecorder` (or an event iterable) and optionally
    ``allow_unmatched_faults=True`` for runs that may exhaust their
    retry budget, or ``requests=`` to also check the serving layer's
    per-request lifecycle invariants.  The fixture fails the test at
    teardown if it was requested but never called — a
    requested-but-unused verifier is a hole in the test, not a pass.
    """
    from repro.obs import verify_trace

    calls = []

    def check(trace, **kwargs) -> None:
        calls.append(trace)
        verify_trace(trace, **kwargs)

    yield check
    assert calls, "check_trace fixture requested but never called"

"""Shared fixtures for the test suite.

Machines are cheap to construct (threads start lazily), so most fixtures
are function-scoped for isolation.  Timeouts are kept short: a suspended
PCN process that never resumes is a bug, and we want it to surface as a
TimeoutError, not a hung suite.

``REPRO_SWITCH_INTERVAL=S`` sets the interpreter's thread switch interval
to ``S`` seconds for the session (``sys.setswitchinterval``; the default
is 0.005): a short interval, ``1e-5`` say, hands the GIL over far more
often and so runs the suite under schedules the default rarely makes.
It is the option the perturbation cell of ROADMAP item 18(a) sets, once
the fault suites it runs pass under it.
"""

from __future__ import annotations

import os
import sys
import time

import pytest

from repro.arrays.am_util import load_all, node_array
from repro.core.runtime import IntegratedRuntime
from repro.vp.machine import Machine


_DEFAULT_SWITCH_INTERVAL = sys.getswitchinterval()


def pytest_configure(config):
    interval = os.environ.get("REPRO_SWITCH_INTERVAL")
    if interval:
        sys.setswitchinterval(float(interval))


def pytest_unconfigure(config):
    sys.setswitchinterval(_DEFAULT_SWITCH_INTERVAL)


@pytest.fixture
def machine4() -> Machine:
    m = Machine(4)
    load_all(m)
    return m


@pytest.fixture
def machine8() -> Machine:
    m = Machine(8)
    load_all(m)
    return m


@pytest.fixture
def machine16() -> Machine:
    m = Machine(16)
    load_all(m)
    return m


@pytest.fixture
def rt4() -> IntegratedRuntime:
    return IntegratedRuntime(4)


@pytest.fixture
def rt8() -> IntegratedRuntime:
    return IntegratedRuntime(8)


@pytest.fixture
def rt16() -> IntegratedRuntime:
    return IntegratedRuntime(16)


def procs_for(machine: Machine):
    return node_array(0, 1, machine.num_nodes)


def wait_until(predicate, timeout=10.0, interval=0.005):
    """Poll ``predicate`` on real time until it holds or ``timeout``
    seconds pass; return its last value.  Only for what waits out a real
    deadline (a recv deadline, a worker thread): a wait on the failure
    detector steps the machine's clock with :func:`advance_until`."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


def advance_until(clock, predicate, step, rounds=400):
    """Advance a :class:`~repro.vp.clock.ManualClock` ``step`` seconds at
    a time until ``predicate`` holds, at most ``rounds`` times; return
    whether it held."""
    for _ in range(rounds):
        if predicate():
            return True
        clock.advance(step)
    return predicate()

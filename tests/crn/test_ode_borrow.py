"""LSODA callbacks borrow the kernel's output buffers.

Both LSODA callers in :mod:`repro.crn.simulation.ode` (the resumable
walk and ``odeint``) call ``MassActionKinetics.rhs``/``jacobian`` with
``borrow=True``, which returns the kernel's own ``rhs_out``/``jac_out``
instead of a copy: scipy copies every callback result into its own
work array before it calls back again.  These tests pin that contract:

* every callback still goes through the class attributes, so a
  class-level wrapper (the benchmark's tracing) counts exactly the
  solver's ``ode.nfev`` and ``ode.njev``;
* a buffer overwritten with NaN as each callback starts changes no
  result bit, so a scipy that kept a callback result past the next
  call would fail here instead of corrupting rows;
* a caller that does not borrow still gets fresh arrays, and the NumPy
  twins ignore ``borrow``;
* forks of one template running on threads keep their own buffers.
"""

from __future__ import annotations

import sys
import threading
import warnings

import numpy as np
import pytest

from repro.apps.filters import moving_average
from repro.core.machine import SynchronousMachine
from repro.crn import native
from repro.crn.kinetics import MassActionKinetics, build_kinetics
from repro.crn.simulation import ode
from repro.obs import MetricsRegistry

STREAM = {"x": [8.0, 4.0, 6.0, 2.0]}


@pytest.fixture
def kernel():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        module = native.load()
    if module is None:
        pytest.skip("compiled kernel unavailable; nothing is borrowed")
    return module


def outputs(run) -> bytes:
    spans = [(span.index, span.t0, span.t1) for span in run.cycles]
    return run.outputs["y"].tobytes() + repr(
        (run.state_history, spans)).encode()


def test_class_level_wrappers_count_every_callback(monkeypatch):
    counted = {"rhs": 0, "jacobian": 0, "borrowed": 0}

    def counting(name):
        original = getattr(MassActionKinetics, name)

        def wrapper(self, t, x, borrow=False):
            counted[name] += 1
            counted["borrowed"] += borrow
            return original(self, t, x, borrow)
        return wrapper

    for name in ("rhs", "jacobian"):
        monkeypatch.setattr(MassActionKinetics, name, counting(name))
    metrics = MetricsRegistry()
    SynchronousMachine(moving_average(2), metrics=metrics).run(STREAM)
    counters = metrics.to_dict()["counters"]
    assert (counted["rhs"], counted["jacobian"]) == (10_514, 792)
    assert (counters["ode.nfev"], counters["ode.njev"]) == (10_514, 792)
    # Every callback came from LSODA, and each one borrowed.
    assert counted["borrowed"] == 10_514 + 792


@pytest.mark.parametrize("walk", ["lsoda", "odeint"])
def test_poisoned_buffers_change_no_bit(kernel, monkeypatch, walk):
    if walk == "odeint":
        monkeypatch.setattr(ode, "_lsoda_entry", None)
    monkeypatch.setattr(ode, "_BORROW", (False,))
    copied = outputs(SynchronousMachine(moving_average(2)).run(STREAM))
    monkeypatch.setattr(ode, "_BORROW", (True,))
    poisoned = []

    def poisoning(name):
        original = getattr(MassActionKinetics, name)

        def wrapper(self, t, x, borrow=False):
            if self._kernel:
                assert borrow
                self._kernel.rhs_out.fill(np.nan)
                self._kernel.jac_out.fill(np.nan)
                poisoned.append(name)
            return original(self, t, x, borrow)
        return wrapper

    for name in ("rhs", "jacobian"):
        monkeypatch.setattr(MassActionKinetics, name, poisoning(name))
    run = SynchronousMachine(moving_average(2)).run(STREAM)
    assert poisoned.count("rhs") > 10_000 and "jacobian" in poisoned
    assert outputs(run) == copied


def test_callers_that_do_not_borrow_get_fresh_arrays(kernel):
    network = SynchronousMachine(moving_average(2)).network
    kinetics = build_kinetics(network)
    x = np.linspace(0.5, 20.0, network.n_species)
    y = x[::-1].copy()
    for name, buffer in (("rhs", "rhs_out"), ("jacobian", "jac_out")):
        evaluate = getattr(kinetics, name)
        first = evaluate(0.0, x)
        second = evaluate(0.0, y)
        owned = getattr(kinetics._kernel, buffer)
        assert not np.shares_memory(first, owned)
        assert not np.shares_memory(second, owned)
        assert first.tobytes() == evaluate(0.0, x).tobytes()
        assert evaluate(0.0, x, borrow=True) is owned
        assert owned.tobytes() == first.tobytes()


def test_the_twins_ignore_borrow(monkeypatch):
    monkeypatch.setattr(native, "_kernel", None)
    network = SynchronousMachine(moving_average(2)).network
    kinetics = build_kinetics(network)
    x = np.linspace(0.5, 20.0, network.n_species)
    for name in ("rhs", "jacobian"):
        evaluate = getattr(kinetics, name)
        first = evaluate(0.0, x, borrow=True)
        second = evaluate(0.0, x, borrow=True)
        assert first is not second
        assert first.tobytes() == second.tobytes()
    assert kinetics._kernel is False


def test_forks_on_threads_keep_their_own_buffers():
    streams = [{"x": [8.0, 2.0, 6.0]}, {"x": [4.0, 0.0, 10.0]}] * 2
    serial = [outputs(SynchronousMachine(moving_average(2)).run(stream))
              for stream in streams[:2]] * 2
    machines = [SynchronousMachine(moving_average(2)) for _ in streams]
    assert len({id(machine.template) for machine in machines}) == 1
    barrier = threading.Barrier(len(machines), timeout=60)
    results: list = [None] * len(machines)

    def work(i: int) -> None:
        barrier.wait()
        results[i] = outputs(machines[i].run(streams[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(len(machines))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial

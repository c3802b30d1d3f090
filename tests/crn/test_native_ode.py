"""The compiled BDF integrator (``OdeSimulator(method="native-bdf")``).

``repro_bdf_solve`` in :mod:`repro.crn.native` is scipy's variable-order
BDF ported to C: one call integrates a segment on the compiled kinetics,
checks a clock margin after every accepted step and locates its first
crossing on the step's interpolant.  These tests pin what the machines
rely on:

* it solves closed-form systems within its tolerances, and takes the
  steps, Newton iterations and factorizations scipy's ``BDF`` takes;
* sample rows come from the interpolant, so asking for them never moves
  a step, the final state or the event time;
* a state sitting on the event surface does not fire, a stalled segment
  ends in the driver's deadline error, and a blow-up or overflow raises
  ``SimulationError`` naming the time;
* forks of one machine template keep their own solver state on threads;
* it takes each ``events.py`` factory's ``MarginEvent``, landing where
  LSODA lands within the cross-solver acceptance;
* events it cannot evaluate in C are refused.
"""

from __future__ import annotations

import sys
import threading
import warnings

import numpy as np
import pytest

from repro.apps.filters import moving_average
from repro.conformance.generator import BUDGETS, generate_targets
from repro.conformance.oracles import SOLVER_ATOL, SOLVER_RTOL
from repro.core.machine import SynchronousMachine
from repro.crn import native
from repro.crn.network import Network
from repro.crn.simulation.events import (species_above, species_below,
                                         total_above, total_below)
from repro.crn.simulation.margins import MarginEvent, MarginTable
from repro.crn.simulation.ode import OdeSimulator, solve_ivp
from repro.errors import SimulationError
from repro.obs import MemorySink, MetricsRegistry, SpanRecord, Tracer

STREAM = {"x": [8.0, 4.0, 6.0, 2.0]}


@pytest.fixture(autouse=True)
def kernel():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        module = native.load()
    if module is None:
        pytest.skip("compiled kernel unavailable; native-bdf runs LSODA")
    return module


def _decay(k: float = 0.7, a0: float = 10.0) -> Network:
    network = Network("decay")
    network.add({"A": 1}, None, k)
    network.set_initial("A", a0)
    return network


def _reversible(kf: float = 2.0, kb: float = 0.5) -> Network:
    network = Network("reversible")
    network.add({"A": 1}, {"B": 1}, kf)
    network.add({"B": 1}, {"A": 1}, kb)
    network.set_initial("A", 10.0)
    return network


def _margin_event(network, species: str, threshold: float, sign: int,
                  direction: float):
    """The machines' event shape: one margin table term."""
    table = MarginTable([([network.species_index(species)], [1.0],
                          threshold, sign)])
    return MarginEvent(table, direction)


#: One terminal event per ``events.py`` factory on the machine start:
#: the clock red drains, the clock blue fills, the red signals drain
#: and the blue signals fill.
FACTORY_EVENTS = {
    "species_below": lambda network: species_below(network, "C_red", 10.0),
    "species_above": lambda network: species_above(network, "C_blue", 10.0),
    "total_below": lambda network: total_below(
        network, ["s_x_p", "s_d1_p"], 4.0),
    "total_above": lambda network: total_above(
        network, ["a_d1_p", "a_y_p"], 6.0),
}


def _machine_start():
    network = SynchronousMachine(moving_average(2)).network
    x0 = network.initial_vector()
    x0[network.species_index("s_x_p")] += 8.0
    return network, x0


class TestClosedForm:
    def test_first_order_decay(self):
        trajectory = OdeSimulator(_decay(), method="native-bdf").simulate(
            5.0, n_samples=51)
        expected = 10.0 * np.exp(-0.7 * trajectory.times)
        np.testing.assert_allclose(trajectory.column("A"), expected,
                                   rtol=1e-5, atol=1e-8)
        assert trajectory.times[-1] == 5.0

    def test_reversible_pair(self):
        trajectory = OdeSimulator(_reversible(),
                                  method="native-bdf").simulate(
            4.0, n_samples=41)
        equilibrium = 10.0 * 0.5 / 2.5
        expected = equilibrium + (10.0 - equilibrium) * np.exp(
            -2.5 * trajectory.times)
        np.testing.assert_allclose(trajectory.column("A"), expected,
                                   rtol=1e-5, atol=1e-8)
        np.testing.assert_allclose(
            trajectory.column("A") + trajectory.column("B"), 10.0,
            rtol=1e-9)

    def test_sample_grid_is_the_lsoda_grid(self):
        native_run = OdeSimulator(_decay(), method="native-bdf").simulate(
            3.0, n_samples=400)
        lsoda_run = OdeSimulator(_decay()).simulate(3.0, n_samples=400)
        assert native_run.times.tobytes() == lsoda_run.times.tobytes()
        np.testing.assert_allclose(native_run.states, lsoda_run.states,
                                   rtol=1e-5, atol=1e-8)


class TestRowsNeverMoveAStep:
    def test_event_run(self):
        network, x0 = _machine_start()
        event = _margin_event(network, "C_red", 10.0, 1, -1.0)
        simulator = OdeSimulator(network, method="native-bdf")
        sparse = simulator.simulate(50.0, initial=x0, n_samples=2,
                                    events=[event])
        dense = simulator.simulate(50.0, initial=x0, n_samples=50_000,
                                   events=[event])
        assert sparse.meta["event"] == dense.meta["event"] == 0
        assert sparse.meta["event_time"] == dense.meta["event_time"]
        assert sparse.states[-1].tobytes() == dense.states[-1].tobytes()
        # Thousands of rows grew the buffer, one interpolant each.
        assert dense.times.size > 64
        assert np.all(np.diff(dense.times) > 0)

    def test_plain_run(self):
        network, x0 = _machine_start()
        simulator = OdeSimulator(network, method="native-bdf")
        sparse = simulator.simulate(6.0, initial=x0, n_samples=2)
        dense = simulator.simulate(6.0, initial=x0, n_samples=601)
        assert sparse.states[-1].tobytes() == dense.states[-1].tobytes()

    def test_machine_record_equals_bare_run(self):
        bare = SynchronousMachine(moving_average(2)).run(STREAM)
        recorded = SynchronousMachine(moving_average(2)).run(STREAM,
                                                             record=True)
        assert recorded.outputs["y"].tobytes() == bare.outputs["y"].tobytes()
        assert [(s.t0, s.t1) for s in recorded.cycles] == \
            [(s.t0, s.t1) for s in bare.cycles]


class TestEvents:
    def test_located_as_accurately_as_lsoda_locates_it(self):
        network, x0 = _machine_start()
        event = _margin_event(network, "C_red", 10.0, 1, -1.0)
        native_run, lsoda_run, exact = [
            OdeSimulator(network, method=method, **tolerances).simulate(
                50.0, initial=x0, n_samples=101, events=[event])
            for method, tolerances in (
                ("native-bdf", {}), ("LSODA", {}),
                ("BDF", {"rtol": 1e-12, "atol": 1e-14}))]
        for run in (native_run, lsoda_run):
            assert run.meta["event_time"] == pytest.approx(
                exact.meta["event_time"], rel=1e-5)
        # The state at the located time satisfies the event.
        red = native_run.states[-1][network.species_index("C_red")]
        assert red <= 10.0

    @pytest.mark.parametrize("sign,direction", [(1, -1.0), (-1, 1.0)])
    def test_a_state_on_the_surface_does_not_fire(self, sign, direction):
        # A decays from 10: the margin starts at exactly 0 and moves
        # across to the firing side, but never from its far side.
        network = _decay()
        event = _margin_event(network, "A", 10.0, sign, direction)
        trajectory = OdeSimulator(network, method="native-bdf").simulate(
            2.0, events=[event])
        assert "event" not in trajectory.meta
        assert trajectory.times[-1] == 2.0

    def test_stalled_segment_raises_the_driver_deadline(self):
        messages = []
        for method in ("native-bdf", "LSODA"):
            machine = SynchronousMachine(moving_average(2), method=method,
                                         max_cycle_time=0.05)
            with pytest.raises(SimulationError,
                               match="did not leave the boundary") as info:
                machine.run(STREAM)
            messages.append(str(info.value))
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("events", [
        [lambda t, x: x[0] - 1.0],
        [_margin_event(_decay(), "A", 5.0, 1, 0.0)],
        [_margin_event(_decay(), "A", 5.0, 1, -1.0)] * 2,
    ], ids=["plain-callable", "non-directional", "two-events"])
    def test_unsupported_events_are_refused(self, events):
        for event in events:
            event.terminal = True
        simulator = OdeSimulator(_decay(), method="native-bdf")
        with pytest.raises(SimulationError, match="native-bdf supports"):
            simulator.simulate(2.0, events=events)

    @pytest.mark.parametrize("name", sorted(FACTORY_EVENTS))
    def test_takes_each_factory_event(self, name):
        network, x0 = _machine_start()
        event = FACTORY_EVENTS[name](network)
        native_run, lsoda_run = [
            OdeSimulator(network, method=method).simulate(
                50.0, initial=x0, n_samples=101, events=[event])
            for method in ("native-bdf", "LSODA")]
        assert native_run.meta["event"] == lsoda_run.meta["event"] == 0
        assert native_run.meta["event_time"] == pytest.approx(
            lsoda_run.meta["event_time"], rel=1e-5)
        # diff.native-ode-vs-lsoda's acceptance, on the event state.
        scale = max(1.0, float(np.max(np.abs(lsoda_run.states))))
        np.testing.assert_allclose(
            native_run.states[-1], lsoda_run.states[-1], rtol=0.0,
            atol=SOLVER_ATOL + SOLVER_RTOL * scale)

    def test_a_margin_outside_the_network_is_refused(self):
        table = MarginTable([([0, 3], [1.0, 1.0], 5.0, 1)])
        simulator = OdeSimulator(_decay(), method="native-bdf")
        with pytest.raises(SimulationError, match="outside the network"):
            simulator.simulate(2.0, events=[MarginEvent(table, -1.0)])


class TestFailures:
    def test_blow_up_underflows_the_step_naming_t(self):
        network = Network("blow_up")  # dA/dt = A^2: infinite at t = 0.1
        network.add({"A": 2}, {"A": 3}, 1.0)
        network.set_initial("A", 10.0)
        with pytest.raises(SimulationError,
                           match=r"at t=0\.09999.*step size underflowed"):
            OdeSimulator(network, method="native-bdf").simulate(1.0)

    def test_nan_tolerance_fails_instead_of_spinning(self):
        simulator = OdeSimulator(_decay(), method="native-bdf",
                                 rtol=float("nan"))
        with pytest.raises(SimulationError,
                           match=r"at t=0\.0: the step size underflowed"):
            simulator.simulate(1.0)

    def test_overflow_is_non_finite_naming_t(self):
        network = Network("overflow")
        network.add({"A": 2}, {"A": 3}, 1.0)
        network.set_initial("A", 1e200)
        with pytest.raises(SimulationError,
                           match=r"at t=0\.0: the state went non-finite"):
            OdeSimulator(network, method="native-bdf").simulate(1.0)


def _effort(target) -> tuple[tuple, tuple]:
    metrics = MetricsRegistry()
    simulator = OdeSimulator(target.network, target.scheme,
                             method="native-bdf", metrics=metrics)
    simulator.simulate(target.t_final, n_samples=33)
    counters = metrics.to_dict()["counters"]
    kinetics = simulator.kinetics
    reference = solve_ivp(kinetics.rhs, (0.0, target.t_final),
                          target.network.initial_vector(), method="BDF",
                          jac=kinetics.jacobian, rtol=simulator.rtol,
                          atol=simulator.atol)
    return ((counters["ode.nfev"], counters["ode.njev"],
             counters["ode.nlu"], counters["ode.steps_accepted"]),
            (reference.nfev, reference.njev, reference.nlu,
             reference.t.size - 1))


@pytest.mark.parametrize("name", ["random:000", "circuit:clock",
                                  "circuit:counter2"])
def test_effort_matches_scipys_bdf(name):
    target = {t.name: t for t in generate_targets(BUDGETS["small"], 0)}[name]
    mine, scipys = _effort(target)
    for count, expected in zip(mine, scipys):
        assert abs(count - expected) <= 0.1 * expected, (mine, scipys)


def test_traced_span_carries_the_effort():
    tracer, metrics = Tracer(MemorySink()), MetricsRegistry()
    network, x0 = _machine_start()
    OdeSimulator(network, method="native-bdf", tracer=tracer,
                 metrics=metrics).simulate(2.0, initial=x0)
    spans = [r for r in tracer.sink.records if isinstance(r, SpanRecord)]
    assert [span.name for span in spans] == ["solve:native-bdf"]
    counters = metrics.to_dict()["counters"]
    for key, counter in (("nfev", "ode.nfev"), ("njev", "ode.njev"),
                         ("nlu", "ode.nlu"),
                         ("accepted", "ode.steps_accepted"),
                         ("rejected", "ode.steps_rejected")):
        assert spans[0].args[key] == counters[counter]
    assert counters["ode.steps_accepted"] > 0 and \
        "ode.stiff_activations" not in counters


def _outputs(run) -> bytes:
    spans = [(span.index, span.t0, span.t1) for span in run.cycles]
    return run.outputs["y"].tobytes() + repr(
        (run.state_history, spans)).encode()


def test_forks_on_threads_equal_their_serial_runs():
    streams = [{"x": [8.0, 2.0, 6.0]}, {"x": [4.0, 0.0, 10.0]}] * 2
    serial = [_outputs(SynchronousMachine(moving_average(2)).run(stream))
              for stream in streams[:2]] * 2
    machines = [SynchronousMachine(moving_average(2)) for _ in streams]
    assert len({id(machine.template) for machine in machines}) == 1
    barrier = threading.Barrier(len(machines), timeout=60)
    results: list = [None] * len(machines)

    def work(i: int) -> None:
        barrier.wait()
        results[i] = _outputs(machines[i].run(streams[i]))

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

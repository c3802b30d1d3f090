"""The cycle driver shared by the ODE and SSA machines.

``SynchronousMachine`` and ``StochasticMachine`` run one driver: stream
checks, injection, readout, boundary faults, the stepper and cycle
telemetry are written once, and each engine supplies only how a cycle
advances.  These tests pin what the sharing must keep and what it gives
the SSA machine:

* seeded SSA realisations stay bitwise identical (the digests below; the
  SSA loop draws from numpy's own bit generator, so they do not depend
  on the host);
* the stepper equals ``run`` on both engines, also with every observer
  on (trace, metrics, waveform, diagnostics, register history);
* telemetry does not change what a run computes, not a bit of it
  unless an ODE machine without a kernel runs LSODA;
* the SSA machine emits cycle spans, ``machine.*`` metrics, boundary
  events, monitor output and ``record=`` rows;
* the SSA machine's straggler flushes, cycle deadline, ``ssa.batch``
  spans and ``record=`` rows stay bitwise identical on the compiled poll
  loop and on its Python twin;
* ODE machine runs on LSODA, a recorded trajectory, traced solver
  effort and plain and evented ``OdeSimulator.simulate`` calls (one
  LSODA and one ``BDF`` solve per ``events.py`` factory) stay bitwise
  identical on the compiled kinetics, the NumPy twins and the
  ``odeint`` twin of the event walk (the ODE digests below);
* the machines' default integrator, the compiled BDF, keeps its own
  pins, and without a kernel every machine equals its LSODA run;
* a reused ODE machine's runs and steppers equal a fresh machine's;
* non-finite input samples and a ``max_cycle_time`` that is not finite
  and positive are rejected on both engines.
"""

from __future__ import annotations

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from repro.apps.filters import iir_first_order, moving_average
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import MachineOptions, SynchronousMachine
from repro.core.stochastic_machine import StochasticMachine
from repro.crn import native
from repro.crn.simulation import ode
from repro.crn.simulation.events import (species_above, species_below,
                                         total_above, total_below)
from repro.crn.simulation.ode import OdeSimulator
from repro.errors import SimulationError, SynthesisError
from repro.faults.models import ClockGlitch, FaultPlan
from repro.obs import EventRecord, MemorySink, MetricsRegistry, SpanRecord
from repro.obs import Tracer
from repro.waves.assertions import build_engine
from repro.waves.probe import WaveformProbe


def ma2() -> SignalFlowGraph:
    """The E14 two-tap moving average."""
    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x)
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d)))
    return sfg


def digest(runs) -> str:
    """First 16 hex digits of a sha256 over ``(run, flush_events)``
    pairs: outputs (float64 bytes, by name), register history, cycle
    spans and, for SSA runs, the straggler-flush count."""
    h = hashlib.sha256()
    for run, flush_events in runs:
        for name in sorted(run.outputs):
            h.update(np.asarray(run.outputs[name],
                                dtype=np.float64).tobytes())
        for row in run.state_history:
            h.update(repr(sorted(row.items())).encode())
        for span in run.cycles:
            h.update(repr((span.index, span.t0, span.t1)).encode())
        if flush_events is not None:
            h.update(repr(flush_events).encode())
    return h.hexdigest()[:16]


#: The first 60 ops of the ``ssa-machine`` benchmark pool: op ``k``
#: streams two even counts drawn from ``default_rng((14, k))`` through a
#: machine seeded with ``k``.  Ops 0, 5, 8, 15 and 45 are screened out of
#: that pool.
POOL = [k for k in range(65) if k not in (0, 5, 8, 15, 45)]


def pool_op(k: int) -> list[int]:
    rng = np.random.default_rng((14, k))
    return [int(v) for v in 2 * rng.integers(0, 41, 2)]


def _ssa_run(machine: StochasticMachine, stream):
    return machine.run({"x": stream}), machine.flush_events


class TestSsaPins:
    @pytest.mark.parametrize("clocking,expected", [
        ("fixed", "4f2e89638f10670d"),
        ("adaptive", "caf3320805169dba"),
    ])
    def test_pool_realisations(self, clocking, expected):
        options = MachineOptions(clocking=clocking)
        runs = [_ssa_run(StochasticMachine(ma2(), seed=k, options=options),
                         pool_op(k)) for k in POOL]
        assert len(runs) == 60
        assert digest(runs) == expected

    def test_clock_glitch_realisations(self):
        runs = []
        for seed in range(10):
            plan = FaultPlan([ClockGlitch(cycle=1, fraction=0.05)], seed=3)
            machine = StochasticMachine(moving_average(2), seed=seed,
                                        faults=plan)
            runs.append(_ssa_run(machine, [8, 4, 6]))
        assert digest(runs) == "8be176fdf47facd4"


@pytest.fixture(params=["kernel", "twin"])
def ssa_path(request, monkeypatch):
    """Run the test on the compiled poll loop and, with the kernel
    reported missing, on its Python twin."""
    if request.param == "twin":
        monkeypatch.setattr(native, "_kernel", None)
    return request.param


#: Pool ops the benchmark screens out because they take the driver's
#: recovery paths: 0, 5, 8, 15 and 45 flush stragglers, and 124, 177 and
#: 344 also raise at the cycle deadline (344 only under fixed clocking).
RECOVERY_OPS = (0, 5, 8, 15, 45, 124, 177, 344)


class TestSsaRecoveryPins:
    """Straggler flushes, the cycle deadline and SSA telemetry.  The
    digests were taken when every poll chunk was its own ``simulate``
    call; they hold on the compiled poll loop and on its twin."""

    @pytest.mark.parametrize("clocking,expected", [
        ("fixed", "4058b2fa31a1539a"),
        ("adaptive", "33fe5d270711067c"),
    ])
    def test_flush_and_deadline_ops(self, ssa_path, clocking, expected):
        h = hashlib.sha256()
        errors = []
        for k in RECOVERY_OPS:
            machine = StochasticMachine(
                ma2(), seed=k, options=MachineOptions(clocking=clocking))
            try:
                run = machine.run({"x": pool_op(k)})
                outcome = (run.outputs["y"].tobytes().hex(),
                           _spans(run.cycles))
            except SimulationError as exc:
                outcome = str(exc)
                errors.append(outcome)
            h.update(repr((k, outcome, machine.flush_events)).encode())
        assert len(errors) == (3 if clocking == "fixed" else 2)
        assert all(error.startswith("no stochastic cycle boundary within "
                                    "200 time units after t=")
                   for error in errors)
        assert h.hexdigest()[:16] == expected

    def test_traced_chunks(self, ssa_path):
        tracer = Tracer(MemorySink())
        metrics = MetricsRegistry()
        machine = StochasticMachine(moving_average(2), seed=0,
                                    tracer=tracer, metrics=metrics)
        machine.run({"x": [8, 4, 6]})
        spans = [(r.t0, r.t1, r.args["events"]) for r in tracer.sink.records
                 if isinstance(r, SpanRecord) and r.name == "ssa.batch"]
        counters = {name: value for name, value
                    in metrics.to_dict()["counters"].items()
                    if name.startswith("ssa.") or name == "machine.cycles"}
        assert len(spans) == counters["ssa.batches"] == 70
        assert counters["machine.cycles"] == 4
        pinned = repr((spans, sorted(counters.items()))).encode()
        assert hashlib.sha256(pinned).hexdigest()[:16] == "204bdb3368a03876"

    def test_recorded_trajectory(self, ssa_path):
        machine = StochasticMachine(moving_average(2), seed=0)
        trajectory = machine.run({"x": [8, 4, 6]}, record=True).trajectory
        assert trajectory.states.shape == (1012, 16)
        pinned = trajectory.times.tobytes() + trajectory.states.tobytes()
        assert hashlib.sha256(pinned).hexdigest()[:16] == "2c1947d3c5eac4b5"


@pytest.fixture(params=["kernel", "numpy", "odeint"])
def ode_path(request, monkeypatch):
    """Run the test on the compiled kinetics and the resumable LSODA
    walk, with the kernel reported missing (the NumPy kinetics twins),
    and with events located by the walk's ``odeint`` twin."""
    if request.param == "numpy":
        monkeypatch.setattr(native, "_kernel", None)
    elif request.param == "odeint":
        monkeypatch.setattr(ode, "_lsoda_entry", None)
    return request.param


#: The ``ode-machine`` benchmark's input stream.
ODE_STREAM = [8.0, 4.0, 6.0, 2.0]
ODE_DESIGNS = {"ma2": lambda: moving_average(2), "iir": iir_first_order}


def trajectory_digest(trajectory) -> str:
    """First 16 hex digits of a sha256 over a trajectory's times, states
    and metadata."""
    h = hashlib.sha256(trajectory.times.tobytes())
    h.update(trajectory.states.tobytes())
    h.update(repr(sorted(trajectory.meta.items())).encode())
    return h.hexdigest()[:16]


#: ``(ode.nfev, ode.njev)`` of the traced run, by event search.
TRACED_EFFORT = {"walk": (10_514, 792), "odeint": (15_602, 1_202)}


def _machine_network():
    network = SynchronousMachine(moving_average(2)).network
    return network, network.initial_vector() + 8.0 * np.eye(
        network.n_species)[network.species_index("s_x_p")]


class TestOdePins:
    """ODE realisations pinned to constants, so that a change which
    moves both sides of a kernel-versus-twin or walk-versus-``odeint``
    comparison still fails.  The machines run on ``method="LSODA"``,
    the reference (:class:`TestNativeOdePins` pins the ``native-bdf``
    default).  Each pin holds on the compiled kinetics,
    on the NumPy twins and on the ``odeint`` twin of the walk, and with
    ``CC=false`` (CI's no-compiler step runs this file).  The solver's
    arithmetic is scipy's (1.17.1 when they were taken), so a scipy
    upgrade may move them: regenerate them then, on purpose."""

    @pytest.mark.parametrize("design,clocking,expected", [
        ("ma2", "fixed", "550556006901176a"),
        ("ma2", "adaptive", "7cd3e135d75090ad"),
        ("iir", "fixed", "6703883f900d12e1"),
        ("iir", "adaptive", "9964d2ea235d578f"),
    ])
    def test_machine_runs(self, ode_path, design, clocking, expected):
        machine = SynchronousMachine(ODE_DESIGNS[design](),
                                     options=MachineOptions(clocking=clocking),
                                     method="LSODA")
        run = machine.run({"x": ODE_STREAM})
        assert digest([(run, None)]) == expected

    def test_recorded_trajectory(self, ode_path):
        machine = SynchronousMachine(moving_average(2), method="LSODA")
        trajectory = machine.run({"x": ODE_STREAM[:2]},
                                 record=True).trajectory
        assert trajectory.states.shape == (134, 16)
        assert trajectory_digest(trajectory) == "614b9e6100ed05dc"

    def test_traced_solver_effort(self, ode_path):
        tracer, metrics = Tracer(MemorySink()), MetricsRegistry()
        machine = SynchronousMachine(moving_average(2), tracer=tracer,
                                     metrics=metrics, method="LSODA")
        run = machine.run({"x": ODE_STREAM})
        counters = metrics.to_dict()["counters"]
        # The twin integrates every chunk to its end before it scans, so
        # it evaluates more; every state it returns is the walk's.
        expected = TRACED_EFFORT["odeint" if ode_path == "odeint"
                                 else "walk"]
        assert (counters["ode.nfev"], counters["ode.njev"]) == expected
        assert digest([(run, None)]) == "0550bc33b45a6d3c"

    def test_plain_simulate(self, ode_path):
        network, x0 = _machine_network()
        trajectory = OdeSimulator(network).simulate(6.0, initial=x0,
                                                    n_samples=61)
        assert trajectory_digest(trajectory) == "dbf2871f8a8721ba"

    def test_evented_simulate(self, ode_path):
        network, x0 = _machine_network()
        event = species_below(network, "C_red", 10.0)
        trajectory = OdeSimulator(network).simulate(
            50.0, initial=x0, n_samples=101, events=[event])
        assert trajectory.meta == {"event": 0,
                                   "event_time": 0.3802533493502737}
        assert trajectory_digest(trajectory) == "b2ac9c4a28197afa"

    @pytest.mark.parametrize("name,method,expected", [
        ("species_below", "BDF", "9252044e86c3f009"),
        ("species_above", "LSODA", "47bd5139501890a2"),
        ("species_above", "BDF", "e39d2a1ef64d4a71"),
        ("total_below", "LSODA", "6ddf2a88e66859c2"),
        ("total_below", "BDF", "ed98d319486bbcbd"),
        ("total_above", "LSODA", "ecea835fe07a7bdf"),
        ("total_above", "BDF", "6af0bdbe42d41b8f"),
        ("non_terminal", "LSODA", "480e45eaba41b0e4"),
        ("non_terminal", "BDF", "0c145e96935ced91"),
    ])
    def test_factory_events(self, ode_path, name, method, expected):
        """Each ``events.py`` factory on the resumable walk (or, for a
        non-terminal event, ``solve_ivp``'s LSODA) and on ``BDF``;
        :meth:`test_evented_simulate` is ``species_below`` on LSODA."""
        network, x0 = _machine_network()
        event = FACTORY_EVENTS[name](network)
        trajectory = OdeSimulator(network, method=method).simulate(
            3.0 if name == "non_terminal" else 50.0, initial=x0,
            n_samples=101, events=[event])
        assert trajectory_digest(trajectory) == expected


#: One event per ``events.py`` factory on the ``ma2`` machine network
#: started with 8 on ``s_x_p``: the clock red drains, the clock blue
#: fills, the red signals drain and the blue signals fill, and a
#: non-terminal event that never stops the solve.
FACTORY_EVENTS = {
    "species_below": lambda network: species_below(network, "C_red", 10.0),
    "species_above": lambda network: species_above(network, "C_blue", 10.0),
    "total_below": lambda network: total_below(
        network, ["s_x_p", "s_d1_p"], 4.0),
    "total_above": lambda network: total_above(
        network, ["a_d1_p", "a_y_p"], 6.0),
    "non_terminal": lambda network: species_below(network, "C_red", 10.0,
                                                  terminal=False),
}


@pytest.fixture(params=["kernel", "no-kernel"])
def native_path(request, monkeypatch):
    """Run the test on the compiled BDF, and with the kernel reported
    missing, where ``native-bdf`` runs the LSODA path on the NumPy
    twins."""
    if request.param == "no-kernel":
        monkeypatch.setattr(native, "_kernel", None)
    elif native.load() is None:
        pytest.skip("compiled kernel unavailable")
    return request.param


class TestNativeOdePins:
    """The machine default, ``native-bdf``, pinned on the kernel.  Its
    arithmetic is the kernel's own (scipy's BDF in C), so only a kernel
    change moves these.  Without a kernel every machine must equal its
    ``method="LSODA"`` run bitwise: :class:`TestOdePins`' digests."""

    @pytest.mark.parametrize("design,clocking,expected,lsoda", [
        ("ma2", "fixed", "e8bfe3d319b696cf", "550556006901176a"),
        ("ma2", "adaptive", "a50b54f351bce23f", "7cd3e135d75090ad"),
        ("iir", "fixed", "b0e019a587d25c92", "6703883f900d12e1"),
        ("iir", "adaptive", "23fc5a953230cff2", "9964d2ea235d578f"),
    ])
    def test_machine_runs(self, native_path, design, clocking, expected,
                          lsoda):
        machine = SynchronousMachine(ODE_DESIGNS[design](),
                                     options=MachineOptions(clocking=clocking))
        run = machine.run({"x": ODE_STREAM})
        assert digest([(run, None)]) == \
            (expected if native_path == "kernel" else lsoda)

    def test_recorded_trajectory(self, native_path):
        machine = SynchronousMachine(moving_average(2))
        trajectory = machine.run({"x": ODE_STREAM[:2]},
                                 record=True).trajectory
        assert trajectory.states.shape == (134, 16)
        assert trajectory_digest(trajectory) == (
            "03a0c1e2ee01dd1d" if native_path == "kernel"
            else "614b9e6100ed05dc")

    def test_traced_solver_effort(self, native_path):
        tracer, metrics = Tracer(MemorySink()), MetricsRegistry()
        machine = SynchronousMachine(moving_average(2), tracer=tracer,
                                     metrics=metrics)
        run = machine.run({"x": ODE_STREAM})
        counters = metrics.to_dict()["counters"]
        effort = (counters["ode.nfev"], counters["ode.njev"])
        if native_path == "no-kernel":
            assert effort == TRACED_EFFORT["walk"]
            assert digest([(run, None)]) == "0550bc33b45a6d3c"
            return
        assert effort == (12_165, 214)
        assert (counters["ode.nlu"], counters["ode.steps_accepted"],
                counters["ode.steps_rejected"]) == (969, 4_563, 109)
        # Telemetry samples each segment densely; the rows come from the
        # interpolant, so the traced run is the bare run bitwise.
        assert digest([(run, None)]) == "e8bfe3d319b696cf"


class TestReusedOdeMachine:
    """Every ``run`` and ``stepper`` of an ODE machine starts from a
    fresh machine's state: the LSODA walk's time-to-event hints and the
    sample-grid plan of ``record`` and telemetry belong to one run, so
    what ran on the machine before moves no bit."""

    def test_lsoda_runs_twice_alike(self):
        machine = SynchronousMachine(moving_average(2), method="LSODA")
        first = machine.run({"x": ODE_STREAM})
        second = machine.run({"x": ODE_STREAM})
        assert digest([(first, None)]) == "550556006901176a"
        assert digest([(second, None)]) == "550556006901176a"

    def test_fallback_run_equals_a_fresh_machines(self, monkeypatch):
        monkeypatch.setattr(native, "_kernel", None)
        machine = SynchronousMachine(iir_first_order())
        machine.run({"x": [20.0, 20.0, 20.0]})
        run = machine.run({"x": ODE_STREAM})
        assert digest([(run, None)]) == "6703883f900d12e1"

    def test_fallback_stepper_equals_a_fresh_machines(self, monkeypatch):
        monkeypatch.setattr(native, "_kernel", None)
        machine = SynchronousMachine(iir_first_order())
        machine.run({"x": [20.0, 20.0, 20.0]})
        stepper, stepped = _stepped(machine, ODE_STREAM)
        fresh, expected = _stepped(SynchronousMachine(iir_first_order()),
                                   ODE_STREAM)
        assert stepped.tobytes() == expected.tobytes()
        assert _spans(stepper.spans) == _spans(fresh.spans)

    def test_recorded_rows_equal_a_fresh_machines(self, native_path):
        def traced():
            return SynchronousMachine(moving_average(2),
                                      tracer=Tracer(MemorySink()))

        machine = traced()
        machine.run({"x": [2.0] * 6})
        reused = machine.run({"x": ODE_STREAM}, record=True).trajectory
        fresh = traced().run({"x": ODE_STREAM}, record=True).trajectory
        if native_path == "kernel":
            assert fresh.states.shape == (255, 16)
        assert reused.states.shape == fresh.states.shape
        assert trajectory_digest(reused) == trajectory_digest(fresh)


def _stepped(machine, stream):
    stepper = machine.stepper()
    outputs = [stepper.step({"x": value})["y"] for value in stream]
    outputs.append(stepper.flush()["y"])
    return stepper, np.array(outputs)


def _spans(spans):
    return [(span.index, span.t0, span.t1) for span in spans]


ENGINES = {
    "ode": lambda options, **kw: SynchronousMachine(
        moving_average(2), options=options, **kw),
    "ssa": lambda options, **kw: StochasticMachine(
        moving_average(2), seed=4, options=options, **kw),
}


@pytest.mark.parametrize("clocking", ["fixed", "adaptive"])
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestOneDriver:
    def test_stepper_equals_run(self, engine, clocking):
        options = MachineOptions(clocking=clocking)
        stream = [8, 4, 6]
        run = ENGINES[engine](options).run({"x": stream})
        stepper, stepped = _stepped(ENGINES[engine](options), stream)
        assert stepped.tobytes() == run.outputs["y"].tobytes()
        assert _spans(stepper.spans) == _spans(run.cycles)

    def test_telemetry_leaves_outputs_alone(self, engine, clocking):
        options = MachineOptions(clocking=clocking)
        stream = [8, 4, 6, 2, 12, 0]
        bare = ENGINES[engine](options).run({"x": stream})
        observed = ENGINES[engine](
            options, tracer=Tracer(MemorySink()),
            metrics=MetricsRegistry(),
            probe=WaveformProbe()).run({"x": stream}, record=True)
        if engine == "ssa" or native.load() is not None:
            # The compiled BDF's steps and event search do not depend
            # on the rows telemetry asks it to sample.
            assert observed.outputs["y"].tobytes() == \
                bare.outputs["y"].tobytes()
            assert observed.state_history == bare.state_history
            assert _spans(observed.cycles) == _spans(bare.cycles)
        else:
            # Without a kernel the ODE machine runs LSODA, whose event
            # search brackets on the denser telemetry samples, so
            # boundary times move in the last digits; the digital
            # outputs do not.
            np.testing.assert_allclose(observed.outputs["y"],
                                       bare.outputs["y"], atol=1e-6)
            np.testing.assert_array_equal(
                np.round(observed.outputs["y"] / 0.5),
                np.round(bare.outputs["y"] / 0.5))

    def test_stepper_equals_run_with_every_observer(self, engine,
                                                    clocking):
        options = MachineOptions(clocking=clocking)
        stream = [8, 4, 6, 2]
        machine, observers = _observed(ENGINES[engine], options)
        run = machine.run({"x": stream}, record=True)
        stepped_machine, stepped_observers = _observed(ENGINES[engine],
                                                       options)
        stepper, stepped = _stepped(stepped_machine, stream)
        diagnostics = stepper.finish()
        assert stepped.tobytes() == run.outputs["y"].tobytes()
        assert _spans(stepper.spans) == _spans(run.cycles)
        assert _observations(*stepped_observers) == \
            _observations(*observers)
        assert [d.to_dict() for d in diagnostics] == \
            [d.to_dict() for d in run.diagnostics]
        assert stepper.history == run.state_history
        # The recorded rows end each cycle on its boundary state, which
        # fixed clocking leaves as it is.
        trajectory = run.trajectory
        assert trajectory.times[0] == 0.0
        assert trajectory.times[-1] == run.cycles[-1].t1
        registers = machine.template.registers
        for span, history in zip(run.cycles, stepper.history[1:]):
            [row] = trajectory.states[trajectory.times == span.t1]
            if clocking == "fixed":
                assert {name: terms.value(row) for name, terms
                        in registers.items()} == history


def _observed(build, options):
    """A machine with a tracer, metrics, the default monitor and a probe
    asserting an invariant and an obligation on its register."""
    tracer, metrics = Tracer(MemorySink()), MetricsRegistry()
    probe = WaveformProbe(build_engine([
        {"type": "invariant", "expr": "reg_d1 < 5"},
        {"type": "eventually_within", "when": "reg_d1 > 5",
         "holds": "reg_d1 < 3", "cycles": 1}]))
    machine = build(options, tracer=tracer, metrics=metrics, probe=probe)
    return machine, (tracer, metrics, probe)


def _observations(tracer, metrics, probe):
    """What a run's observers saw, host timings dropped: trace records
    without ``args["wall"]``, metrics without the ``*wall_seconds``
    histograms, and the waveform's changes."""
    records = []
    for record in tracer.sink.records:
        payload = record.to_dict()
        if "args" in payload:
            payload["args"] = {key: value for key, value
                               in payload["args"].items() if key != "wall"}
        records.append(payload)
    snapshot = metrics.to_dict()
    snapshot["histograms"] = {
        name: summary for name, summary in snapshot["histograms"].items()
        if not name.endswith("wall_seconds")}
    return records, snapshot, probe.waveform.changes()


class TestSsaTelemetry:
    @pytest.fixture(scope="class")
    def traced(self):
        tracer = Tracer(MemorySink())
        metrics = MetricsRegistry()
        machine = StochasticMachine(moving_average(2), seed=0,
                                    tracer=tracer, metrics=metrics)
        run = machine.run({"x": [8, 4, 6]})
        return run, tracer.sink.records, metrics.to_dict()

    def test_cycle_spans_are_the_runs(self, traced):
        run, records, _ = traced
        cycles = [r for r in records
                  if isinstance(r, SpanRecord) and r.name == "cycle"]
        assert [(r.args["cycle"], r.t0, r.t1) for r in cycles] == \
            _spans(run.cycles)

    def test_cycle_counter(self, traced):
        run, _, snapshot = traced
        assert snapshot["counters"]["machine.cycles"] == run.n_cycles

    def test_boundary_events_and_monitor(self, traced):
        run, records, snapshot = traced
        boundaries = [r for r in records if isinstance(r, EventRecord)
                      and r.name == "boundary"]
        assert [r.t for r in boundaries] == \
            [span.t1 for span in run.cycles]
        assert "monitor.boundary_residual" in snapshot["histograms"]
        assert "machine.cycle_sim_time" in snapshot["histograms"]

    def test_all_zero_stream_is_judged_from_one_molecule(self):
        tracer = Tracer(MemorySink())
        machine = StochasticMachine(moving_average(2), seed=0,
                                    tracer=tracer)
        run = machine.run({"x": [0, 0, 0]})
        assert run.n_cycles == 4
        assert np.all(run.outputs["y"] == 0.0)

    def test_record_keeps_each_cycles_rows(self):
        machine = StochasticMachine(moving_average(2), seed=0)
        run = machine.run({"x": [8, 4, 6]}, record=True)
        trajectory = run.trajectory
        assert np.all(np.diff(trajectory.times) > 0)
        assert trajectory.times[0] == 0.0
        terms = machine.template.registers["d1"]
        for span, registers in zip(run.cycles, run.state_history[1:]):
            row = trajectory.states[trajectory.times == span.t1]
            assert row.shape[0] == 1
            assert terms.value(row[0]) == registers["d1"]
        assert trajectory.times[-1] == run.cycles[-1].t1

    def test_probe_sees_phases_within_cycles(self):
        probe = WaveformProbe()
        machine = StochasticMachine(moving_average(2), seed=0, probe=probe)
        run = machine.run({"x": [8, 4, 6]})
        assert [record[0] for record in probe.cycle_records] == run.cycles
        for span, phases, _, _ in probe.cycle_records:
            assert phases and phases[0][1] == span.t0
            assert phases[-1][2] == span.t1


def test_consuming_gated_ssa_run_completes():
    """``gating="consuming"`` parks clock red in the ``I_C_red`` dimer;
    the SSA boundary test counts it."""
    from repro.core.synthesis import synthesize

    circuit = synthesize(moving_average(2), gating="consuming")
    assert f"I_{circuit.clock.red.name}" in circuit.network
    run = StochasticMachine(circuit, seed=0).run({"x": [8, 4, 6]})
    assert run.n_cycles == 4
    assert run.max_error() <= 4.0


NOT_FINITE = r"x=-?(nan|inf) is not finite"


@pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                   float("-inf")])
@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestNonFiniteSamples:
    def test_run_rejects_before_any_cycle(self, engine, value):
        metrics = MetricsRegistry()
        machine = ENGINES[engine](MachineOptions(), metrics=metrics)
        with pytest.raises(SynthesisError, match=NOT_FINITE):
            machine.run({"x": [4, value]})
        assert "machine.cycles" not in metrics.to_dict()["counters"]

    def test_step_rejects(self, engine, value):
        stepper = ENGINES[engine](MachineOptions()).stepper()
        with pytest.raises(SynthesisError, match=NOT_FINITE):
            stepper.step({"x": value})
        assert stepper.cycles == 0


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestMaxCycleTime:
    @pytest.mark.parametrize("value", [0, 0.0, -5.0, float("nan"),
                                       float("inf"), float("-inf")])
    def test_rejects_at_construction(self, engine, value):
        with pytest.raises(SimulationError,
                           match=rf"max_cycle_time .*got {value!r}"):
            ENGINES[engine](MachineOptions(), max_cycle_time=value)

    def test_none_means_the_default(self, engine):
        default = {"ode": 500.0, "ssa": 200.0}[engine]
        machine = ENGINES[engine](MachineOptions(), max_cycle_time=None)
        assert machine.max_cycle_time == default / machine.scheme.slow

    def test_keeps_a_valid_value(self, engine):
        machine = ENGINES[engine](MachineOptions(), max_cycle_time=150)
        assert machine.max_cycle_time == 150.0


def test_ssa_step_takes_integer_counts():
    stepper = StochasticMachine(moving_average(2), seed=0).stepper()
    with pytest.raises(SynthesisError, match="integer"):
        stepper.step({"x": 1.5})

"""Tests for the incremental (closed-loop) machine driver."""

import pytest

from repro.apps.filters import moving_average
from repro.core.machine import SynchronousMachine
from repro.core.stochastic_machine import StochasticMachine
from repro.errors import SimulationError, SynthesisError
from repro.obs import MetricsRegistry
from repro.waves.assertions import build_engine
from repro.waves.probe import WaveformProbe


class TestStepper:
    @pytest.fixture(scope="class")
    def machine(self):
        from fractions import Fraction

        from repro.core.dfg import SignalFlowGraph

        sfg = SignalFlowGraph("ma2")
        x = sfg.input("x")
        d = sfg.delay("d1", source=x)
        sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                                sfg.gain(Fraction(1, 2), d)))
        return SynchronousMachine(sfg)

    def test_stepwise_matches_batch(self, machine):
        samples = [10.0, 20.0, 40.0]
        batch = machine.run({"x": samples})
        stepper = machine.stepper()
        stepped = [stepper.step({"x": v})["y"] for v in samples]
        for a, b in zip(stepped, batch.outputs["y"]):
            assert a == pytest.approx(b, abs=0.1)

    def test_flush_drains_pipeline(self, machine):
        stepper = machine.stepper()
        stepper.step({"x": 10.0})
        tail = stepper.flush()["y"]
        assert tail == pytest.approx(5.0, abs=0.2)
        assert stepper.registers()["d1"] == pytest.approx(0.0, abs=0.1)

    def test_cycles_counted(self, machine):
        stepper = machine.stepper()
        stepper.step({"x": 1.0})
        stepper.flush()
        assert stepper.cycles == 2
        assert stepper.time > 0

    def test_wrong_inputs_rejected(self, machine):
        stepper = machine.stepper()
        with pytest.raises(SynthesisError):
            stepper.step({"z": 1.0})

    def test_feedback_through_environment(self):
        """A proportional controller regulating a Python plant."""
        from fractions import Fraction

        from repro.core.dfg import SignalFlowGraph

        sfg = SignalFlowGraph("p_ctrl")
        e = sfg.input("e")
        sfg.output("u", sfg.gain(Fraction(1, 2), e))
        machine = SynchronousMachine(sfg, signed=True)
        stepper = machine.stepper()
        level, setpoint = 0.0, 10.0
        for _ in range(10):
            u = stepper.step({"e": setpoint - level})["u"]
            level += u - 0.1 * level
        # P control settles near setpoint * Kp / (Kp + leak).
        expected = setpoint * 0.5 / 0.6
        assert level == pytest.approx(expected, rel=0.1)

    def test_spans_recorded_per_cycle(self, machine):
        """The stepper shares the machine's cycle bookkeeping: one
        contiguous CycleSpan per step, ending at the stepper's clock."""
        stepper = machine.stepper()
        for value in (10.0, 20.0, 40.0):
            stepper.step({"x": value})
        assert len(stepper.spans) == stepper.cycles == 3
        assert stepper.spans[0].t0 == 0.0
        for before, after in zip(stepper.spans, stepper.spans[1:]):
            assert after.t0 == pytest.approx(before.t1)
            assert after.duration > 0
        assert stepper.spans[-1].t1 == pytest.approx(stepper.time)

    def test_feedback_with_telemetry(self):
        """A closed-loop run (>= 3 cycles, output feeding the next
        input) under full telemetry: spans, metrics and a clean bill
        of health from the protocol monitor."""
        from fractions import Fraction

        from repro.core.dfg import SignalFlowGraph
        from repro.obs import MemorySink, MetricsRegistry, Tracer

        sfg = SignalFlowGraph("p_ctrl")
        e = sfg.input("e")
        sfg.output("u", sfg.gain(Fraction(1, 2), e))
        tracer = Tracer(MemorySink())
        metrics = MetricsRegistry()
        machine = SynchronousMachine(sfg, signed=True, tracer=tracer,
                                     metrics=metrics)
        stepper = machine.stepper()
        level, setpoint = 0.0, 10.0
        for _ in range(5):
            u = stepper.step({"e": setpoint - level})["u"]
            level += u - 0.1 * level
        assert stepper.cycles == 5
        cycle_spans = [r for r in tracer.sink.records
                       if getattr(r, "name", "") == "cycle"]
        assert len(cycle_spans) == 5
        assert metrics.counter("machine.cycles").value == 5
        # The monitor streams alongside the feedback loop.
        assert stepper.finish() == []


ENGINES = {
    "ode": lambda **kw: SynchronousMachine(moving_average(2), **kw),
    "ssa": lambda **kw: StochasticMachine(moving_average(2), seed=4, **kw),
}

#: An obligation the stream below arms at its first boundary and meets
#: at its third: pending for the first two cycles, met by the end.
PENDING = [{"type": "eventually_within", "when": "reg_d1 > 5",
            "holds": "reg_d1 < 1", "cycles": 2}]
PENDING_STREAM = [8, 8, 0, 0, 0]


def _dicts(diagnostics):
    return [diagnostic.to_dict() for diagnostic in diagnostics]


@pytest.mark.parametrize("engine", sorted(ENGINES))
class TestRunEnds:
    """A stepped run ends at :meth:`MachineStepper.finish`, as ``run``
    does; ``diagnostics`` reports without ending anything."""

    @staticmethod
    def pending(engine):
        return ENGINES[engine](probe=WaveformProbe(build_engine(PENDING)))

    def test_diagnostics_mid_run_close_nothing(self, engine):
        expected = self.pending(engine).run({"x": PENDING_STREAM})
        stepper = self.pending(engine).stepper()
        for value in PENDING_STREAM[:2]:
            stepper.step({"x": value})
        assert stepper.diagnostics() == []
        for value in PENDING_STREAM[2:]:
            stepper.step({"x": value})
        stepper.flush()
        assert _dicts(stepper.finish()) == _dicts(expected.diagnostics)

    def test_finish_ends_the_run(self, engine):
        stepper = self.pending(engine).stepper()
        stepper.step({"x": 8})
        found = _dicts(stepper.finish())
        assert [d["code"] for d in found] == ["REPRO-A904"]
        assert _dicts(stepper.finish()) == found
        assert _dicts(stepper.diagnostics()) == found
        for advance in (lambda: stepper.step({"x": 8}), stepper.flush):
            with pytest.raises(SimulationError, match="finished"):
                advance()
        assert stepper.cycles == 1

    def test_a_probe_records_one_run(self, engine):
        metrics = MetricsRegistry()
        machine = ENGINES[engine](probe=WaveformProbe(), metrics=metrics)
        machine.run({"x": [8, 4]})
        cycles = metrics.counter("machine.cycles").value
        for again in (lambda: machine.run({"x": [8, 4]}), machine.stepper):
            with pytest.raises(SimulationError, match="records one run"):
                again()
        assert metrics.counter("machine.cycles").value == cycles

    def test_a_probe_takes_one_stepper(self, engine):
        metrics = MetricsRegistry()
        machine = ENGINES[engine](probe=WaveformProbe(), metrics=metrics)
        stepper = machine.stepper()
        for value in (8, 4):
            with pytest.raises(SimulationError, match="records one run"):
                machine.stepper()
            stepper.step({"x": value})
        with pytest.raises(SimulationError, match="records one run"):
            machine.run({"x": [8, 4]})
        assert metrics.counter("machine.cycles").value == stepper.cycles == 2

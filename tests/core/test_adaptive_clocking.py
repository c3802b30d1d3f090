"""Adaptive clocking: event-driven cycle advance vs the fixed boundary.

The contract under test is the tentpole claim: under
``MachineOptions(clocking="adaptive")`` a machine ends each cycle at the
*settling event* instead of the fixed clock boundary, and the digital
outputs are bitwise identical to fixed-clock operation once quantized to
the design's value lattice -- for every built-in design and for both
oscillator chemistries.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.filters import iir_first_order, moving_average
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import MachineOptions, SynchronousMachine

#: All built-in outputs land on the half-integer lattice (gains are
#: halves); deviations between modes stay under the protocol quantization
#: (3*theta ~ 0.09), so rounding to the lattice recovers exact digits.
LATTICE = 0.5


def accumulator() -> SignalFlowGraph:
    """y[n] = x[n] + y[n-1]: the machine-level analogue of the counter.

    Built by hand because :func:`iir_first_order` (rightly) rejects
    ``|feedback| >= 1`` as BIBO-unstable; over a short finite stream the
    growth is the point.
    """
    sfg = SignalFlowGraph("accumulator")
    x = sfg.input("x")
    s = sfg.delay("s")
    y = sfg.add(x, s)
    sfg.output("y", y)
    sfg.connect(y, s)
    return sfg


def _quantized(values) -> np.ndarray:
    return np.round(np.asarray(values, dtype=float) / LATTICE)


CASES = [
    pytest.param(accumulator, {"x": [1.0, 1.0, 1.0, 1.0, 1.0]},
                 id="accumulator"),
    pytest.param(lambda: moving_average(2), {"x": [8.0, 4.0, 6.0, 2.0]},
                 id="ma2"),
    pytest.param(iir_first_order, {"x": [8.0, 8.0, 4.0, 4.0]},
                 id="iir1"),
]


class TestDigitalEquivalence:
    @pytest.mark.parametrize("builder,samples", CASES)
    @pytest.mark.parametrize("oscillator", ["molecular", "relaxation"])
    def test_adaptive_matches_reference_bitwise(self, builder, samples,
                                                oscillator):
        options = MachineOptions(clocking="adaptive",
                                 oscillator=oscillator)
        run = SynchronousMachine(builder(), options=options).run(samples)
        for name, measured in run.outputs.items():
            reference = _quantized(run.reference[name])
            assert np.array_equal(
                _quantized(measured)[:len(reference)], reference)

    @pytest.mark.parametrize("builder,samples", CASES)
    def test_adaptive_matches_fixed_bitwise(self, builder, samples):
        runs = {}
        for clocking in ("fixed", "adaptive"):
            machine = SynchronousMachine(
                builder(), options=MachineOptions(clocking=clocking))
            runs[clocking] = machine.run(samples)
        for name in runs["fixed"].outputs:
            fixed = _quantized(runs["fixed"].outputs[name])
            adaptive = _quantized(runs["adaptive"].outputs[name])
            n = len(runs["fixed"].reference[name])
            assert np.array_equal(adaptive[:n], fixed[:n])

    def test_relaxation_adaptive_recovers_fixed_decay(self):
        # Under the relaxation oscillator the fixed boundary leaks a
        # little signal mass per cycle; on a *growing* signal (the
        # accumulator) that compounds past the lattice half-step, while
        # the adaptive landing step keeps the error an order of
        # magnitude smaller.
        errors = {}
        for clocking in ("fixed", "adaptive"):
            options = MachineOptions(clocking=clocking,
                                     oscillator="relaxation")
            run = SynchronousMachine(accumulator(),
                                     options=options).run(
                {"x": [1.0, 1.0, 1.0, 1.0, 1.0]})
            errors[clocking] = run.max_error()
        assert errors["adaptive"] < errors["fixed"] / 2

    @pytest.mark.parametrize("clocking", ["fixed", "adaptive"])
    def test_analog_error_stays_under_quantization(self, clocking):
        machine = SynchronousMachine(
            moving_average(2), options=MachineOptions(clocking=clocking))
        run = machine.run({"x": [8.0, 4.0, 6.0, 2.0]})
        assert run.max_error() < machine.blue_tolerance


class TestAdaptiveTiming:
    def test_adaptive_cycles_are_shorter(self):
        durations = {}
        for clocking in ("fixed", "adaptive"):
            machine = SynchronousMachine(
                moving_average(2),
                options=MachineOptions(clocking=clocking))
            run = machine.run({"x": [8.0, 4.0, 6.0, 2.0]})
            durations[clocking] = run.mean_cycle_time
        assert durations["adaptive"] < durations["fixed"]

    def test_adaptive_estimates_keyed_separately(self):
        stepper = SynchronousMachine(
            moving_average(2),
            options=MachineOptions(clocking="adaptive")).stepper()
        stepper.step({"x": 8.0})
        assert "settle" in stepper._estimates
        assert "boundary" not in stepper._estimates


class TestStepperParity:
    def test_stepper_matches_run_under_adaptive(self):
        samples = [8.0, 4.0, 6.0, 2.0]
        options = MachineOptions(clocking="adaptive")
        run = SynchronousMachine(moving_average(2),
                                 options=options).run({"x": samples})
        stepper = SynchronousMachine(moving_average(2),
                                     options=options).stepper()
        stepped = [stepper.step({"x": value})["y"] for value in samples]
        stepped.append(stepper.flush()["y"])
        assert np.allclose(stepped, run.outputs["y"][:len(stepped)],
                           atol=1e-6)


class TestStochasticAdaptive:
    @pytest.mark.parametrize("clocking", ["fixed", "adaptive"])
    def test_digital_outputs_exact(self, clocking):
        from repro.core.stochastic_machine import StochasticMachine

        machine = StochasticMachine(
            moving_average(2), seed=0,
            options=MachineOptions(clocking=clocking))
        run = machine.run({"x": [8.0, 4.0, 6.0, 2.0, 6.0, 4.0]})
        assert run.max_error() == 0.0


class TestGlitchMargin:
    """Adaptive clocking *widens* the clock-glitch margin.

    A fixed boundary needs the glitched clock to re-accumulate all the
    way to ``boundary_fraction`` before the watchdog horizon; the
    settling event only needs ``settle_fraction`` of nominal red mass,
    so the same glitch that stalls a fixed-clock run completes
    adaptively.  (Measured: the ma machine survives fraction 0.05 but
    fails 0.10+ under fixed clocking, yet survives through 0.40
    adaptively.)
    """

    @staticmethod
    def _score(clocking: str, fraction: float):
        from repro.faults.circuits import _make_ma
        from repro.faults.models import ClockGlitch, FaultPlan

        circuit = _make_ma(options=MachineOptions(clocking=clocking))
        plan = FaultPlan((ClockGlitch(cycle=2, fraction=fraction),))
        return circuit.evaluate(circuit.nominal_scheme(), plan=plan)

    def test_fixed_survives_mild_glitch(self):
        assert self._score("fixed", 0.05).ok

    def test_fixed_fails_moderate_glitch(self):
        assert not self._score("fixed", 0.15).ok

    def test_adaptive_survives_moderate_glitch(self):
        score = self._score("adaptive", 0.15)
        assert score.ok, score.detail

    def test_adaptive_survives_deep_glitch(self):
        score = self._score("adaptive", 0.30)
        assert score.ok, score.detail

"""End-to-end tests for the synchronous machine (chemistry vs reference).

These are the headline correctness tests: synthesized reaction networks
driven cycle by cycle must reproduce the exact discrete-time semantics.
They integrate stiff ODEs, so streams are kept short.
"""

import numpy as np
import pytest

from repro.core.machine import SynchronousMachine
from repro.errors import SynthesisError

#: Absolute output tolerance (units of signal quantity); the protocol's
#: quantisation floor is ~0.03 per species per cycle.
TOLERANCE = 0.25


@pytest.fixture(scope="module")
def ma2_machine():
    from fractions import Fraction

    from repro.core.dfg import SignalFlowGraph

    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x)
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d)))
    return SynchronousMachine(sfg)


class TestMovingAverage:
    def test_tracks_reference(self, ma2_machine):
        run = ma2_machine.run({"x": [10.0, 20.0, 40.0, 0.0, 30.0]})
        assert run.max_error() < TOLERANCE

    def test_output_length_covers_stream(self, ma2_machine):
        run = ma2_machine.run({"x": [10.0, 20.0]})
        assert len(run.outputs["y"]) >= 2

    def test_boundaries_monotonic(self, ma2_machine):
        run = ma2_machine.run({"x": [10.0, 20.0]})
        assert np.all(np.diff(run.boundary_times) > 0)

    def test_state_history_tracks_delay(self, ma2_machine):
        run = ma2_machine.run({"x": [10.0, 20.0]})
        # After cycle 0 the delay register holds x[0].
        assert run.state_history[1]["d1"] == pytest.approx(10.0, abs=0.2)
        assert run.state_history[2]["d1"] == pytest.approx(20.0, abs=0.3)

    def test_zero_samples_pass_through(self, ma2_machine):
        run = ma2_machine.run({"x": [0.0, 12.0, 0.0]})
        assert run.max_error() < TOLERANCE


class TestFeedback:
    def test_iir_lowpass(self, iir1_sfg):
        machine = SynchronousMachine(iir1_sfg)
        run = machine.run({"x": [16.0, 0.0, 0.0, 8.0]})
        assert run.reference["y"].tolist() == [8.0, 4.0, 2.0, 5.0]
        assert run.max_error() < TOLERANCE


class TestSigned:
    def test_differentiator(self, diff_sfg):
        machine = SynchronousMachine(diff_sfg)
        run = machine.run({"x": [5.0, 20.0, 10.0]})
        assert run.reference["y"].tolist() == [5.0, 15.0, -10.0]
        assert run.max_error() < TOLERANCE

    def test_negative_inputs(self, diff_sfg):
        machine = SynchronousMachine(diff_sfg)
        run = machine.run({"x": [-5.0, 5.0]})
        assert run.reference["y"].tolist() == [-5.0, 10.0]
        assert run.max_error() < TOLERANCE


class TestDriverApi:
    def test_wrong_input_names_rejected(self, ma2_machine):
        with pytest.raises(SynthesisError):
            ma2_machine.run({"z": [1.0]})

    def test_unequal_lengths_rejected(self):
        from repro.core.dfg import SignalFlowGraph

        sfg = SignalFlowGraph("two_in")
        a = sfg.input("a")
        b = sfg.input("b")
        sfg.output("y", sfg.add(a, b))
        machine = SynchronousMachine(sfg)
        with pytest.raises(SynthesisError):
            machine.run({"a": [1.0], "b": [1.0, 2.0]})

    def test_negative_input_unsigned_rejected(self, ma2_machine):
        with pytest.raises(SynthesisError):
            ma2_machine.run({"x": [-1.0]})

    def test_record_keeps_trajectory(self, ma2_machine):
        run = ma2_machine.run({"x": [10.0]}, record=True)
        assert run.trajectory is not None
        assert run.trajectory.t_final == pytest.approx(
            run.boundary_times[-1])

    def test_mean_cycle_time_positive(self, ma2_machine):
        run = ma2_machine.run({"x": [10.0, 10.0]})
        assert 0.5 < run.mean_cycle_time < 20.0


class TestRateRobustness:
    def test_output_invariant_across_separations(self, iir1_sfg):
        """The headline claim: values do not depend on the rates,
        provided fast >> slow."""
        from repro.crn.rates import RateScheme

        results = []
        for separation in (300.0, 1000.0, 3000.0):
            machine = SynchronousMachine(
                iir1_sfg, scheme=RateScheme.with_separation(separation))
            run = machine.run({"x": [16.0, 0.0, 8.0]})
            results.append(run.outputs["y"][:3])
        for a, b in zip(results, results[1:]):
            assert np.allclose(a, b, atol=0.3)


class TestErrorMetrics:
    @staticmethod
    def _run(measured, expected):
        from repro.core.machine import MachineRun

        return MachineRun(
            outputs={"y": np.asarray(measured, dtype=float)},
            reference={"y": np.asarray(expected, dtype=float)},
            cycles=[])

    def test_short_measurement_raises_with_both_lengths(self):
        # Regression: a truncated run used to be *silently* compared
        # over the common prefix, hiding the missing samples.
        from repro.errors import SimulationError

        run = self._run([1.0], [1.0, 2.0])
        with pytest.raises(SimulationError,
                           match="has 1 samples but the reference has 2"):
            run.max_error()
        with pytest.raises(SimulationError, match="'y'"):
            run.rms_error("y")

    def test_longer_measurement_compares_reference_prefix(self):
        # Extra flush cycles legitimately extend the measured stream;
        # only the reference-covered prefix is scored.
        run = self._run([1.0, 2.0, 99.0], [1.0, 2.0])
        assert run.max_error() == 0.0
        assert run.rms_error("y") == 0.0

    def test_error_magnitudes(self):
        run = self._run([1.0, 2.5], [1.0, 2.0])
        assert run.max_error() == pytest.approx(0.5)
        assert run.rms_error("y") == pytest.approx(0.5 / np.sqrt(2))


class TestMachineOptions:
    def test_defaults_are_fixed_molecular(self):
        from repro.core.machine import MachineOptions

        options = MachineOptions()
        assert options.clocking == "fixed"
        assert not options.adaptive
        assert options.oscillator == "molecular"

    def test_invalid_clocking_rejected(self):
        from repro.core.machine import MachineOptions
        from repro.errors import SimulationError

        with pytest.raises(SimulationError, match="clocking"):
            MachineOptions(clocking="turbo")

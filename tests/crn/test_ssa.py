"""Integration tests for the stochastic simulators."""

import warnings

import numpy as np
import pytest

from repro import simulate
from repro.crn.network import Network
from repro.crn.simulation.ssa import StochasticSimulator
from repro.crn.simulation.tau_leaping import TauLeapingSimulator
from repro.errors import SimulationError
from repro.obs import MemorySink, Tracer


def _decay(x0=200):
    network = Network()
    network.add("A", "B", 0.5)
    network.set_initial("A", x0)
    return network


class TestSSA:
    def test_counts_conserved(self):
        network = _decay()
        trajectory = StochasticSimulator(network, seed=0).simulate(5.0)
        totals = trajectory["A"] + trajectory["B"]
        assert np.all(totals == 200)

    def test_absorbing_state_halts(self):
        network = _decay(x0=3)
        trajectory = StochasticSimulator(network, seed=1).simulate(100.0)
        assert trajectory.final("A") == 0
        assert trajectory.final("B") == 3

    def test_mean_converges_to_ode(self):
        network = _decay(x0=300)
        ssa = StochasticSimulator(network, seed=2)
        mean = ssa.mean_trajectory(2.0, n_runs=30, n_samples=20)
        ode = simulate(network, 2.0).resampled(mean.times)
        error = np.abs(mean["A"] - ode["A"]) / 300.0
        assert error.max() < 0.05

    def test_final_counts_are_ints(self):
        counts = StochasticSimulator(_decay(5), seed=3).final_counts(50.0)
        assert counts["B"] == 5
        assert isinstance(counts["B"], int)

    def test_reproducible_with_seed(self):
        a = StochasticSimulator(_decay(), seed=42).simulate(1.0)
        b = StochasticSimulator(_decay(), seed=42).simulate(1.0)
        assert np.array_equal(a.states, b.states)

    def test_negative_initial_rejected(self):
        network = _decay()
        simulator = StochasticSimulator(network, seed=0)
        with pytest.raises(SimulationError):
            simulator.simulate(1.0, initial=np.array([-1.0, 0.0]))

    def test_bimolecular_needs_two(self):
        network = Network()
        network.add({"X": 2}, "Y", 10.0)
        network.set_initial("X", 1)
        trajectory = StochasticSimulator(network, seed=0).simulate(10.0)
        assert trajectory.final("X") == 1  # lone molecule cannot pair

    def test_zero_runs_rejected(self):
        with pytest.raises(SimulationError):
            StochasticSimulator(_decay(), seed=0).mean_trajectory(
                1.0, n_runs=0)

    def test_max_events_boundary_is_exact(self):
        """A decay chain with x0 molecules fires exactly x0 events, so
        max_events == x0 must succeed and max_events == x0 - 1 must
        raise (guards the classic off-by-one in the budget check)."""
        trajectory = StochasticSimulator(_decay(x0=50), seed=4).simulate(
            1000.0, max_events=50)
        assert trajectory.meta["events"] == 50
        assert trajectory.final("B") == 50
        with pytest.raises(SimulationError):
            StochasticSimulator(_decay(x0=50), seed=4).simulate(
                1000.0, max_events=49)

    def test_mean_converges_to_ode_parallel(self):
        """The ensemble mean summed over several chunks converges to the
        deterministic limit."""
        network = _decay(x0=300)
        mean = StochasticSimulator(network, seed=6).mean_trajectory(
            2.0, n_runs=32, n_samples=20)
        ode = simulate(network, 2.0).resampled(mean.times)
        error = np.abs(mean["A"] - ode["A"]) / 300.0
        assert error.max() < 0.05


class TestBatchSpans:
    """Every stochastic ``*.batch`` solver span covers ``[t_start,
    t_final]``, as the ODE ``solve:*`` span does."""

    @staticmethod
    def _span(run) -> tuple[str, float, float]:
        tracer = Tracer(MemorySink())
        run(tracer)
        (span,) = [r for r in tracer.sink.records
                   if r.name.endswith(".batch")]
        return span.name, span.t0, span.t1

    def test_ssa(self):
        assert self._span(lambda tracer: StochasticSimulator(
            _decay(), seed=0, tracer=tracer).simulate(
                4.0, t_start=2.5)) == ("ssa.batch", 2.5, 4.0)

    def test_tau_leaping(self):
        assert self._span(lambda tracer: TauLeapingSimulator(
            _decay(), seed=0, tracer=tracer).simulate(
                4.0, t_start=2.5)) == ("tau.batch", 2.5, 4.0)

    def test_batch_ensemble(self):
        assert self._span(lambda tracer: StochasticSimulator(
            _decay(), tracer=tracer).simulate_ensemble(
                4.0, np.random.SeedSequence(0).spawn(3),
                t_start=2.5)) == ("ssa.batch", 2.5, 4.0)

    @pytest.mark.parametrize("path", ["reference", "batch"])
    def test_mean_trajectory(self, path):
        """One span on either ensemble path: ``batch`` is the compiled
        ensemble call (the twin when no kernel is built), ``reference``
        the per-trial Python twin it is checked against."""
        def run(tracer):
            simulator = StochasticSimulator(_decay(), seed=0, tracer=tracer)
            if path == "reference":
                simulator.propensity_state._native = False  # twin runs
            simulator.mean_trajectory(4.0, n_runs=3, n_samples=5,
                                      t_start=2.5)
        assert self._span(run) == ("ssa.batch", 2.5, 4.0)


class TestTauLeaping:
    def test_tracks_ode_for_large_counts(self):
        network = _decay(x0=5000)
        tau = TauLeapingSimulator(network, seed=0)
        trajectory = tau.simulate(2.0, n_samples=20)
        ode = simulate(network, 2.0).resampled(trajectory.times)
        error = np.abs(trajectory["A"] - ode["A"]) / 5000.0
        assert error.max() < 0.03

    def test_counts_stay_non_negative(self):
        network = Network()
        network.add({"A": 1, "B": 1}, "C", 5.0)
        network.set_initial("A", 50)
        network.set_initial("B", 30)
        trajectory = TauLeapingSimulator(network, seed=1).simulate(5.0)
        assert trajectory.states.min() >= 0
        assert trajectory.final("C") == 30

    def test_invalid_epsilon(self):
        with pytest.raises(SimulationError):
            TauLeapingSimulator(_decay(), epsilon=1.5)

    def test_fallback_fills_grid_inside_burst(self):
        """Small-count runs fall back to exact SSA for every step; the
        sample points crossed inside one fallback burst must record the
        state that held at each sample time, not be back-filled with the
        end-of-burst counts (the decay would then appear instantaneous).
        """
        trajectory = TauLeapingSimulator(_decay(x0=40), seed=3).simulate(
            10.0, n_samples=51)
        a = trajectory["A"]
        assert a[0] == 40
        # Early samples still hold most of the population (the old
        # back-fill jumped straight to the burst's final state) ...
        assert a[1] > 20
        # ... and the column resolves the decay through intermediate
        # values, monotonically.
        assert len(np.unique(a)) > 10
        assert np.all(np.diff(a) <= 0)


class TestIncrementalPropensityHardening:
    """PR 8 hardening: clamped updates + periodic exact rebuilds."""

    def _two_channel_state(self):
        network = Network()
        network.add({"A": 2}, "B", 1.0)
        network.add("C", "D", 2.0)
        network.set_initial("A", 10)
        network.set_initial("C", 10)
        simulator = StochasticSimulator(network, seed=0)
        state = simulator.propensity_state
        state.reset(simulator._initial_counts(None))
        return network, simulator, state

    def test_update_clamped_at_zero(self):
        """A corrupted gather buffer yielding a negative product must
        be clamped: a negative propensity would poison the
        cumulative-sum selection draw."""
        network, simulator, state = self._two_channel_state()
        a_idx = network.species_names.index("A")
        n_s = len(network.species_names)
        # Pre-set the two gather slots of A so that after fire(0)'s
        # in-place update (raw -= 2, half-pair -= 1) the product of the
        # dependent recompute is negative.
        state._cb[a_idx] = 1.0              # raw slot -> -1.0 after fire
        state._cb[a_idx + n_s + 1] = 2.0    # half slot -> 1.0 after fire
        state.fire(0)
        assert state.a[0] == 0.0

    def test_clamp_normalises_negative_zero(self):
        """fresh = c * (-1.0) * 0.0 is -0.0; the clamp must store +0.0
        so downstream sign tests and Poisson draws see a clean zero."""
        network, simulator, state = self._two_channel_state()
        a_idx = network.species_names.index("A")
        n_s = len(network.species_names)
        state._cb[a_idx] = 1.0              # raw slot -> -1.0 after fire
        state._cb[a_idx + n_s + 1] = 1.0    # half slot -> 0.0 after fire
        state.fire(0)
        assert state.a[0] == 0.0
        assert not np.signbit(state.a[0])

    def test_drift_heals_at_rebuild_interval(self):
        """Injected drift in the propensity vector survives incremental
        updates of *other* channels but is healed exactly by the
        periodic full rebuild."""
        network, simulator, state = self._two_channel_state()
        state.rebuild_interval = 3
        exact = state.kinetics.propensities(state.counts.copy(),
                                            state.constants)
        # Corrupt the A-channel entry; firing C -> D (reaction 1) only
        # re-evaluates channels that depend on C/D, so the drift sticks.
        state.a[0] = 123.456
        state.fire(1)
        assert state.a[0] == 123.456
        state.fire(1)
        assert state.a[0] == 123.456
        # Third fire reaches the interval: full in-place exact rebuild.
        state.fire(1)
        fresh = state.kinetics.propensities(state.counts.copy(),
                                            state.constants)
        assert state.a[0] == exact[0]
        assert np.array_equal(state.a, fresh)

    def test_rebuild_is_in_place(self):
        """Simulators alias ``state.a`` across the event loop, so the
        rebuild must mutate, never rebind."""
        _, _, state = self._two_channel_state()
        alias = state.a
        state.fire(0)
        state.rebuild()
        assert state.a is alias

    def test_rebuild_interval_is_bitwise_neutral(self):
        """The rebuild recomputes the same bits the incremental updates
        maintain, so any interval yields the identical realisation."""
        network = Network()
        network.add({"A": 2}, "B", 1.0)
        network.add("B", {"A": 2}, 0.5)
        network.set_initial("A", 60)
        baseline = StochasticSimulator(network, seed=11).simulate(4.0)
        frequent = StochasticSimulator(network, seed=11)
        frequent.propensity_state.rebuild_interval = 3
        rebuilt = frequent.simulate(4.0)
        assert np.array_equal(baseline.states, rebuilt.states)
        assert baseline.meta == rebuilt.meta

    def test_rebuild_interval_validated(self):
        _, simulator, _ = self._two_channel_state()
        from repro.crn.simulation.ssa import IncrementalPropensities
        with pytest.raises(SimulationError, match="rebuild_interval"):
            IncrementalPropensities(simulator.kinetics,
                                    simulator.constants,
                                    rebuild_interval=0)


class TestInexactInitialCounts:
    """Initial amounts are float64: from 2**53 on, consecutive integer
    counts share one value, so a count there cannot be exact.  Every
    stochastic entry point refuses one -- and non-finite ones -- with
    one error naming the species and the value, and no numpy warning."""

    ENTRY_POINTS = {
        "simulate": lambda sim: sim.simulate(1.0),
        "ensemble": lambda sim: sim.simulate_ensemble(1.0, [0, 1]),
        "mean": lambda sim: sim.mean_trajectory(1.0, 2),
        "tau": lambda sim: TauLeapingSimulator(
            sim.network, seed=0).simulate(1.0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("text,value", [
        ("9007199254740993", "9007199254740992.0"),  # 2**53 + 1
        ("9007199254740992", "9007199254740992.0"),  # 2**53
        ("9223372036854775808", "9.223372036854776e+18"),  # 2**63
        ("1e19", "1e+19"),
    ])
    def test_parsed_counts_from_two_to_the_53(self, entry, text, value):
        from repro.crn.parser import parse_network

        network = parse_network(f"init A = {text}\nA -> B @ slow\n")
        simulator = StochasticSimulator(network, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError) as caught:
                self.ENTRY_POINTS[entry](simulator)
        message = str(caught.value)
        assert f"'A' is {value}" in message
        assert "2**53" in message

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_counts(self, value):
        simulator = StochasticSimulator(_decay(), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError,
                               match=f"'A' is {value!r}"):
                simulator.simulate(1.0, initial={"A": value})

    def test_the_largest_exact_count_runs(self):
        network = Network()
        network.add("A", "B", 1e-20)
        network.set_initial("A", 2.0 ** 53 - 1)
        final = StochasticSimulator(network, seed=0).final_counts(1.0)
        assert final["A"] + final["B"] == 2 ** 53 - 1

    def test_negative_counts_keep_their_error(self):
        simulator = StochasticSimulator(_decay(), seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SimulationError,
                               match="negative initial counts"):
                simulator.simulate(1.0, initial=np.array([-1e19, 0.0]))


class TestNonFiniteTimes:
    """A NaN or infinite end of the time span used to come back as a
    sample grid of NaN or inf; every stochastic entry point refuses it
    with one error naming the value."""

    ENTRY_POINTS = {
        "simulate": lambda sim, t0, t1: sim.simulate(t1, t_start=t0),
        "ensemble": lambda sim, t0, t1: sim.simulate_ensemble(
            t1, [0, 1], t_start=t0),
        "mean": lambda sim, t0, t1: sim.mean_trajectory(t1, 2, t_start=t0),
        "tau": lambda sim, t0, t1: TauLeapingSimulator(
            sim.network, seed=0).simulate(t1, t_start=t0),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_t_final(self, entry, value):
        simulator = StochasticSimulator(_decay(), seed=0)
        with pytest.raises(SimulationError,
                           match=f"t_final must be finite, got {value!r}"):
            self.ENTRY_POINTS[entry](simulator, 0.0, value)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("value", [np.nan, -np.inf])
    def test_t_start(self, entry, value):
        simulator = StochasticSimulator(_decay(), seed=0)
        with pytest.raises(SimulationError,
                           match=f"t_start must be finite, got {value!r}"):
            self.ENTRY_POINTS[entry](simulator, value, 1.0)

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_empty_span_keeps_its_error(self, entry):
        simulator = StochasticSimulator(_decay(), seed=0)
        with pytest.raises(SimulationError,
                           match="t_final must exceed t_start"):
            self.ENTRY_POINTS[entry](simulator, 1.0, 1.0)

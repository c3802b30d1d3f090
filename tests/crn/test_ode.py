"""Integration tests for the deterministic simulators."""

import re

import numpy as np
import pytest

import repro
from repro import simulate
from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.options import SimulationOptions
from repro.crn.simulation.events import species_above, species_below
from repro.crn.simulation.ode import METHODS, OdeSimulator
from repro.errors import NetworkError, SimulationError


def _decay_network(k=0.7, x0=10.0):
    network = Network("decay")
    network.add("A", "B", k)
    network.set_initial("A", x0)
    return network


class TestAnalyticSolutions:
    def test_first_order_decay(self):
        network = _decay_network(k=0.7, x0=10.0)
        trajectory = simulate(network, 5.0)
        expected = 10.0 * np.exp(-0.7 * trajectory.times)
        assert np.allclose(trajectory["A"], expected, atol=1e-5)
        assert np.allclose(trajectory["A"] + trajectory["B"], 10.0,
                           atol=1e-6)

    def test_bimolecular_annihilation(self):
        # A + A -> 0 with rate k: dA/dt = -2k A^2,
        # A(t) = A0 / (1 + 2 k A0 t).
        network = Network()
        network.add({"A": 2}, None, 0.25)
        network.set_initial("A", 8.0)
        trajectory = simulate(network, 4.0)
        expected = 8.0 / (1 + 2 * 0.25 * 8.0 * trajectory.times)
        assert np.allclose(trajectory["A"], expected, rtol=1e-4)

    def test_equilibrium_of_reversible_pair(self):
        network = Network()
        network.add("A", "B", 2.0)
        network.add("B", "A", 1.0)
        network.set_initial("A", 9.0)
        final = simulate(network, 50.0).final_state()
        assert final["B"] / final["A"] == pytest.approx(2.0, rel=1e-4)

    @pytest.mark.parametrize("method", METHODS)
    def test_all_methods_agree(self, method):
        network = _decay_network()
        simulator = OdeSimulator(network, method=method)
        trajectory = simulator.simulate(3.0)
        assert trajectory.final("A") == pytest.approx(
            10.0 * np.exp(-0.7 * 3.0), rel=1e-3)


class TestSimulatorApi:
    def test_initial_override_mapping(self):
        network = _decay_network()
        simulator = OdeSimulator(network)
        trajectory = simulator.simulate(1.0, initial={"A": 20.0})
        assert trajectory["A"][0] == pytest.approx(20.0)

    def test_initial_override_vector(self):
        network = _decay_network()
        simulator = OdeSimulator(network)
        x0 = np.array([5.0, 1.0])
        trajectory = simulator.simulate(1.0, initial=x0)
        assert trajectory["B"][0] == pytest.approx(1.0)

    def test_bad_initial_vector_shape(self):
        simulator = OdeSimulator(_decay_network())
        with pytest.raises(SimulationError):
            simulator.simulate(1.0, initial=np.ones(5))

    def test_bad_time_span(self):
        simulator = OdeSimulator(_decay_network())
        with pytest.raises(SimulationError):
            simulator.simulate(0.0)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_time_span(self, value):
        # scipy used to raise its own "values in t must be monotonically
        # increasing" error for these.
        simulator = OdeSimulator(_decay_network())
        with pytest.raises(SimulationError,
                           match=f"t_final must be finite, got {value!r}"):
            simulator.simulate(value)
        with pytest.raises(SimulationError,
                           match=f"t_start must be finite, got {value!r}"):
            simulator.simulate(1.0, t_start=value)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_initial_amounts(self, value):
        # A NaN amount used to run to an all-NaN trajectory.
        simulator = OdeSimulator(_decay_network())
        message = f"initial amount of 'B' is {value!r}"
        with pytest.raises(SimulationError, match=message):
            simulator.simulate(1.0, initial={"B": value})
        with pytest.raises(SimulationError, match=message):
            simulator.simulate(1.0, initial=np.array([1.0, value]))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_declared_initial_amount_is_refused(self, value):
        # The network refuses it where it is declared, naming the
        # species, so no solver ever sees it.
        network = _decay_network()
        with pytest.raises(NetworkError,
                           match=f"initial quantity of 'B' must be "
                                 f"finite, got {value!r}"):
            network.set_initial("B", value)
        assert OdeSimulator(network).simulate(1.0).final("B") > 0.0

    def test_initial_vector_is_not_aliased(self):
        x0 = np.array([5.0, 1.0])
        OdeSimulator(_decay_network()).simulate(1.0, initial=x0)
        assert x0.tolist() == [5.0, 1.0]

    def test_unknown_method(self):
        with pytest.raises(SimulationError):
            OdeSimulator(_decay_network(), method="Euler")

    def test_symbolic_rates_resolved_by_scheme(self):
        network = Network()
        network.add("A", "B", "slow")
        network.set_initial("A", 1.0)
        fast_scheme = RateScheme({"fast": 1000.0, "slow": 10.0})
        t1 = simulate(network, 0.1)
        t2 = simulate(network, 0.1, scheme=fast_scheme)
        assert t2.final("B") > t1.final("B")


class TestEvents:
    def test_terminal_event_stops_and_records(self):
        network = _decay_network(k=1.0, x0=10.0)
        simulator = OdeSimulator(network)
        event = species_below(network, "A", 5.0)
        trajectory = simulator.simulate(20.0, events=[event])
        assert trajectory.meta["event"] == 0
        assert trajectory.t_final == pytest.approx(np.log(2.0), rel=1e-3)
        assert trajectory.final("A") == pytest.approx(5.0, rel=1e-3)

    def test_rising_event(self):
        network = _decay_network(k=1.0, x0=10.0)
        simulator = OdeSimulator(network)
        event = species_above(network, "B", 9.0)
        trajectory = simulator.simulate(20.0, events=[event])
        assert trajectory.final("B") == pytest.approx(9.0, rel=1e-3)

    def test_no_event_runs_to_completion(self):
        network = _decay_network()
        simulator = OdeSimulator(network)
        event = species_below(network, "A", -1.0)  # never fires
        trajectory = simulator.simulate(2.0, events=[event])
        assert "event" not in trajectory.meta
        assert trajectory.t_final == pytest.approx(2.0)

    def test_event_time_not_duplicated(self):
        """The trajectory appends the event state only when the last
        sampled time is not already the event time (to relative float
        spacing); the time axis must stay strictly increasing."""
        network = _decay_network(k=1.0, x0=10.0)
        simulator = OdeSimulator(network)
        event = species_below(network, "A", 5.0)
        for n_samples in (7, 100, 4001):
            trajectory = simulator.simulate(20.0, n_samples=n_samples,
                                            events=[event])
            assert np.all(np.diff(trajectory.times) > 0)
            assert trajectory.t_final == trajectory.meta["event_time"]

    def test_fast_path_matches_solve_ivp_event_location(self):
        """The chunked LSODA event search agrees with solve_ivp's
        root-finding (BDF here) well inside the solver tolerances."""
        network = _decay_network(k=1.0, x0=10.0)
        event_time_fast = OdeSimulator(network).simulate(
            20.0, events=[species_below(network, "A", 5.0)]
        ).meta["event_time"]
        event_time_bdf = OdeSimulator(network, method="BDF").simulate(
            20.0, events=[species_below(network, "A", 5.0)]
        ).meta["event_time"]
        assert event_time_fast == pytest.approx(np.log(2.0), rel=1e-5)
        assert event_time_fast == pytest.approx(event_time_bdf, rel=1e-4)

    def test_event_hint_does_not_change_result(self):
        network = _decay_network(k=1.0, x0=10.0)
        simulator = OdeSimulator(network)
        event = species_below(network, "A", 5.0)
        plain = simulator.simulate(20.0, events=[event])
        hinted = simulator.simulate(20.0, events=[event],
                                    event_hint=0.7)
        assert hinted.meta["event_time"] == pytest.approx(
            plain.meta["event_time"], rel=1e-6)

    @pytest.mark.parametrize("hint", [-0.5, 0.0, float("nan"),
                                      float("inf"), -float("inf")])
    def test_event_hint_must_be_positive_and_finite(self, hint):
        """A negative hint used to search backwards and report an event
        before ``t_start`` (t = -0.057 for -0.5)."""
        network = _decay_network(k=1.0, x0=10.0)
        event = species_below(network, "A", 5.0)
        named = re.escape(repr(hint))
        with pytest.raises(SimulationError, match=named):
            OdeSimulator(network).simulate(20.0, events=[event],
                                           event_hint=hint)
        options = SimulationOptions(events=[event], event_hint=hint)
        with pytest.raises(SimulationError, match=named):
            repro.simulate(network, 20.0, options=options)

    def test_vanishing_event_hint_still_advances(self):
        """A 1e-300 hint used to collapse the first chunk to one point
        ("Nothing was done; the integration time was 0.")."""
        network = _decay_network(k=1.0, x0=10.0)
        event = species_below(network, "A", 5.0)
        trajectory = OdeSimulator(network).simulate(
            20.0, events=[event], event_hint=1e-300)
        assert trajectory.meta["event_time"] == pytest.approx(
            np.log(2.0), rel=1e-5)
        assert trajectory.times[0] == 0.0
        assert np.all(np.diff(trajectory.times) > 0)


class TestJacobianModes:
    def test_modes_agree(self):
        from repro.core.memory import build_delay_chain

        network, _, _ = build_delay_chain(n=2, initial=20.0)
        reference = None
        for method, jacobian in (("LSODA", "dense"), ("LSODA", "none"),
                                 ("BDF", "dense"), ("BDF", "sparsity"),
                                 ("Radau", "sparsity")):
            final = OdeSimulator(network, method=method,
                                 jacobian=jacobian).simulate(20.0).final("Y")
            if reference is None:
                reference = final
            assert final == pytest.approx(reference, rel=1e-5), \
                f"{method}/{jacobian} diverges"

    def test_auto_uses_pattern_not_analytic_sparse_when_large(self):
        """``auto`` must hand scipy the sparsity pattern, not the
        analytic sparse callable: with bitwise-identical Jacobian
        values, BDF's step control flips borderline step acceptances
        under the SuperLU backend and can silently integrate a wrong
        trajectory on stiff compiled networks at loose tolerances
        (observed on the DSD benchmark at C_max = 3e4)."""
        network = Network("chain")
        for i in range(70):
            network.add(f"S{i}", f"S{i + 1}", 1.0)
        network.set_initial("S0", 1.0)
        options = OdeSimulator(network, method="BDF")._jacobian_options()
        assert "jac_sparsity" in options
        assert "jac" not in options
        small = OdeSimulator(_decay_network(),
                             method="BDF")._jacobian_options()
        assert callable(small.get("jac"))

    def test_unknown_mode_rejected(self):
        network = _decay_network()
        with pytest.raises(SimulationError):
            OdeSimulator(network, jacobian="banded")


class TestInternalIntegrator:
    def test_matches_scipy_on_stiff_transfer(self):
        from repro.core.memory import build_delay_chain

        network, line, _ = build_delay_chain(n=1, initial=20.0)
        scipy_y = OdeSimulator(network).simulate(20.0).final("Y")
        internal = OdeSimulator(network, method="internal-rk45",
                                rtol=1e-7, atol=1e-9)
        internal_y = internal.simulate(20.0).final("Y")
        assert internal_y == pytest.approx(scipy_y, rel=1e-3)

    def test_dense_output_matches_tolerance_between_steps(self):
        """Sampled values must carry step-level accuracy (PR 5 fix).

        The conformance oracle caught the internal integrator linearly
        interpolating between accepted steps: at tight tolerances the
        steps are large, so mid-grid samples carried O(h^2) error that
        swamped the integration tolerance.  The Dormand-Prince 4th-order
        dense output keeps sampled values at integrator accuracy."""
        import numpy as np

        from repro.crn.simulation.rk import integrate_rk45

        grid = np.linspace(0.0, 3.0, 200)
        _, dense = integrate_rk45(
            lambda t, x: np.array([-x[0], -5.0 * x[1]]), (0.0, 3.0),
            np.array([2.0, 1.0]), rtol=1e-9, atol=1e-11,
            dense_times=grid)
        exact = np.stack([2.0 * np.exp(-grid), np.exp(-5.0 * grid)],
                         axis=1)
        assert float(np.abs(dense - exact).max()) < 1e-8

    def test_internal_rejects_events(self):
        network = _decay_network()
        simulator = OdeSimulator(network, method="internal-rk45")
        with pytest.raises(SimulationError):
            simulator.simulate(1.0, events=[species_below(network, "A", 1)])

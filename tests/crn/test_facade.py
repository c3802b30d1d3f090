"""The repro.simulate facade: dispatch, options, deprecation shims."""

import numpy as np
import pytest

from repro import SimulationOptions, parse_network, simulate
from repro.crn.simulation.ode import OdeSimulator
from repro.crn.simulation.result import SimulationResult
from repro.crn.simulation.ssa import StochasticSimulator
from repro.crn.simulation.tau_leaping import TauLeapingSimulator
from repro.errors import SimulationError


@pytest.fixture
def network():
    return parse_network("""
        network: facade_demo
        X -> Y @ fast
        Y -> Z @ slow
        init X = 30
    """)


class TestDispatch:
    def test_ode_matches_direct_engine(self, network):
        facade = simulate(network, 6.0, n_samples=50)
        direct = OdeSimulator(network).simulate(6.0, n_samples=50)
        np.testing.assert_array_equal(facade.times, direct.times)
        np.testing.assert_array_equal(facade.states, direct.states)

    def test_ssa_matches_direct_engine_same_seed(self, network):
        facade = simulate(network, 6.0, method="ssa", seed=7)
        direct = StochasticSimulator(network, seed=7).simulate(
            6.0, n_samples=200)
        np.testing.assert_array_equal(facade.states, direct.states)

    def test_tau_matches_direct_engine_same_seed(self, network):
        facade = simulate(network, 6.0, method="tau",
                          options=SimulationOptions(seed=11))
        direct = TauLeapingSimulator(network, seed=11).simulate(
            6.0, n_samples=200)
        np.testing.assert_array_equal(facade.states, direct.states)

    def test_unknown_method_raises(self, network):
        with pytest.raises(SimulationError, match="unknown simulation"):
            simulate(network, 1.0, method="quantum")

    def test_events_rejected_under_stochastic_semantics(self, network):
        with pytest.raises(SimulationError, match="only supported by"):
            simulate(network, 1.0, method="ssa",
                     events=[lambda t, x: x[0] - 1.0])

    def test_overrides_beat_options_bag(self, network):
        base = SimulationOptions(n_samples=10)
        trajectory = simulate(network, 6.0, options=base, n_samples=33)
        assert len(trajectory) == 33

    def test_unknown_override_raises_typeerror(self, network):
        with pytest.raises(TypeError, match="unknown simulation option"):
            simulate(network, 1.0, nsamples=10)


class TestResultProtocol:
    @pytest.mark.parametrize("method", ["ode", "ssa", "tau"])
    def test_every_engine_satisfies_the_protocol(self, network, method):
        trajectory = simulate(network, 4.0, method=method, seed=1,
                              n_samples=20)
        assert isinstance(trajectory, SimulationResult)
        assert trajectory.species_index("Z") == \
            trajectory.names.index("Z")
        final = trajectory.final_state()
        assert set(final) == {"X", "Y", "Z"}
        assert final["Z"] == pytest.approx(
            trajectory.states[-1, trajectory.species_index("Z")])

    def test_species_index_unknown_name(self, network):
        trajectory = simulate(network, 1.0, n_samples=5)
        with pytest.raises(SimulationError, match="no species"):
            trajectory.species_index("NOPE")


class TestTStart:
    @pytest.mark.parametrize("method", ["ode", "ssa", "tau"])
    def test_grid_spans_t_start_to_t_final(self, network, method):
        trajectory = simulate(network, 5.0, method=method, seed=1,
                              t_start=2.0, n_samples=13)
        assert trajectory.times[0] == pytest.approx(2.0)
        assert trajectory.t_final == pytest.approx(5.0)

    @pytest.mark.parametrize("method", ["ode", "ssa", "tau"])
    def test_t_final_must_exceed_t_start(self, network, method):
        with pytest.raises(SimulationError):
            simulate(network, 1.0, method=method, t_start=2.0)


class TestRemovedShims:
    """The PR 4 renamed-kwarg shims are gone after two releases.

    The removed spellings must fail loudly -- ``rng=`` / ``max_steps=``
    as plain unexpected-keyword TypeErrors, solver-name methods with a
    targeted migration hint (see docs/serving.md, "Migration notes").
    """

    def test_ssa_rng_kwarg_removed(self, network):
        with pytest.raises(TypeError, match="rng"):
            StochasticSimulator(network, rng=5)

    def test_tau_max_steps_kwarg_removed(self, network):
        simulator = TauLeapingSimulator(network, seed=1)
        with pytest.raises(TypeError, match="max_steps"):
            simulator.simulate(4.0, max_steps=1)

    def test_facade_solver_name_as_method_removed(self, network):
        with pytest.raises(SimulationError,
                           match="SimulationOptions\\(solver='BDF'\\)"):
            simulate(network, 4.0, method="BDF", n_samples=20)

    def test_ode_engine_with_solver_option_is_the_replacement(
            self, network):
        trajectory = simulate(
            network, 4.0, method="ode",
            options=SimulationOptions(solver="BDF", n_samples=20))
        direct = OdeSimulator(network, method="BDF").simulate(
            4.0, n_samples=20)
        np.testing.assert_allclose(trajectory.states, direct.states)


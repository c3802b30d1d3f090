"""Unit tests for compiled mass-action kinetics."""

import numpy as np
import pytest

from repro import SimulationOptions, simulate
from repro.crn.kinetics import build_kinetics
from repro.crn.network import Network
from repro.crn.simulation.ode import OdeSimulator
from repro.crn.simulation.ssa import StochasticSimulator
from repro.crn.simulation.tau_leaping import TauLeapingSimulator
from repro.errors import NetworkError, SimulationError


def _simple_network():
    network = Network()
    network.add({"A": 1}, {"B": 1}, 2.0)          # A -> B
    network.add({"A": 1, "B": 1}, {"C": 1}, 3.0)  # A + B -> C
    network.add({"B": 2}, {"D": 1}, 0.5)          # 2B -> D
    network.add(None, {"A": 1}, 4.0)              # 0 -> A
    return network


class TestDeterministic:
    def test_reaction_rates(self):
        network = _simple_network()
        kinetics = build_kinetics(network)
        x = np.zeros(network.n_species)
        x[network.species_index("A")] = 2.0
        x[network.species_index("B")] = 3.0
        rates = kinetics.reaction_rates(x)
        assert rates[0] == pytest.approx(2.0 * 2.0)
        assert rates[1] == pytest.approx(3.0 * 2.0 * 3.0)
        assert rates[2] == pytest.approx(0.5 * 9.0)
        assert rates[3] == pytest.approx(4.0)

    def test_rhs_respects_stoichiometry(self):
        network = _simple_network()
        kinetics = build_kinetics(network)
        x = np.zeros(network.n_species)
        x[network.species_index("A")] = 1.0
        x[network.species_index("B")] = 1.0
        dx = kinetics.rhs(0.0, x)
        ia = network.species_index("A")
        ib = network.species_index("B")
        # dA = -k1 A - k2 A B + k4; dB = +k1 A - k2 A B - 2 k3 B^2
        assert dx[ia] == pytest.approx(-2.0 - 3.0 + 4.0)
        assert dx[ib] == pytest.approx(2.0 - 3.0 - 2 * 0.5)

    def test_negative_states_clamped(self):
        network = _simple_network()
        kinetics = build_kinetics(network)
        x = -np.ones(network.n_species)
        assert np.all(np.isfinite(kinetics.rhs(0.0, x)))

    def test_jacobian_matches_finite_differences(self):
        network = _simple_network()
        kinetics = build_kinetics(network)
        rng = np.random.default_rng(0)
        x = rng.uniform(0.5, 3.0, network.n_species)
        analytic = kinetics.jacobian(0.0, x)
        eps = 1e-6
        for j in range(network.n_species):
            bump = x.copy()
            bump[j] += eps
            numeric = (kinetics.rhs(0.0, bump) - kinetics.rhs(0.0, x)) / eps
            assert np.allclose(analytic[:, j], numeric, rtol=1e-4,
                               atol=1e-6)

    def test_rate_vector_mismatch_rejected(self):
        network = _simple_network()
        with pytest.raises(ValueError):
            build_kinetics(network, rates=np.ones(2))


class TestStochastic:
    def test_constants_volume_scaling(self):
        network = _simple_network()
        kinetics = build_kinetics(network)
        c1 = kinetics.stochastic_constants(volume=1.0)
        c2 = kinetics.stochastic_constants(volume=10.0)
        # Unimolecular unchanged, bimolecular /V, zeroth * V.
        assert c2[0] == pytest.approx(c1[0])
        assert c2[1] == pytest.approx(c1[1] / 10.0)
        assert c2[3] == pytest.approx(c1[3] * 10.0)

    def test_propensities_combinatorics(self):
        network = _simple_network()
        kinetics = build_kinetics(network)
        constants = kinetics.stochastic_constants()
        counts = np.zeros(network.n_species, dtype=np.int64)
        counts[network.species_index("B")] = 3
        a = kinetics.propensities(counts, constants)
        # 2B -> D: c * C(3,2) = (0.5 * 2!) * 3 = 3.0
        assert a[2] == pytest.approx(0.5 * 2 * 3)
        # A -> B has zero propensity with no A.
        assert a[0] == 0.0

    def test_propensity_zero_below_stoichiometry(self):
        network = Network()
        network.add({"X": 2}, {"Y": 1}, 1.0)
        kinetics = build_kinetics(network)
        constants = kinetics.stochastic_constants()
        counts = np.array([1, 0])
        assert kinetics.propensities(counts, constants)[0] == 0.0


def _pair() -> Network:
    network = Network("pair")
    network.add("A", "B", 1.0)
    network.add("B", "A", 2.0)
    network.set_initial("A", 5)
    return network


class TestInvalidRatesAndVolumes:
    """A rate or volume that would make a propensity negative or
    non-finite raises one error naming it, on every engine; zero rates
    stay legal."""

    def test_a_nan_literal_rate_is_refused(self):
        with pytest.raises(NetworkError, match=r"got nan for A -> B"):
            Network().add("A", "B", float("nan"))

    @pytest.mark.parametrize("rate", [-1.0, np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("engine", [
        StochasticSimulator, TauLeapingSimulator, OdeSimulator,
        build_kinetics])
    def test_an_explicit_rate_is_refused(self, engine, rate):
        with pytest.raises(SimulationError) as raised:
            engine(_pair(), rates=[2.0, rate])
        assert str(raised.value) == (
            f"rates[1] is {rate!r} for reaction B -> A @ 2: rates must "
            f"be finite and non-negative")

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_zero_rates_stay_legal(self, zero):
        trajectory = StochasticSimulator(
            _pair(), rates=[zero, 2.0], seed=0).simulate(1.0)
        assert trajectory.meta == {"events": 0}

    @pytest.mark.parametrize("volume", [0.0, -1.0, np.inf, np.nan])
    @pytest.mark.parametrize("engine", [
        StochasticSimulator, TauLeapingSimulator,
        lambda network, volume: build_kinetics(
            network).stochastic_constants(volume)],
        ids=["ssa", "tau", "stochastic_constants"])
    def test_a_volume_is_refused(self, engine, volume):
        with pytest.raises(SimulationError) as raised:
            engine(_pair(), volume=volume)
        assert str(raised.value) == \
            f"volume must be finite and > 0, got {volume!r}"

    def test_the_facade_volume_is_refused(self):
        with pytest.raises(SimulationError, match="volume must be finite"):
            simulate(_pair(), 1.0, method="ssa", seed=0,
                     options=SimulationOptions(volume=0.0))

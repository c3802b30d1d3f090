"""Unit tests for trajectory analysis helpers."""

import numpy as np
import pytest

from repro import simulate
from repro.crn.network import Network
from repro.crn.simulation.ode import OdeSimulator
from repro.crn.simulation.result import Trajectory
from repro.core.analysis import (conservation_drift, effective_series,
                                 effective_value, indicator_exclusivity,
                                 rise_time, settling_time,
                                 transfer_fidelity)
from repro.core.memory import build_delay_chain
from repro.core.phases import PhaseProtocol
from repro.errors import SimulationError


def _synthetic(names, columns, times=None):
    columns = np.column_stack(columns)
    if times is None:
        times = np.linspace(0, 1, columns.shape[0])
    return Trajectory(times, columns, names)


class TestEffectiveValues:
    def test_plain_species(self):
        trajectory = _synthetic(["Y"], [np.array([0.0, 2.0, 4.0])])
        assert effective_value(trajectory, "Y") == 4.0

    def test_dimer_counts_double(self):
        trajectory = _synthetic(
            ["Y", "I_Y"],
            [np.array([0.0, 4.0]), np.array([0.0, 3.0])])
        assert effective_value(trajectory, "Y") == 10.0
        assert effective_series(trajectory, "Y")[-1] == 10.0

    def test_at_time(self):
        trajectory = _synthetic(["Y"], [np.array([0.0, 10.0])])
        assert effective_value(trajectory, "Y", t=0.5) == pytest.approx(5.0)


class TestTransferMetrics:
    @pytest.fixture(scope="class")
    def chain_run(self):
        network, _, protocol = build_delay_chain(n=1, initial=40.0)
        trajectory = OdeSimulator(network).simulate(25.0, n_samples=500)
        return network, protocol, trajectory

    def test_transfer_fidelity(self, chain_run):
        _, _, trajectory = chain_run
        assert transfer_fidelity(trajectory, "X", "Y") == pytest.approx(
            1.0, abs=0.01)

    def test_settling_time_reasonable(self, chain_run):
        _, _, trajectory = chain_run
        settled = settling_time(trajectory, "Y", tolerance=0.02)
        assert 0.0 < settled < 20.0

    def test_rise_time_much_shorter_than_span(self, chain_run):
        _, _, trajectory = chain_run
        assert rise_time(trajectory, "Y") < 5.0

    def test_rise_time_needs_rising_signal(self):
        trajectory = _synthetic(["Y"], [np.zeros(4)])
        with pytest.raises(SimulationError):
            rise_time(trajectory, "Y")

    def test_indicator_exclusivity_small(self, chain_run):
        network, protocol, trajectory = chain_run
        # In consuming mode indicators reach O(1); the second largest
        # should stay well below the largest's scale.
        value = indicator_exclusivity(network, trajectory, protocol)
        columns = [trajectory.column(protocol.indicator_name(c)).max()
                   for c in ("red", "green", "blue")]
        assert value < max(columns)


class TestConservationDrift:
    def test_closed_system_has_tiny_drift(self):
        network = Network()
        network.add("A", "B", 1.0)
        network.add("B", "A", 0.5)
        network.set_initial("A", 10.0)
        trajectory = simulate(network, 20.0)
        assert conservation_drift(network, trajectory) < 1e-6

    def test_transfer_source_fidelity_requires_mass(self):
        trajectory = _synthetic(["X", "Y"],
                                [np.zeros(3), np.ones(3)])
        with pytest.raises(SimulationError):
            transfer_fidelity(trajectory, "X", "Y")


class TestProtocolAccounting:
    def test_one_shot_chain_mass_conserved_in_effective_units(self):
        """X units equal effective Y units at the end -- the dimer
        bookkeeping makes the accounting exact."""
        network, line, _ = build_delay_chain(n=2, initial=50.0)
        trajectory = OdeSimulator(network).simulate(40.0, n_samples=100)
        total = sum(effective_series(trajectory, name)[-1]
                    for name in line.signal_species())
        assert total == pytest.approx(50.0, rel=1e-4)

    def test_protocol_indicator_names_in_network(self):
        network, _, protocol = build_delay_chain(n=1)
        assert isinstance(protocol, PhaseProtocol)
        for color in ("red", "green", "blue"):
            assert protocol.indicator_name(color) in network

"""Unit tests for the event helpers and :class:`MarginEvent`."""

import numpy as np
import pytest

from repro.crn import native
from repro.crn.network import Network
from repro.crn.simulation.events import (species_above, species_below,
                                         total_above, total_below)
from repro.crn.simulation.margins import MarginEvent, MarginTable
from repro.crn.simulation.ode import OdeSimulator
from repro.errors import SimulationError


@pytest.fixture
def splitter():
    """A -> B and A -> C in parallel; totals drain/accumulate."""
    network = Network()
    network.add("A", "B", 1.0)
    network.add("A", "C", 1.0)
    network.set_initial("A", 10.0)
    return network


class TestEventDirections:
    def test_species_below_marks_terminal(self, splitter):
        event = species_below(splitter, "A", 2.0)
        assert event.terminal is True
        assert event.direction == -1.0

    def test_non_terminal_event_records_nothing(self, splitter):
        event = species_below(splitter, "A", 5.0, terminal=False)
        simulator = OdeSimulator(splitter)
        trajectory = simulator.simulate(3.0, events=[event])
        assert trajectory.t_final == pytest.approx(3.0)

    def test_total_below_fires_on_group(self, splitter):
        event = total_below(splitter, ["A"], 1.0)
        simulator = OdeSimulator(splitter)
        trajectory = simulator.simulate(10.0, events=[event])
        assert trajectory.final("A") == pytest.approx(1.0, rel=1e-3)

    def test_total_above_fires_on_group(self, splitter):
        event = total_above(splitter, ["B", "C"], 8.0)
        simulator = OdeSimulator(splitter)
        trajectory = simulator.simulate(10.0, events=[event])
        assert (trajectory.final("B") + trajectory.final("C")) == \
            pytest.approx(8.0, rel=1e-3)

    def test_unknown_species_rejected(self, splitter):
        from repro.errors import NetworkError

        with pytest.raises(NetworkError):
            species_above(splitter, "Z", 1.0)


class TestMarginEvents:
    @pytest.mark.parametrize("factory,names,direction", [
        (species_below, "C", -1.0),
        (species_above, "B", 1.0),
        (total_below, ["C", "A"], -1.0),
        (total_above, ["B", "C"], 1.0),
    ])
    def test_factories_build_one_term_in_the_order_given(
            self, splitter, factory, names, direction):
        event = factory(splitter, names, 2.5, terminal=False)
        assert isinstance(event, MarginEvent)
        assert (event.direction, event.terminal) == (direction, False)
        names = [names] if isinstance(names, str) else names
        indices = [splitter.species_index(name) for name in names]
        assert event.margin.terms == [(indices, [1.0] * len(names), 2.5,
                                       1)]

    def test_values_are_the_closures_bits(self):
        """Each event returns the exact bits of the closure it replaced:
        ``x[i] - t``, ``float(x[group].sum()) - t`` and the handshake's
        output plus twice its dimer, minus ``t``."""
        rng = np.random.default_rng(0)
        states = np.concatenate([rng.uniform(0.0, 30.0, (1000, 6)),
                                 rng.exponential(1e-6, (1000, 6))])

        def dimer_closure(x):
            value = float(x[4])
            value += 2.0 * float(x[1])
            return value - 7.3

        cases = [
            (MarginTable([([3], [1.0], 0.09, 1)]), lambda x: x[3] - 0.09),
            (MarginTable([([5, 0, 2], [1.0] * 3, 4.1, 1)]),
             lambda x: float(x[[5, 0, 2]].sum()) - 4.1),
            (MarginTable([([4, 1], [1.0, 2.0], 7.3, 1)]), dimer_closure),
        ]
        for table, closure in cases:
            event = MarginEvent(table, 1.0)
            for x in states:
                assert np.float64(event(0.0, x)).tobytes() == \
                    np.float64(closure(x)).tobytes()

    @pytest.mark.parametrize("method", ["LSODA", "BDF", "native-bdf"])
    def test_a_margin_outside_the_network_raises(self, splitter, method):
        event = MarginEvent(MarginTable([([0, 3], [1.0, 1.0], 5.0, 1)]),
                            -1.0)
        simulator = OdeSimulator(splitter, method=method)
        with pytest.raises(SimulationError, match="outside the network"):
            simulator.simulate(2.0, events=[event])

    @pytest.mark.parametrize("method", ["LSODA", "BDF"])
    def test_plain_callables_still_work(self, splitter, method):
        def event(t, x):
            return x[0] - 5.0

        event.terminal, event.direction = True, -1.0
        trajectory = OdeSimulator(splitter, method=method).simulate(
            10.0, events=[event])
        assert trajectory.meta["event"] == 0
        assert trajectory.final("A") == pytest.approx(5.0, rel=1e-3)

    @pytest.mark.parametrize("make", [
        lambda network: lambda t, x: x[0] - 5.0,
        lambda network: species_below(network, "A", 5.0, terminal=False),
    ], ids=["plain-callable", "non-terminal"])
    def test_native_bdf_refuses_what_it_cannot_run(self, splitter,
                                                   monkeypatch, make):
        event = make(splitter)
        for kernel in (native.load(), None):
            monkeypatch.setattr(native, "_kernel", kernel)
            simulator = OdeSimulator(splitter, method="native-bdf")
            with pytest.raises(SimulationError,
                               match="native-bdf supports"):
                simulator.simulate(2.0, events=[event])

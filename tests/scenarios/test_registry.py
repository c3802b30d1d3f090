"""The shared scenario registry and its built-in menu."""

from __future__ import annotations

import pytest

from repro.crn.network import Network
from repro.errors import FaultError, ScenarioError
from repro.scenarios import (Scenario, get_scenario, register_scenario,
                             scenario_names)


class TestRegistry:
    def test_builtin_menu_in_registration_order(self):
        assert scenario_names() == ("clock", "counter", "fsm", "ma",
                                    "iir", "clock-relaxation", "random")

    def test_tag_filters(self):
        assert scenario_names(tag="waves") == ("counter", "fsm", "ma",
                                               "iir")
        assert scenario_names(tag="faults") == ("counter", "ma", "iir")
        assert scenario_names(tag="conformance-circuit") == \
            ("clock", "counter", "clock-relaxation")

    def test_unknown_name_suggests_nearest(self):
        with pytest.raises(ScenarioError, match="did you mean 'clock'"):
            get_scenario("clok")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ScenarioError, match="already registered"):
            register_scenario(Scenario(name="clock", description="dup"))

    def test_missing_capability_is_a_clear_error(self):
        with pytest.raises(ScenarioError, match="fsm.*network"):
            get_scenario("fsm").network()
        with pytest.raises(ScenarioError, match="fsm.*network"):
            get_scenario("fsm").canonical_network()
        with pytest.raises(ScenarioError, match="clock.*adapter"):
            get_scenario("clock").circuit()


class TestBuiltinNetworks:
    @pytest.mark.parametrize("name", ["clock", "counter", "ma", "iir",
                                      "clock-relaxation", "random"])
    def test_network_capability(self, name):
        network = get_scenario(name).network()
        assert isinstance(network, Network)
        assert network.n_reactions > 0

    @pytest.mark.parametrize("name", ["counter", "random"])
    def test_canonical_network_is_the_built_networks_text(self, name):
        network = get_scenario(name).network()
        assert get_scenario(name).canonical_network() == \
            (network.name, network.canonical_text())

    def test_counter_params(self):
        two = get_scenario("counter").network(bits=2)
        three = get_scenario("counter").network(bits=3)
        assert three.n_species > two.n_species

    def test_random_is_seed_deterministic(self):
        build = get_scenario("random").build_network
        assert build(seed=3).canonical_hash() == \
            build(seed=3).canonical_hash()
        assert build(seed=3).canonical_hash() != \
            build(seed=4).canonical_hash()


class TestConsumers:
    def test_faults_resolution_goes_through_registry(self):
        from repro.faults import make_circuit

        adapter = make_circuit("counter", n_bits=2)
        assert adapter.name == "counter"
        with pytest.raises(FaultError, match="choose from"):
            make_circuit("clock")  # registered, but no fault adapter

    def test_conformance_circuit_targets_match_registry(self):
        from repro.conformance.generator import _circuit_targets

        targets = _circuit_targets(10.0)
        assert [t.name for t in targets] == [
            "circuit:clock", "circuit:counter2",
            "circuit:clock-relaxation"]
        assert targets[0].t_final == 2.0 and not targets[0].stochastic
        assert targets[1].t_final == 1.0 and targets[1].stochastic
        assert targets[2].t_final == 2.0 and not targets[2].stochastic
        counter = get_scenario("counter").network(bits=2)
        assert targets[1].network.canonical_hash() == \
            counter.canonical_hash()

    def test_waves_scenarios_derived_from_registry(self):
        from repro.waves.runner import SCENARIOS

        assert SCENARIOS == scenario_names(tag="waves")

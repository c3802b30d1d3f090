"""Unit tests for the network container."""

import numpy as np
import pytest

from repro.crn.network import Network
from repro.crn.parser import parse_network
from repro.crn.rates import RateScheme
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.errors import NetworkError


class TestSpeciesRegistry:
    def test_add_and_order(self):
        network = Network()
        network.add_species("B")
        network.add_species("A")
        assert network.species_names == ["B", "A"]
        assert network.n_species == 2

    def test_idempotent_add(self):
        network = Network()
        network.add_species(Species("X", color="red"))
        network.add_species(Species("X", color="red"))
        assert network.n_species == 1

    def test_bare_redeclaration_is_ignored(self):
        network = Network()
        network.add_species(Species("X", color="red"))
        network.add_species("X")  # auto-registration form
        assert network.get_species("X").color == "red"

    def test_bare_then_explicit_upgrades(self):
        network = Network()
        network.add_species("X")
        network.add_species(Species("X", color="green"))
        assert network.get_species("X").color == "green"

    def test_conflicting_metadata_rejected(self):
        network = Network()
        network.add_species(Species("X", color="red"))
        with pytest.raises(NetworkError):
            network.add_species(Species("X", color="blue"))

    def test_contains_and_index(self):
        network = Network()
        network.add_species("X")
        assert "X" in network
        assert "Y" not in network
        assert network.species_index("X") == 0
        with pytest.raises(NetworkError):
            network.species_index("Y")

    def test_species_with_color_and_role(self):
        network = Network()
        network.add_species(Species("R", color="red"))
        network.add_species(Species("C", color="red", role="clock"))
        network.add_species(Species("x"))
        assert {s.name for s in network.species_with_color("red")} == \
            {"R", "C"}
        assert [s.name for s in network.species_with_role("clock")] == ["C"]


class TestReactions:
    def test_add_auto_registers_species(self):
        network = Network()
        network.add({"A": 1}, {"B": 2}, "fast")
        assert set(network.species_names) == {"A", "B"}
        assert network.n_reactions == 1

    def test_extend(self):
        network = Network()
        network.extend([Reaction("A", "B"), Reaction("B", "C")])
        assert network.n_reactions == 2


class TestInitialConditions:
    def test_set_get(self):
        network = Network()
        network.set_initial("X", 5.0)
        assert network.get_initial("X") == 5.0
        assert network.get_initial("Y") == 0.0

    def test_negative_rejected(self):
        with pytest.raises(NetworkError):
            Network().set_initial("X", -1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_rejected_naming_the_species(self, value):
        network = Network()
        network.add("A", "B")
        with pytest.raises(NetworkError,
                           match=f"initial quantity of 'A' must be finite, "
                                 f"got {value!r}"):
            network.set_initial("A", value)
        with pytest.raises(NetworkError, match="'C' must be finite"):
            network.add_species("C", initial=value)
        assert network.initial == {}

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_canonical_initial_rejected(self, value):
        network = Network()
        network.add("A", "B")
        network.set_initial("A", 2.0)
        payload = network.to_canonical_dict()
        payload["initial"] = {"A": value}
        with pytest.raises(NetworkError, match="'A' must be finite"):
            Network.from_canonical_dict(payload)

    def test_initial_vector_with_overrides(self):
        network = Network()
        network.add("A", "B")
        network.set_initial("A", 3.0)
        x0 = network.initial_vector({"B": 7.0})
        assert x0[network.species_index("A")] == 3.0
        assert x0[network.species_index("B")] == 7.0


class TestMerge:
    def test_merge_unions_and_sums(self):
        a = Network("a")
        a.add("X", "Y")
        a.set_initial("X", 2.0)
        b = Network("b")
        b.add("Y", "Z")
        b.set_initial("X", 3.0)
        a.merge(b)
        assert set(a.species_names) == {"X", "Y", "Z"}
        assert a.n_reactions == 2
        assert a.get_initial("X") == 5.0

    def test_merge_skips_duplicate_reactions(self):
        a = Network()
        a.add("X", "Y", "fast")
        b = Network()
        b.add("X", "Y", "fast")
        a.merge(b)
        assert a.n_reactions == 1

    def test_copy_independent(self):
        a = Network("a")
        a.add("X", "Y")
        clone = a.copy()
        clone.add("Y", "Z")
        assert a.n_reactions == 1
        assert clone.n_reactions == 2

    def test_copy_keeps_exact_duplicates(self):
        """``copy`` is not ``merge``: a reaction listed twice stays
        listed twice, so rate vectors keep lining up with the copy."""
        a = Network("a")
        a.add("X", "Y", 2.0)
        a.add("Y", "X", 1.0)
        a.add("X", "Y", 2.0)
        a.set_initial("X", 3.0)
        clone = a.copy(name="b")
        assert clone.name == "b"
        assert clone.reactions == a.reactions
        assert clone.species_names == a.species_names
        assert clone.initial == a.initial
        assert clone.canonical_hash() == a.canonical_hash()
        clone.set_initial("Y", 1.0)
        assert a.get_initial("Y") == 0.0


class TestMatrices:
    def _network(self):
        network = Network()
        network.add({"A": 2, "B": 1}, {"C": 1}, 1.0)
        network.add(None, {"A": 1}, 2.0)
        return network

    def test_reactant_matrix(self):
        network = self._network()
        E = network.reactant_matrix()
        ia, ib = network.species_index("A"), network.species_index("B")
        assert E[0, ia] == 2 and E[0, ib] == 1
        assert np.all(E[1] == 0)

    def test_stoichiometry_matrix(self):
        network = self._network()
        S = network.stoichiometry_matrix()
        ia = network.species_index("A")
        ic = network.species_index("C")
        assert S[ia, 0] == -2 and S[ic, 0] == 1
        assert S[ia, 1] == 1

    def test_rate_vector(self):
        network = Network()
        network.add("A", "B", "fast")
        network.add("B", "A", 2.5)
        rates = network.rate_vector(RateScheme())
        assert rates[0] == 1000.0 and rates[1] == 2.5


class TestConservation:
    def test_closed_cycle_conserves_total(self):
        network = Network()
        network.add("A", "B")
        network.add("B", "C")
        network.add("C", "A")
        laws = network.conservation_laws()
        assert laws.shape[0] == 1
        # The conserved functional is proportional to A + B + C.
        law = laws[0]
        assert np.allclose(law, law[0])

    def test_open_system_has_no_laws(self):
        network = Network()
        network.add(None, "A")
        network.add("A", None)
        assert network.conservation_laws().shape[0] == 0


class TestValidationAndText:
    def test_empty_network_invalid(self):
        with pytest.raises(NetworkError):
            Network().validate()

    def test_to_text_roundtrip(self):
        network = Network("demo")
        network.add_species(Species("R_1", color="red", role="clock"))
        network.add({"R_1": 1, "b": 1}, {"G_1": 1}, "slow")
        network.add(None, "b", 0.25)
        network.set_initial("R_1", 10.0)
        parsed = parse_network(network.to_text())
        assert parsed.name == "demo"
        assert set(parsed.species_names) == set(network.species_names)
        assert parsed.n_reactions == network.n_reactions
        assert parsed.get_initial("R_1") == 10.0
        assert parsed.get_species("R_1").color == "red"

    def test_summary(self):
        network = Network("n")
        network.add("A", "B")
        assert "1 reactions" in network.summary()
        assert "2 species" in network.summary()

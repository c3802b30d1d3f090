"""Unit tests for the reaction model."""

import pytest

from repro.crn.reaction import Reaction, reversible
from repro.crn.species import Species
from repro.errors import NetworkError


class TestConstruction:
    def test_from_strings(self):
        r = Reaction("A", "B")
        assert r.reactants == {Species("A"): 1}
        assert r.products == {Species("B"): 1}

    def test_from_iterables_accumulate(self):
        r = Reaction(["A", "A", "B"], ["C"])
        assert r.reactants == {Species("A"): 2, Species("B"): 1}

    def test_from_mapping(self):
        r = Reaction({"A": 2}, {"B": 3}, rate="fast")
        assert r.reactants[Species("A")] == 2
        assert r.products[Species("B")] == 3

    def test_zero_coefficients_dropped(self):
        r = Reaction({"A": 1, "B": 0}, {"C": 1})
        assert Species("B") not in r.reactants

    def test_empty_sides(self):
        source = Reaction(None, "X")
        assert source.reactants == {}
        sink = Reaction("X", None)
        assert sink.products == {}

    def test_both_sides_empty_rejected(self):
        with pytest.raises(NetworkError):
            Reaction(None, None)

    def test_negative_stoichiometry_rejected(self):
        with pytest.raises(NetworkError):
            Reaction({"A": -1}, {"B": 1})

    def test_negative_rate_rejected(self):
        with pytest.raises(NetworkError):
            Reaction("A", "B", rate=-1.0)

    def test_symbolic_rate_kept(self):
        assert Reaction("A", "B", rate="slow").rate == "slow"


class TestQueries:
    def test_order(self):
        assert Reaction(None, "X").order == 0
        assert Reaction("A", "B").order == 1
        assert Reaction({"A": 2}, "B").order == 2
        assert Reaction({"A": 2, "B": 1}, "C").order == 3

    def test_species(self):
        r = Reaction({"A": 1, "B": 1}, {"C": 2})
        assert r.species == {Species("A"), Species("B"), Species("C")}

    def test_net_change(self):
        r = Reaction({"A": 2, "B": 1}, {"B": 1, "C": 3})
        assert r.net_change() == {Species("A"): -2, Species("C"): 3}

    def test_catalytic(self):
        r = Reaction({"E": 1, "S": 1}, {"E": 1, "P": 1})
        assert r.is_catalytic_in("E")
        assert not r.is_catalytic_in("S")
        assert not r.is_catalytic_in("P")

    def test_conserves_mass_of_group(self):
        transfer = Reaction({"R": 1, "b": 1}, {"G": 1})
        assert transfer.conserves_mass_of(["R", "G"])
        assert not transfer.conserves_mass_of(["R"])
        assert not transfer.conserves_mass_of(["R", "G", "b"])


class TestEqualityAndRendering:
    def test_equality_ignores_label(self):
        a = Reaction("A", "B", "fast", label="one")
        b = Reaction("A", "B", "fast", label="two")
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality_on_rate(self):
        assert Reaction("A", "B", "fast") != Reaction("A", "B", "slow")

    def test_str_contains_parts(self):
        text = str(Reaction({"A": 2, "b": 1}, {"C": 1}, "fast"))
        assert "2 A" in text and "b" in text
        assert "-> C" in text and "@ fast" in text

    def test_str_empty_side(self):
        assert str(Reaction(None, "X", 1.5)).startswith("0 -> X")


class TestReversible:
    def test_builds_both_directions(self):
        fwd, bwd = reversible({"A": 2}, {"I": 1}, "slow", "fast")
        assert fwd.reactants == {Species("A"): 2}
        assert fwd.rate == "slow"
        assert bwd.products == {Species("A"): 2}
        assert bwd.rate == "fast"

"""Unit tests for the CRN text parser."""

import pytest

from repro.crn.parser import parse_network
from repro.crn.species import Species
from repro.errors import ParseError


class TestReactionSyntax:
    def test_simple(self):
        network = parse_network("A + B -> C @ fast")
        reaction = network.reactions[0]
        assert reaction.reactants == {Species("A"): 1, Species("B"): 1}
        assert reaction.rate == "fast"

    def test_coefficients_both_styles(self):
        network = parse_network("2 A + 3*B -> 4 C")
        reaction = network.reactions[0]
        assert reaction.reactants[Species("A")] == 2
        assert reaction.reactants[Species("B")] == 3
        assert reaction.products[Species("C")] == 4

    def test_default_rate_is_slow(self):
        assert parse_network("A -> B").reactions[0].rate == "slow"

    def test_numeric_rate(self):
        assert parse_network("A -> B @ 2.5").reactions[0].rate == 2.5

    def test_zeroth_order_source(self):
        reaction = parse_network("-> r @ slow").reactions[0]
        assert reaction.reactants == {}
        assert reaction.products == {Species("r"): 1}

    def test_degradation(self):
        reaction = parse_network("X -> @ 0.1").reactions[0]
        assert reaction.products == {}

    def test_explicit_zero_side(self):
        reaction = parse_network("0 -> X").reactions[0]
        assert reaction.reactants == {}

    def test_reversible(self):
        network = parse_network("A <-> B @ slow / fast")
        assert network.n_reactions == 2
        assert network.reactions[0].rate == "slow"
        assert network.reactions[1].rate == "fast"
        assert network.reactions[1].reactants == {Species("B"): 1}

    def test_duplicate_species_accumulate(self):
        reaction = parse_network("A + A -> B").reactions[0]
        assert reaction.reactants[Species("A")] == 2

    def test_comments_and_blank_lines(self):
        network = parse_network(
            "# header\n\nA -> B @ fast  # inline comment\n")
        assert network.n_reactions == 1


class TestDirectives:
    def test_network_name(self):
        assert parse_network("network: demo\nA -> B").name == "demo"

    def test_species_declaration(self):
        network = parse_network(
            "species R_1 color=red role=clock\nR_1 -> G_1")
        species = network.get_species("R_1")
        assert species.color == "red"
        assert species.role == "clock"

    def test_init(self):
        network = parse_network("init X = 5.5\nX -> Y")
        assert network.get_initial("X") == 5.5


class TestErrors:
    @pytest.mark.parametrize("text", [
        "A -> B @ -1",
        "A -> B @ slow / fast",       # / only valid for reversible
        "A <-> B @ slow",             # reversible needs two rates
        "A  B -> C",                  # missing +/arrow
        "-> ",                        # both sides empty
        "init X = abc",
        "init X = -3",
        "species 1bad",
        "species X color=teal",
        "A + -> B",
    ])
    def test_rejected(self, text):
        with pytest.raises(ParseError):
            parse_network(text)

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as info:
            parse_network("A -> B\nC -> @ 1.2.3\n")
        assert "line 2" in str(info.value)

    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e999"])
    def test_non_finite_init_rejected_with_line_number(self, value):
        with pytest.raises(ParseError,
                           match=r"line 2: init value of 'X' must be "
                                 r"finite") as info:
            parse_network(f"X -> Y\ninit X = {value}\n")
        assert info.value.line_no == 2

    def test_custom_rate_category_accepted(self):
        # Category names beyond fast/slow are legal; they resolve (or
        # fail) at simulation time via the RateScheme.
        reaction = parse_network("A -> B @ medium").reactions[0]
        assert reaction.rate == "medium"


class TestLoadFile:
    def test_load(self, tmp_path):
        path = tmp_path / "net.crn"
        path.write_text("A -> B @ fast\ninit A = 2\n")
        from repro.crn.parser import load_network

        network = load_network(path)
        assert network.n_reactions == 1
        assert network.get_initial("A") == 2.0


class TestErrorPaths:
    """The parser must fail with ParseError (a ReproError) and point at
    the offending line for every class of user mistake."""

    def test_conflicting_duplicate_species(self):
        text = ("species X color=red role=signal\n"
                "species X color=blue role=signal\n")
        with pytest.raises(ParseError) as info:
            parse_network(text)
        assert info.value.line_no == 2
        assert "conflicting declarations" in str(info.value)
        assert "red" in str(info.value) and "blue" in str(info.value)

    def test_duplicate_species_is_a_reproerror(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError):
            parse_network("species X color=red\nspecies X color=green\n")

    def test_identical_redeclaration_is_fine(self):
        network = parse_network("species X color=red\n"
                                "species X color=red\n")
        assert network.get_species("X").color == "red"

    def test_malformed_rate(self):
        with pytest.raises(ParseError) as info:
            parse_network("A -> B @ 1.2.3\n")
        assert info.value.line_no == 1
        assert "cannot parse rate '1.2.3'" in str(info.value)

    def test_unknown_color_tag(self):
        with pytest.raises(ParseError) as info:
            parse_network("A -> B\nspecies Q color=teal\n")
        assert info.value.line_no == 2
        assert "unknown colour 'teal'" in str(info.value)
        assert "species Q color=teal" in str(info.value)

    def test_provenance_recorded(self):
        network = parse_network("species X color=red\n"
                                "A <-> B @ fast / slow\n")
        assert network.provenance[("species", "X")] == 1
        assert network.provenance[("reaction", 0)] == 2
        assert network.provenance[("reaction", 1)] == 2

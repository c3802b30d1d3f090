"""Tests for the static checks of synthesized circuits: the four lint
rules that check a circuit against the paper's protocol."""

from fractions import Fraction

from repro.core.dfg import SignalFlowGraph
from repro.core.synthesis import synthesize
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.lint import LintConfig, lint_circuit

#: Parking, gate legality, coefficient realisation and implementability.
CIRCUIT_RULES = LintConfig(select=frozenset({
    "parking", "gate-legality", "coefficient-realisation",
    "implementability"}))


def _lint(circuit):
    return lint_circuit(circuit, CIRCUIT_RULES)


def _messages(diagnostics) -> list[str]:
    return [diagnostic.message for diagnostic in diagnostics]


class TestCleanCircuits:
    def test_ma2_verifies(self, ma2_sfg):
        report = _lint(synthesize(ma2_sfg))
        assert report.ok, report.summary()
        assert len(report.checked) == 4

    def test_signed_design_verifies(self, diff_sfg):
        assert _lint(synthesize(diff_sfg)).ok

    def test_iir_verifies(self, iir1_sfg):
        assert _lint(synthesize(iir1_sfg)).ok

    def test_check_circuit_passes_silently(self, ma2_sfg):
        report = _lint(synthesize(ma2_sfg))
        assert report.diagnostics == []
        assert report.exit_code() == 0


class TestInjectedFaults:
    def test_parked_species_detected(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        # Add a coloured species with no way out of its colour.
        circuit.network.add_species(Species("orphan", color="red"))
        circuit.network.add(None, "orphan", "slow")
        report = _lint(circuit)
        assert not report.ok
        assert any("orphan" in error for error in _messages(report.errors))

    def test_wrong_gate_detected(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        # A red source gated by r (its own colour) that *consumes* the
        # source without being a scavenger (it has another product).
        circuit.network.add_reaction(Reaction(
            {Species("r"): 1, Species("s_x_p", color="red"): 1},
            {Species("r"): 1, Species("c_x__y_p", color="green"): 1},
            "slow", label="bad gate"))
        report = _lint(circuit)
        assert not report.ok
        assert any("assigns" in error
                   for error in _messages(report.errors))

    def test_color_skip_detected(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        circuit.network.add_reaction(Reaction(
            {Species("b"): 1, Species("s_x_p", color="red"): 1},
            {Species("a_y_p", color="blue"): 1},
            "slow", label="skip a colour"))
        report = _lint(circuit)
        assert not report.ok
        assert any("adjacent" in error
                   for error in _messages(report.errors))

    def test_wrong_coefficient_detected(self):
        sfg = SignalFlowGraph("gain")
        x = sfg.input("x")
        sfg.output("y", sfg.gain(Fraction(1, 2), x))
        circuit = synthesize(sfg)
        # Sabotage the gain's closing reaction: produce 2 instead of 1.
        for index, reaction in enumerate(circuit.network.reactions):
            if "close" in reaction.label:
                circuit.network.reactions[index] = Reaction(
                    reaction.reactants,
                    {Species("a_y_p", color="blue"): 2},
                    reaction.rate, label=reaction.label)
        report = _lint(circuit)
        assert not report.ok
        assert any("realise" in error
                   for error in _messages(report.errors))

    def test_check_circuit_raises(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        circuit.network.add_species(Species("orphan", color="blue"))
        report = _lint(circuit)
        assert report.exit_code() == 1
        assert [d.code for d in report.errors] == ["REPRO-E101"]


class TestImplementability:
    def test_trimolecular_warns(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        circuit.network.add(
            {"s_x_p": 1, "c_x__y_p": 1, "a_y_p": 1}, {"a_y_p": 2}, "fast")
        report = _lint(circuit)
        assert any("trimolecular" in warning
                   for warning in _messages(report.warnings))

    def test_order_four_errors(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        circuit.network.add({"s_x_p": 4}, {"a_y_p": 1}, "fast")
        report = _lint(circuit)
        assert any("order 4" in error
                   for error in _messages(report.errors))

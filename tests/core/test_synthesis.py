"""Unit tests for the synthesis flow (structure, not dynamics)."""

from fractions import Fraction

import pytest

from repro.crn.species import Species
from repro.core.dfg import SignalFlowGraph
from repro.core.synthesis import synthesize
from repro.errors import SynthesisError


class TestBasicStructure:
    def test_unsigned_design_single_rail(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        assert not circuit.signed
        assert circuit.rails() == ("p",)
        assert "s_x_p" in circuit.network
        assert "s_x_n" not in circuit.network

    def test_signed_design_dual_rail(self, diff_sfg):
        circuit = synthesize(diff_sfg)
        assert circuit.signed
        assert "s_x_n" in circuit.network
        assert "s_d_n" in circuit.network

    def test_signed_required_for_negative_coeffs(self, diff_sfg):
        with pytest.raises(SynthesisError):
            synthesize(diff_sfg, signed=False)

    def test_clock_included_and_finalized(self, ma2_sfg):
        circuit = synthesize(ma2_sfg, clock_mass=15.0)
        assert circuit.network.get_initial("C_red") == 15.0
        assert circuit.protocol.finalized
        for indicator in ("r", "g", "b"):
            assert indicator in circuit.network

    def test_initial_state_lands_on_register(self):
        sfg = SignalFlowGraph("init")
        x = sfg.input("x")
        sfg.delay("d", source=x, initial=3.0)
        sfg.output("y", x)
        circuit = synthesize(sfg)
        assert circuit.network.get_initial("s_d_p") == 3.0


class TestFanout:
    def test_single_reaction_per_source_rail(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        fanouts = [r for r in circuit.network.reactions
                   if r.reactants.get(Species("s_x_p"))]
        # Exactly one reaction consumes the source (plus indicator
        # consumption/scavenging which are catalytic or indicator-led).
        consuming = [r for r in fanouts
                     if not r.is_catalytic_in("s_x_p")
                     and "scavenges" not in r.label]
        assert len(consuming) == 1
        products = {s.name for s in consuming[0].products}
        assert "c_x__y_p" in products and "c_x__d1_p" in products

    def test_unused_source_gets_waste_drain(self):
        sfg = SignalFlowGraph("waste")
        x = sfg.input("x")
        d = sfg.delay("d", source=x)  # d's output feeds nothing
        del d
        sfg.output("y", x)
        circuit = synthesize(sfg)
        assert "w_d_p" in circuit.network


class TestGains:
    def test_integer_gain_is_direct(self):
        sfg = SignalFlowGraph("g3")
        x = sfg.input("x")
        sfg.output("y", sfg.gain(3, x))
        circuit = synthesize(sfg)
        gain = [r for r in circuit.network.reactions
                if "gain" in r.label and "seed" not in r.label]
        assert any(r.products.get(Species("a_y_p")) == 3 for r in gain)
        assert "h1_c_x__y_p" not in circuit.network

    def test_fractional_gain_linearised(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        # 1/2 gains create one pairing stage per edge.
        assert "h1_c_x__y_p" in circuit.network
        close = [r for r in circuit.network.reactions
                 if "close" in r.label]
        assert close
        for reaction in close:
            assert reaction.rate == "fast"

    def test_quarter_gain_has_three_stages(self):
        sfg = SignalFlowGraph("q4")
        x = sfg.input("x")
        sfg.output("y", sfg.gain(Fraction(1, 4), x))
        circuit = synthesize(sfg)
        for i in (1, 2, 3):
            assert f"h{i}_c_x__y_p" in circuit.network

    def test_stage_species_uncolored(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        assert circuit.network.get_species("h1_c_x__y_p").color is None


class TestOutputsAndAnnihilation:
    def test_outputs_drain_not_land(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        assert "y_y_p" in circuit.network
        assert "o_y_p" not in circuit.network
        drains = [r for r in circuit.network.reactions
                  if r.products.get(Species("y_y_p"))]
        assert drains and all(r.is_catalytic_in("g") for r in drains)

    def test_annihilation_pairs_for_signed(self, diff_sfg):
        circuit = synthesize(diff_sfg)
        annihilations = [r for r in circuit.network.reactions
                         if not r.products
                         and r.reactants.get(Species("a_y_p"))
                         and r.reactants.get(Species("a_y_n"))]
        assert annihilations

    def test_readout_value_accounting(self, ma2_sfg):
        circuit = synthesize(ma2_sfg)
        values = {"y_y_p": 5.0, "a_y_p": 1.0}
        assert _evaluate(circuit.readout_terms("y"), values) == \
            pytest.approx(6.0)

    def test_state_value_signed(self, diff_sfg):
        circuit = synthesize(diff_sfg)
        values = {"s_d_p": 2.0, "s_d_n": 5.0}
        assert _evaluate(circuit.register_terms("d"), values) == \
            pytest.approx(-3.0)


def _evaluate(terms, values) -> float:
    """``(species, coefficient)`` terms summed over named quantities."""
    total = 0.0
    for species, coefficient in terms:
        total += coefficient * values.get(species, 0.0)
    return total

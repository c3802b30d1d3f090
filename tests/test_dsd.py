"""Tests for the DNA strand displacement compilation."""

import pytest

from repro import simulate
from repro.crn.network import Network
from repro.crn.simulation.ode import OdeSimulator
from repro.dsd import (Complex, DsdCompiler, Strand, compile_network,
                       recognition, toehold)
from repro.errors import NetworkError


class TestStructures:
    def test_domain_complement_involution(self):
        d = toehold("t1")
        assert d.complement.complement == d
        assert d.is_complement_of(d.complement)
        assert not d.is_complement_of(d)

    def test_domain_lengths(self):
        assert toehold("t").length == 6
        assert recognition("x").length == 15

    def test_strand_length(self):
        strand = Strand("s", (toehold("t"), recognition("x")))
        assert strand.length == 21
        assert "5'-t-x-3'" in str(strand)

    def test_complex_validation(self):
        top = Strand("top", (toehold("t"),))
        bottom = Strand("bot", (toehold("t").complement,))
        good = Complex("g", (bottom, top), bound=(((1, 0), (0, 0)),))
        good.validate()
        bad = Complex("b", (top, top), bound=(((1, 0), (0, 0)),))
        with pytest.raises(NetworkError):
            bad.validate()

    def test_empty_strand_rejected(self):
        with pytest.raises(NetworkError):
            Strand("s", ())


class TestCompilerStructure:
    def _source_network(self):
        network = Network("toy")
        network.add(None, "A", 2.0)            # zeroth order
        network.add("A", "B", 1.0)             # unimolecular
        network.add({"A": 1, "B": 1}, "C", 0.5)  # bimolecular
        network.set_initial("A", 5.0)
        return network

    def test_formal_species_preserved(self):
        compilation = compile_network(self._source_network())
        for name in ("A", "B", "C"):
            assert name in compilation.network
        assert compilation.network.get_initial("A") == 5.0

    def test_fuels_buffered_at_cmax(self):
        compilation = compile_network(self._source_network(), c_max=500.0)
        assert compilation.fuel_species
        for fuel in compilation.fuel_species:
            assert compilation.network.get_initial(fuel) == 500.0

    def test_expansion_factor(self):
        compilation = compile_network(self._source_network())
        assert compilation.expansion_factor > 1.5

    def test_inventory_populated(self):
        compilation = compile_network(self._source_network())
        assert len(compilation.inventory.signal_strands) >= 3
        assert compilation.inventory.fuel_complexes
        assert compilation.inventory.total_nucleotides > 0

    def test_high_order_rejected(self):
        network = Network()
        network.add({"A": 2, "B": 2}, "C", 1.0)
        with pytest.raises(NetworkError):
            compile_network(network)

    def test_invalid_cmax(self):
        with pytest.raises(NetworkError):
            DsdCompiler(c_max=0.0)


class TestCompiledKinetics:
    def test_unimolecular_rate_preserved(self):
        network = Network()
        network.add("A", "B", 0.8)
        network.set_initial("A", 10.0)
        ideal = simulate(network, 3.0)
        compiled = compile_network(network, c_max=10_000.0)
        trajectory = OdeSimulator(compiled.network, method="BDF",
                                  rtol=1e-6).simulate(3.0)
        assert trajectory.final("B") == pytest.approx(
            ideal.final("B"), rel=0.02)

    def test_bimolecular_rate_preserved(self):
        network = Network()
        network.add({"A": 1, "B": 1}, "C", 0.3)
        network.set_initial("A", 8.0)
        network.set_initial("B", 5.0)
        ideal = simulate(network, 2.0)
        compiled = compile_network(network, c_max=10_000.0)
        trajectory = OdeSimulator(compiled.network, method="BDF",
                                  rtol=1e-6).simulate(2.0)
        assert trajectory.final("C") == pytest.approx(
            ideal.final("C"), rel=0.05)

    def test_zeroth_order_flux_with_depletion(self):
        network = Network()
        network.add(None, "X", 2.0)
        compiled = compile_network(network, c_max=1000.0)
        trajectory = OdeSimulator(compiled.network, method="BDF").simulate(
            5.0)
        # Flux ~2/time while fuel is fresh.
        assert trajectory.final("X") == pytest.approx(10.0, rel=0.05)
        assert compiled.fuel_depletion(trajectory) > 0.0

    def test_trimolecular_decomposition(self):
        network = Network()
        network.add({"A": 1, "B": 1, "C": 1}, "D", 0.2)
        for name, value in [("A", 6.0), ("B", 6.0), ("C", 6.0)]:
            network.set_initial(name, value)
        ideal = simulate(network, 1.0)
        compiled = compile_network(network, c_max=10_000.0)
        trajectory = OdeSimulator(compiled.network, method="BDF",
                                  rtol=1e-6).simulate(1.0)
        assert trajectory.final("D") == pytest.approx(
            ideal.final("D"), rel=0.1)

    def test_fidelity_improves_with_cmax(self):
        network = Network()
        network.add({"A": 1, "B": 1}, "C", 0.5)
        network.set_initial("A", 10.0)
        network.set_initial("B", 10.0)
        ideal = simulate(network, 2.0).final("C")
        errors = []
        for c_max in (300.0, 30_000.0):
            compiled = compile_network(network, c_max=c_max)
            trajectory = OdeSimulator(compiled.network, method="BDF",
                                      rtol=1e-6).simulate(2.0)
            errors.append(abs(trajectory.final("C") - ideal))
        assert errors[1] < errors[0]

    def test_delay_element_through_dsd(self):
        """End-to-end: one phase-protocol delay element survives
        compilation to strand displacement."""
        from repro.core.analysis import effective_value
        from repro.core.memory import build_delay_chain

        network, _, _ = build_delay_chain(n=1, initial=20.0)
        compiled = compile_network(network, c_max=10_000.0)
        trajectory = OdeSimulator(compiled.network, method="BDF",
                                  rtol=1e-5, atol=1e-8).simulate(
            25.0, n_samples=30)
        assert effective_value(trajectory, "Y") == pytest.approx(
            20.0, rel=0.05)

    def test_mass_action_conservation_of_signals(self):
        network = Network()
        network.add("A", "B", 1.0)
        network.set_initial("A", 10.0)
        compiled = compile_network(network, c_max=10_000.0)
        trajectory = OdeSimulator(compiled.network, method="BDF").simulate(
            5.0)
        total = trajectory.final("A") + trajectory.final("B")
        # A unit in flight may sit in O_* briefly; at the end it is all B.
        assert total == pytest.approx(10.0, rel=0.02)

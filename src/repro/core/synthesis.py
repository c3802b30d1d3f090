"""Synthesis flow: matrix-form design -> chemical reaction network.

Every linear synchronous design (see :mod:`repro.core.dfg`) maps onto one
three-phase cycle:

phase 1, red -> green (fan-out)
    each source quantity is copied, in a *single* reaction, into one green
    copy type per sink it feeds.  Using one reaction per source (rather
    than one per edge) is essential: competing transfers out of the same
    type would split the quantity rate-dependently.

phase 2, green -> blue (gain + add)
    each copy is scaled by its exact rational coefficient ``p/q``
    stoichiometrically (``q`` copies consumed, ``p`` produced) into the
    sink's blue accumulator; addition is just several transfers producing
    the same accumulator.

phase 3, blue -> red (land / read out)
    each delay accumulator lands in its register's red type (read as a
    source next cycle); each *output* accumulator instead drains straight
    out of the rotation into an uncoloured readout pool.  Outputs must not
    land in a standing red register: such a register would deadlock
    against the red-absence indicator that is supposed to flush it.

Signed signals use dual rails (``_p`` / ``_n``): a value is the difference
of its two rail quantities, negative coefficients cross the rails, and
fast annihilation reactions keep the rails bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from repro.crn.network import Network
from repro.crn.species import Species
from repro.core.clock import Clock, make_clock
from repro.core.dfg import MatrixDesign, SignalFlowGraph
from repro.core.phases import PhaseProtocol
from repro.errors import SynthesisError

RAILS = ("p", "n")


@dataclass
class SynthesizedCircuit:
    """A synthesized design: the network plus its species bookkeeping."""

    design: MatrixDesign
    network: Network
    protocol: PhaseProtocol
    clock: Clock
    signed: bool
    source_species: dict[str, dict[str, str]] = field(default_factory=dict)
    readout_species: dict[str, dict[str, str]] = field(default_factory=dict)

    def rails(self) -> tuple[str, ...]:
        return RAILS if self.signed else ("p",)

    # A value read off a state is a list of ``(species, coefficient)``
    # terms added left to right from 0.0; a machine template resolves
    # them to species indices and evaluates them (``Terms``).

    def _signed(self, species: str, sign: float) -> list[tuple[str, float]]:
        """``species`` and, if present, its ``I_`` dimer weighed twice."""
        dimer = f"I_{species}"
        return [(species, sign)] + (
            [(dimer, sign * 2.0)] if dimer in self.network else [])

    def register_terms(self, name: str) -> list[tuple[str, float]]:
        """Terms of a delay register's effective (dimer-inclusive) value,
        signed across rails."""
        return [term for rail, sign in (("p", 1.0), ("n", -1.0))
                if rail in self.rails()
                for term in self._signed(self.source_species[name][rail],
                                         sign)]

    def readout_terms(self, name: str) -> list[tuple[str, float]]:
        """Terms of an output's cumulative readout (see machine driver).

        Everything already destined for the output counts with weight
        one: the uncoloured readout pool plus the in-flight blue
        accumulator (and its dimer in companion mode), signed across
        rails.  Counting the in-flight accumulator makes the cumulative
        readout invariant to exactly where within the boundary tolerance
        the cycle event fired.
        """
        terms = []
        for rail, sign in (("p", 1.0), ("n", -1.0)):
            acc = _acc_name(name, rail)
            if rail in self.rails():
                terms += [(self.readout_species[name][rail], sign),
                          *(self._signed(acc, sign)
                            if acc in self.network else ())]
        return terms

    def clock_terms(self) -> list[tuple[str, float]]:
        """Terms of the clock's conserved total: each colour, then the
        red dimer (consuming gating parks clock red in it)."""
        return [*((name, 1.0) for name in self.clock.species_names()),
                *self._signed(self.clock.red.name, 1.0)[1:]]


def synthesize(design: MatrixDesign | SignalFlowGraph,
               clock_mass: float = 20.0,
               signed: bool | None = None,
               gating: str = "catalytic",
               protocol: PhaseProtocol | None = None,
               oscillator: str = "molecular") -> SynthesizedCircuit:
    """Compile a design to a finalized reaction network with a clock.

    ``oscillator`` names a registered clock chemistry (see
    :func:`repro.core.clock.make_clock`); every registered oscillator
    drives the same three-colour protocol, so the rest of the synthesis
    is oscillator-agnostic.
    """
    if isinstance(design, SignalFlowGraph):
        design = design.to_matrix()
    design.validate()
    if signed is None:
        signed = design.signed
    if design.signed and not signed:
        raise SynthesisError(
            "design has negative coefficients; signed mode is required")

    network = Network(design.name)
    protocol = protocol or PhaseProtocol(gating=gating)
    rails = RAILS if signed else ("p",)

    circuit = SynthesizedCircuit(design=design, network=network,
                                 protocol=protocol,
                                 clock=make_clock(oscillator,
                                                  mass=clock_mass),
                                 signed=signed)

    _declare_species(circuit, rails)
    _build_fanout(circuit, rails)
    _build_gains(circuit, rails)
    _build_landing(circuit, rails)
    _build_readout(circuit, rails)
    if signed:
        _build_annihilation(circuit)

    circuit.clock.build(network, protocol)
    protocol.finalize(network)
    for name, value in design.initial_state.items():
        rail = "p" if value >= 0 else "n"
        if rail == "n" and not signed:
            raise SynthesisError(
                f"negative initial state for {name!r} in unsigned design")
        network.set_initial(circuit.source_species[name][rail], abs(value))
    network.validate()
    return circuit


# -- naming -------------------------------------------------------------------------

def _source_name(source: str, rail: str) -> str:
    return f"s_{source}_{rail}"


def _copy_name(source: str, sink: str, rail: str) -> str:
    return f"c_{source}__{sink}_{rail}"


def _acc_name(sink: str, rail: str) -> str:
    return f"a_{sink}_{rail}"


def _readout_name(output: str, rail: str) -> str:
    return f"y_{output}_{rail}"


def _waste_name(source: str, rail: str) -> str:
    return f"w_{source}_{rail}"


# -- construction stages ---------------------------------------------------------------

def _declare_species(circuit: SynthesizedCircuit, rails) -> None:
    design, network = circuit.design, circuit.network
    for source in design.sources:
        circuit.source_species[source] = {
            rail: network.add_species(
                Species(_source_name(source, rail), color="red")).name
            for rail in rails}
    for output in design.outputs:
        circuit.readout_species[output] = {
            rail: network.add_species(
                Species(_readout_name(output, rail), role="aux")).name
            for rail in rails}


def _build_fanout(circuit: SynthesizedCircuit, rails) -> None:
    """Phase 1: one reaction per source rail copying into all its edges."""
    design, network, protocol = (circuit.design, circuit.network,
                                 circuit.protocol)
    for source in design.sources:
        sinks = design.fanout_of(source)
        for rail in rails:
            source_species = circuit.source_species[source][rail]
            if not sinks:
                # Unused source: still must leave the rotation each cycle.
                protocol.add_drain(network, source_species,
                                   _waste_name(source, rail),
                                   label=f"waste {source}")
                continue
            products = {Species(_copy_name(source, sink, rail),
                                color="green"): 1
                        for sink in sinks}
            protocol.add_transfer(network, source_species, products,
                                  label=f"fanout {source} ({rail})")


def _build_gains(circuit: SynthesizedCircuit, rails) -> None:
    """Phase 2: rational gains into sink accumulators; adds merge.

    A gain ``p/q`` must consume ``q`` copies per ``p`` produced.  Writing
    it as one reaction of order ``q`` (``q c -> p a``) is correct but has
    mass-action rate ~``[c]**q``: its leak through a closed gate scales
    like the q-th power of the signal value (fatal -- observed as early
    blues killing the phase-1 gate), and its tail decays only as a power
    law.  Instead the division is *linearised*: a gated seed grabs one
    unit at a time and fast pairing reactions complete the q-unit bite::

        gate + c -> gate + h_1      (slow; rate ~ [c], gated)
        h_i + c  -> h_{i+1}         (fast)             i = 1..q-2
        h_{q-1} + c -> p a          (fast)

    The intermediates ``h_i`` hold at most ~``amp/k_fast`` quantity (seed
    influx over pairing outflux), within the protocol's quantisation
    floor.
    """
    design, network, protocol = (circuit.design, circuit.network,
                                 circuit.protocol)
    for (sink, source), coeff in sorted(design.coefficients.items()):
        magnitude: Fraction = abs(coeff)
        q, p = magnitude.denominator, magnitude.numerator
        for rail in rails:
            copy_species = _copy_name(source, sink, rail)
            target_rail = rail if coeff > 0 else _opposite(rail)
            if target_rail not in rails:
                raise SynthesisError(
                    f"negative coefficient for ({sink}, {source}) in "
                    f"unsigned synthesis")
            acc = Species(_acc_name(sink, target_rail), color="blue")
            label = f"gain {coeff} {source}->{sink} ({rail})"
            if q == 1:
                protocol.add_transfer(
                    network, Species(copy_species, color="green"), {acc: p},
                    label=label)
            else:
                _build_divided_gain(circuit, copy_species, acc, p, q, label)


def _build_divided_gain(circuit: SynthesizedCircuit, copy_species: str,
                        acc: Species, p: int, q: int, label: str) -> None:
    """Linearised ``q c -> p a`` (see :func:`_build_gains`)."""
    from repro.core.phases import CATALYTIC
    from repro.crn.reaction import Reaction

    network, protocol = circuit.network, circuit.protocol
    copy = network.add_species(Species(copy_species, color="green"))
    acc = network.add_species(acc)
    gate = network.add_species(protocol.gate_indicator("green"))
    # The stage intermediates are deliberately *uncoloured*: they hold at
    # most ~amp/k_fast quantity, and colouring them would add one more
    # near-threshold residue per gain to the absence detection of some
    # colour.  The price is that a leftover stage unit completes its bite
    # with the next cycle's copies -- an inter-sample smear bounded by the
    # quantisation floor.
    stages = [network.add_species(Species(f"h{i}_{copy_species}",
                                          role="aux"))
              for i in range(1, q)]
    seed_products = {stages[0]: 1}
    if protocol.gating == CATALYTIC:
        seed_products[gate] = 1
    network.add_reaction(Reaction({gate: 1, copy: 1}, seed_products,
                                  protocol.transfer_rate,
                                  label=f"{label} seed"))
    for i in range(1, q - 1):
        network.add_reaction(Reaction(
            {stages[i - 1]: 1, copy: 1}, {stages[i]: 1},
            protocol.consumption_rate, label=f"{label} pair {i}"))
    network.add_reaction(Reaction(
        {stages[-1]: 1, copy: 1}, {acc: p},
        protocol.consumption_rate, label=f"{label} close"))


def _build_landing(circuit: SynthesizedCircuit, rails) -> None:
    """Phase 3: delay accumulators land in their registers."""
    design, network, protocol = (circuit.design, circuit.network,
                                 circuit.protocol)
    for sink in design.delays:
        for rail in rails:
            acc = Species(_acc_name(sink, rail), color="blue")
            if acc.name not in set(network.species_names):
                continue  # nothing feeds this accumulator on this rail
            target = circuit.source_species[sink][rail]
            protocol.add_transfer(network, acc,
                                  Species(target, color="red"),
                                  label=f"land {sink} ({rail})")


def _build_readout(circuit: SynthesizedCircuit, rails) -> None:
    """Phase 3: output accumulators drain to the readout pools."""
    design, network, protocol = (circuit.design, circuit.network,
                                 circuit.protocol)
    for output in design.outputs:
        for rail in rails:
            acc = _acc_name(output, rail)
            if acc not in set(network.species_names):
                network.add_species(Species(acc, color="blue"))
            protocol.add_drain(network, acc,
                               circuit.readout_species[output][rail],
                               label=f"readout {output} ({rail})")


def _build_annihilation(circuit: SynthesizedCircuit) -> None:
    """Fast p/n annihilation on every dual-rail pair that can hold mass."""
    design, network, protocol = (circuit.design, circuit.network,
                                 circuit.protocol)
    pairs: list[tuple[str, str]] = []
    for source in design.sources:
        pairs.append((circuit.source_species[source]["p"],
                      circuit.source_species[source]["n"]))
    for sink in design.sinks:
        p_name, n_name = _acc_name(sink, "p"), _acc_name(sink, "n")
        existing = set(network.species_names)
        if p_name in existing and n_name in existing:
            pairs.append((p_name, n_name))
    for positive, negative in pairs:
        protocol.add_annihilation(network, positive, negative,
                                  label=f"annihilate {positive}/{negative}")


def _opposite(rail: str) -> str:
    return "n" if rail == "p" else "p"

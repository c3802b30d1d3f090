"""Structural analysis of chemical reaction networks.

Classical CRN-theory inspections used by the verification layer and the
documentation: species-reaction graphs, linkage classes, deficiency,
reversibility, and catalytic structure.  These operate purely on
stoichiometry -- no simulation involved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.crn.network import Network
from repro.crn.species import as_species

if TYPE_CHECKING:
    import networkx as nx

# networkx is imported by the graph analyses themselves, at first use:
# it takes a third of a second, and simulating needs none of them.


def species_reaction_graph(network: Network) -> nx.DiGraph:
    """Bipartite digraph: species -> reactions they feed -> products.

    Species nodes carry ``kind="species"`` (plus colour/role metadata);
    reaction nodes carry ``kind="reaction"`` and the reaction index.
    """
    import networkx as nx

    graph = nx.DiGraph()
    for species in network.species:
        graph.add_node(f"S:{species.name}", kind="species",
                       color=species.color, role=species.role)
    for index, reaction in enumerate(network.reactions):
        node = f"R:{index}"
        graph.add_node(node, kind="reaction", rate=reaction.rate,
                       label=reaction.label)
        for species, coeff in reaction.reactants.items():
            graph.add_edge(f"S:{species.name}", node, coeff=coeff)
        for species, coeff in reaction.products.items():
            graph.add_edge(node, f"S:{species.name}", coeff=coeff)
    return graph


def reachable_species(network: Network,
                      sources: "list | None" = None) -> set[str]:
    """Species producible (transitively) from the given source species.

    A reaction fires only if *all* its reactants are available -- pure
    catalysts included -- so the closure iterates to a fixed point rather
    than walking edges blindly.  Zeroth-order reactions need no reactants
    and are always available.

    ``sources`` accepts species objects or names; ``None`` seeds the
    closure from every species with a non-zero initial quantity (so a
    pure catalyst whose only supply is its initial condition correctly
    enables its reactions).
    """
    if sources is None:
        sources = [name for name, value in network.initial.items()
                   if value > 0]
    available = {as_species(source).name for source in sources}
    changed = True
    while changed:
        changed = False
        for reaction in network.reactions:
            if all(s.name in available for s in reaction.reactants):
                for product in reaction.products:
                    if product.name not in available:
                        available.add(product.name)
                        changed = True
    return available


def external_species(network: Network) -> set[str]:
    """Species never net-produced by any reaction.

    These can only enter the system from outside -- initial conditions
    or driver-injected inputs -- so reachability analyses treat them as
    potentially available.  Pure catalysts (only ever appearing on both
    sides) are external by this definition: nothing manufactures them.
    """
    produced: set[str] = set()
    for reaction in network.reactions:
        for species, change in reaction.net_change().items():
            if change > 0:
                produced.add(species.name)
    return set(network.species_names) - produced


def complexes(network: Network) -> list[frozenset[tuple[str, int]]]:
    """The distinct complexes (multisets of species) of the network."""
    seen: list[frozenset[tuple[str, int]]] = []
    for reaction in network.reactions:
        for side in (reaction.reactants, reaction.products):
            key = frozenset((s.name, c) for s, c in side.items())
            if key not in seen:
                seen.append(key)
    return seen


def complex_graph(network: Network) -> nx.DiGraph:
    """Digraph on complexes with one edge per reaction."""
    import networkx as nx

    graph = nx.DiGraph()
    index = {key: i for i, key in enumerate(complexes(network))}
    for key in index:
        graph.add_node(index[key], complex=key)
    for reaction in network.reactions:
        source = frozenset((s.name, c)
                           for s, c in reaction.reactants.items())
        target = frozenset((s.name, c)
                           for s, c in reaction.products.items())
        graph.add_edge(index[source], index[target])
    return graph


def linkage_classes(network: Network) -> int:
    """Number of connected components of the complex graph."""
    import networkx as nx

    graph = complex_graph(network).to_undirected()
    return nx.number_connected_components(graph)


def deficiency(network: Network) -> int:
    """Feinberg deficiency:  #complexes - #linkage classes - rank(S)."""
    n_complexes = len(complexes(network))
    rank = int(np.linalg.matrix_rank(network.stoichiometry_matrix()))
    return n_complexes - linkage_classes(network) - rank


def is_weakly_reversible(network: Network) -> bool:
    """True if every reaction lies on a directed cycle of complexes."""
    import networkx as nx

    graph = complex_graph(network)
    components = list(nx.strongly_connected_components(graph))
    component_of = {}
    for i, component in enumerate(components):
        for node in component:
            component_of[node] = i
    return all(component_of[u] == component_of[v]
               for u, v in graph.edges)


@dataclass
class CatalyticSummary:
    """Which species act as pure catalysts / pure products / consumed."""

    catalysts: set[str]
    sources_only: set[str]
    sinks_only: set[str]

    def __contains__(self, name: str) -> bool:
        return name in self.catalysts


def catalytic_summary(network: Network) -> CatalyticSummary:
    """Classify species by how the reaction set treats them."""
    consumed: set[str] = set()
    produced: set[str] = set()
    catalytic: set[str] = set()
    for reaction in network.reactions:
        delta = reaction.net_change()
        for species in reaction.species:
            change = delta.get(species, 0)
            if change < 0:
                consumed.add(species.name)
            elif change > 0:
                produced.add(species.name)
            elif reaction.is_catalytic_in(species):
                catalytic.add(species.name)
    pure_catalysts = catalytic - consumed - produced
    return CatalyticSummary(
        catalysts=pure_catalysts,
        sources_only=produced - consumed,
        sinks_only=consumed - produced)


def stranded_species(network: Network,
                     sources: "list | None" = None) -> set[str]:
    """Species that some reaction produces but nothing ever consumes
    (other than catalytically) -- quantity parks there forever.

    Legitimate for readout accumulators and wastes; a bug for anything
    colour-coded (see :mod:`repro.lint`).

    With the default ``sources=None`` the check is purely stoichiometric:
    every reaction counts as a potential consumer.  Passing an iterable
    of available species (or names) restricts the analysis to *fireable*
    reactions -- those whose reactants are in the reachable closure of
    ``sources`` -- which catches the zeroth-order trap where a source
    species' only consumer is gated on a catalyst that is never
    available:

        -> X @ slow           # X generated forever
        X + Y -> Y @ fast     # ...but Y has no supply: X parks

    Stoichiometrically X looks consumed; with ``sources=[]`` (or any
    seed that cannot produce ``Y``) it is correctly reported stranded.
    """
    if sources is None:
        summary = catalytic_summary(network)
        return summary.sources_only
    reach = reachable_species(network, sources)
    produced: set[str] = set()
    consumed: set[str] = set()
    for reaction in network.reactions:
        if not all(s.name in reach for s in reaction.reactants):
            continue  # can never fire: not a real producer or consumer
        for species, change in reaction.net_change().items():
            if change > 0:
                produced.add(species.name)
            elif change < 0:
                consumed.add(species.name)
    return produced - consumed


def reaction_order_histogram(network: Network) -> dict[int, int]:
    """How many reactions of each molecularity the network uses --
    relevant to implementability (DSD compiles orders <= 3)."""
    histogram: dict[int, int] = {}
    for reaction in network.reactions:
        histogram[reaction.order] = histogram.get(reaction.order, 0) + 1
    return histogram

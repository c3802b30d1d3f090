"""Chemical reactions with integer stoichiometry and symbolic rates."""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

from repro.crn.species import Species, as_species
from repro.errors import NetworkError

SpeciesLike = Species | str


def _normalize_side(side) -> dict[Species, int]:
    """Coerce a reaction side to ``{Species: coefficient}``.

    Accepts ``None`` (empty side), a single species/name, an iterable of
    species/names (duplicates accumulate), or a mapping from species/name
    to coefficient.
    """
    result: Counter[Species] = Counter()
    if side is None:
        return dict(result)
    if isinstance(side, (Species, str)):
        result[as_species(side)] += 1
        return dict(result)
    if isinstance(side, Mapping):
        for key, coeff in side.items():
            coeff = int(coeff)
            if coeff < 0:
                raise NetworkError(f"negative stoichiometry for {key}")
            if coeff:
                result[as_species(key)] += coeff
        return dict(result)
    if isinstance(side, Iterable):
        for item in side:
            result[as_species(item)] += 1
        return dict(result)
    raise NetworkError(f"cannot interpret reaction side: {side!r}")


def _format_side(side: dict[Species, int]) -> str:
    if not side:
        return "0"
    terms = []
    for species in sorted(side, key=lambda s: s.name):
        coeff = side[species]
        terms.append(species.name if coeff == 1 else f"{coeff} {species.name}")
    return " + ".join(terms)


@dataclass(frozen=True)
class Reaction:
    """A single irreversible reaction with mass-action kinetics.

    Parameters
    ----------
    reactants, products:
        either ``{species: coeff}`` mappings, iterables of species (with
        repetition for coefficients), a single species, or ``None`` for the
        empty side (zeroth-order source / degradation sink).
    rate:
        a numeric rate constant or a symbolic category name (``"fast"`` /
        ``"slow"``) resolved at simulation time by a
        :class:`~repro.crn.rates.RateScheme`.
    label:
        optional human-readable tag used in debug output and reports.
    """

    reactants: dict[Species, int]
    products: dict[Species, int]
    rate: float | str = "slow"
    label: str = field(default="", compare=False)

    def __init__(self, reactants, products, rate: float | str = "slow",
                 label: str = ""):
        object.__setattr__(self, "reactants", _normalize_side(reactants))
        object.__setattr__(self, "products", _normalize_side(products))
        if not isinstance(rate, str):
            rate = float(rate)
            if rate < 0:
                raise NetworkError("rate constant must be non-negative")
        object.__setattr__(self, "rate", rate)
        object.__setattr__(self, "label", label)
        if not self.reactants and not self.products:
            raise NetworkError("reaction with both sides empty")

    # -- structural queries -------------------------------------------------

    @property
    def order(self) -> int:
        """Total molecularity of the reactant side (0, 1, 2, ...)."""
        return sum(self.reactants.values())

    @property
    def species(self) -> set[Species]:
        """All species appearing on either side."""
        return set(self.reactants) | set(self.products)

    def net_change(self) -> dict[Species, int]:
        """Net stoichiometric change per firing (products - reactants)."""
        delta: Counter[Species] = Counter()
        for species, coeff in self.products.items():
            delta[species] += coeff
        for species, coeff in self.reactants.items():
            delta[species] -= coeff
        return {s: c for s, c in delta.items() if c}

    def is_catalytic_in(self, species: SpeciesLike) -> bool:
        """True if ``species`` appears equally on both sides."""
        species = as_species(species)
        return (self.reactants.get(species, 0) ==
                self.products.get(species, 0) != 0)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        rate = self.rate if isinstance(self.rate, str) else f"{self.rate:g}"
        text = (f"{_format_side(self.reactants)} -> "
                f"{_format_side(self.products)} @ {rate}")
        if self.label:
            text = f"{text}  # {self.label}"
        return text

    def __hash__(self) -> int:
        return hash((frozenset(self.reactants.items()),
                     frozenset(self.products.items()), self.rate))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Reaction):
            return NotImplemented
        return (self.reactants == other.reactants
                and self.products == other.products
                and self.rate == other.rate)


def reversible(reactants, products, forward: float | str,
               backward: float | str, label: str = "") -> list[Reaction]:
    """Build the pair of reactions for a reversible transformation.

    The paper's positive-feedback constructs use reversible dimerisation
    ``2 G_i <-> I_G_i`` with a slow forward and fast backward rate; this
    helper keeps both directions textually adjacent.
    """
    fwd = Reaction(reactants, products, forward,
                   label=f"{label} (fwd)" if label else "")
    bwd = Reaction(products, reactants, backward,
                   label=f"{label} (bwd)" if label else "")
    return [fwd, bwd]

"""Chemical reaction network container.

A :class:`Network` is an ordered registry of species, a list of reactions,
and a set of initial quantities.  Builders throughout the library (clock,
delay elements, synthesized circuits, DSD compilation) all produce plain
``Network`` objects, so every design can be simulated, analysed, merged,
printed and parsed with the same machinery.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Mapping

import numpy as np

from repro.crn.reaction import Reaction, SpeciesLike
from repro.crn.species import Species, as_species
from repro.errors import NetworkError

#: Version tag of the canonical network serialisation (see
#: :meth:`Network.to_canonical_dict`).  Bump only with a migration path:
#: content-addressed caches key on the canonical form.
CANONICAL_SCHEMA = "repro.network/1"


class Network:
    """A chemical reaction network with initial conditions."""

    def __init__(self, name: str = "crn"):
        self.name = name
        self._species: dict[str, Species] = {}
        self._order: list[str] = []
        self.reactions: list[Reaction] = []
        self._initial: dict[str, float] = {}
        #: Optional source spans for diagnostics, populated by the parser:
        #: ``("reaction", index) -> line`` and ``("species", name) -> line``.
        self.provenance: dict[tuple[str, object], int] = {}
        self._frozen = False

    # -- species registry ---------------------------------------------------

    @property
    def species(self) -> list[Species]:
        """Species in registration order."""
        return [self._species[name] for name in self._order]

    @property
    def species_names(self) -> list[str]:
        return list(self._order)

    @property
    def n_species(self) -> int:
        return len(self._order)

    @property
    def n_reactions(self) -> int:
        return len(self.reactions)

    def __contains__(self, species: SpeciesLike) -> bool:
        return as_species(species).name in self._species

    def add_species(self, species: SpeciesLike, initial: float = 0.0,
                    **metadata) -> Species:
        """Register a species (idempotent for identical declarations).

        Re-declaring an existing name is allowed only when colour and role
        agree (or when one declaration is the bare default); conflicting
        metadata raises :class:`NetworkError`.
        """
        if self._frozen:
            self._refuse()
        if isinstance(species, str) and metadata:
            species = Species(species, **metadata)
        else:
            species = as_species(species)
        existing = self._species.get(species.name)
        if existing is None:
            self._species[species.name] = species
            self._order.append(species.name)
        elif not existing.same_metadata(species):
            if existing.color is None and existing.role == "signal":
                # Bare auto-registration upgraded by an explicit declaration.
                self._species[species.name] = species
            elif not (species.color is None and species.role == "signal"):
                raise NetworkError(
                    f"conflicting declarations for species {species.name!r}: "
                    f"{existing.color}/{existing.role} vs "
                    f"{species.color}/{species.role}")
        if initial:
            self.set_initial(species, initial)
        return self._species[species.name]

    def get_species(self, name: str) -> Species:
        try:
            return self._species[name]
        except KeyError:
            raise NetworkError(f"unknown species {name!r} in network "
                               f"{self.name!r}") from None

    def species_index(self, species: SpeciesLike) -> int:
        name = as_species(species).name
        try:
            return self._order.index(name)
        except ValueError:
            raise NetworkError(f"unknown species {name!r} in network "
                               f"{self.name!r}") from None

    def index_map(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self._order)}

    def species_with_color(self, color: str) -> list[Species]:
        return [s for s in self.species if s.color == color]

    def species_with_role(self, role: str) -> list[Species]:
        return [s for s in self.species if s.role == role]

    # -- reactions ----------------------------------------------------------

    def add_reaction(self, reaction: Reaction) -> Reaction:
        """Add a reaction, auto-registering any unknown species.

        Registration order is deterministic (reactants before products,
        each in declaration order) so that state-vector layouts are
        reproducible across processes.
        """
        if self._frozen:
            self._refuse()
        for species in reaction.reactants:
            self.add_species(species)
        for species in reaction.products:
            self.add_species(species)
        self.reactions.append(reaction)
        return reaction

    def add(self, reactants, products, rate: float | str = "slow",
            label: str = "") -> Reaction:
        """Shorthand for ``add_reaction(Reaction(...))``."""
        return self.add_reaction(Reaction(reactants, products, rate, label))

    def extend(self, reactions: Iterable[Reaction]) -> None:
        if self._frozen:
            self._refuse()
        for reaction in reactions:
            self.add_reaction(reaction)

    # -- initial conditions --------------------------------------------------

    def set_initial(self, species: SpeciesLike, value: float) -> None:
        if self._frozen:
            self._refuse()
        value = float(value)
        if not math.isfinite(value):
            raise NetworkError(
                f"initial quantity of {as_species(species).name!r} must be "
                f"finite, got {value!r}")
        if value < 0:
            raise NetworkError("initial quantity must be non-negative")
        name = self.add_species(species).name
        self._initial[name] = value

    def get_initial(self, species: SpeciesLike) -> float:
        return self._initial.get(as_species(species).name, 0.0)

    @property
    def initial(self) -> dict[str, float]:
        return dict(self._initial)

    def initial_vector(self,
                       overrides: Mapping[str, float] | None = None
                       ) -> np.ndarray:
        """Initial state aligned with :attr:`species_names`."""
        x0 = np.zeros(self.n_species)
        for name, value in self._initial.items():
            x0[self.species_index(name)] = value
        if overrides:
            for name, value in overrides.items():
                x0[self.species_index(name)] = float(value)
        return x0

    # -- composition ---------------------------------------------------------

    def merge(self, other: "Network") -> "Network":
        """Merge another network into this one (in place).

        Species registries are unioned (metadata must agree), reactions are
        concatenated with duplicates removed, and initial quantities are
        summed -- quantities are signals, and merging two sub-designs that
        both inject into a shared species should accumulate.
        """
        if self._frozen:
            self._refuse()
        for species in other.species:
            self.add_species(species)
        seen = set(self.reactions)
        for reaction in other.reactions:
            if reaction not in seen:
                self.add_reaction(reaction)
                seen.add(reaction)
        for name, value in other._initial.items():
            self._initial[name] = self._initial.get(name, 0.0) + value
        return self

    def copy(self, name: str | None = None) -> "Network":
        """An independent, editable copy: every species, every reaction
        in order (exact duplicates included, unlike :meth:`merge`) and
        the initial quantities.  Provenance is not carried over."""
        clone = Network(name or self.name)
        clone._species = dict(self._species)
        clone._order = list(self._order)
        clone.reactions = list(self.reactions)
        clone._initial = dict(self._initial)
        return clone

    def freeze(self) -> None:
        """Make this network read-only, in place.

        Machines built on one design share one frozen network (see
        :mod:`repro.core.machine`): every mutator then raises
        :class:`NetworkError` and ``reactions`` becomes a tuple, so no
        holder can change what the others simulate.  :meth:`copy`
        returns an editable network.
        """
        self.reactions = tuple(self.reactions)
        self._frozen = True

    def _refuse(self) -> None:
        raise NetworkError(
            f"network {self.name!r} is read-only: machines of one design "
            f"share it; edit network.copy() instead")

    # -- matrices ------------------------------------------------------------

    def reactant_matrix(self) -> np.ndarray:
        """Exponent matrix E: E[j, s] = reactant coefficient of species s
        in reaction j (mass-action exponents)."""
        index = self.index_map()
        matrix = np.zeros((self.n_reactions, self.n_species))
        for j, reaction in enumerate(self.reactions):
            for species, coeff in reaction.reactants.items():
                matrix[j, index[species.name]] = coeff
        return matrix

    def product_matrix(self) -> np.ndarray:
        index = self.index_map()
        matrix = np.zeros((self.n_reactions, self.n_species))
        for j, reaction in enumerate(self.reactions):
            for species, coeff in reaction.products.items():
                matrix[j, index[species.name]] = coeff
        return matrix

    def stoichiometry_matrix(self) -> np.ndarray:
        """Net stoichiometry S: S[s, j] = net change of species s per firing
        of reaction j.  The ODE right-hand side is ``S @ rates``."""
        return (self.product_matrix() - self.reactant_matrix()).T

    def rate_vector(self, scheme) -> np.ndarray:
        """Resolved numeric rate constants aligned with :attr:`reactions`."""
        return np.array([scheme.resolve(rxn.rate) for rxn in self.reactions])

    # -- validation / inspection ----------------------------------------------

    def validate(self) -> None:
        """Check structural sanity; raise :class:`NetworkError` on problems."""
        if not self.reactions:
            raise NetworkError(f"network {self.name!r} has no reactions")
        for reaction in self.reactions:
            for species in reaction.species:
                if species.name not in self._species:
                    raise NetworkError(
                        f"reaction {reaction} references unregistered "
                        f"species {species.name!r}")

    def conservation_laws(self, tol: float = 1e-9) -> np.ndarray:
        """Left null space of the stoichiometry matrix.

        Each row is a vector ``w`` such that ``w . x(t)`` is constant along
        every trajectory.  Rows are returned as an orthonormal basis.
        """
        from scipy.linalg import null_space

        stoich = self.stoichiometry_matrix()
        basis = null_space(stoich.T, rcond=tol)
        return basis.T

    def summary(self) -> str:
        """One-line size summary used in reports."""
        return (f"{self.name}: {self.n_species} species, "
                f"{self.n_reactions} reactions")

    # -- canonical serialisation ----------------------------------------------

    def to_canonical_dict(self) -> dict:
        """The blessed, permutation-stable serialisation of this network.

        The canonical form is independent of species registration order
        and reaction declaration order: species are sorted by name,
        reactions are sorted by content, and *exact* duplicate reactions
        (identical reactants, products and rate) merge into one entry
        with an integer ``count``.  Exact-duplicate merging is the only
        kinetic identification applied -- summing equal propensities is
        an exact power-of-two scaling in floating point, so it is
        invisible to every engine, bitwise.

        Labels, provenance and species docstrings are presentation
        metadata and do not appear.  The result round-trips through
        :meth:`from_canonical_dict` and is plain-JSON serialisable;
        :meth:`canonical_hash` content-addresses it.
        """
        species = []
        for sp in sorted(self.species, key=lambda s: s.name):
            entry: dict = {"name": sp.name}
            if sp.color is not None:
                entry["color"] = sp.color
            if sp.role != "signal":
                entry["role"] = sp.role
            species.append(entry)
        merged: dict[str, dict] = {}
        order: list[str] = []
        for reaction in self.reactions:
            entry = {
                "reactants": sorted(
                    [s.name, int(c)]
                    for s, c in reaction.reactants.items()),
                "products": sorted(
                    [s.name, int(c)]
                    for s, c in reaction.products.items()),
                "rate": reaction.rate,
            }
            key = json.dumps(entry, sort_keys=True)
            if key in merged:
                merged[key]["count"] += 1
            else:
                entry["count"] = 1
                merged[key] = entry
                order.append(key)
        return {
            "schema": CANONICAL_SCHEMA,
            "name": self.name,
            "species": species,
            "initial": {name: float(value)
                        for name, value in sorted(self._initial.items())
                        if value},
            "reactions": [merged[key] for key in sorted(order)],
        }

    def canonical_text(self) -> str:
        """The canonical form, excluding the display name, as the
        compact sorted-key JSON text :meth:`canonical_hash` digests.

        :meth:`from_canonical_text` rebuilds :meth:`canonical_form`
        from it exactly, so the text is a complete, object-free record
        of the chemistry.
        """
        payload = self.to_canonical_dict()
        del payload["name"]
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def canonical_hash(self) -> str:
        """SHA-256 of the canonical form, excluding the display name.

        Stable under species and reaction permutation (verified by the
        conformance ``meta.canonical-form`` check); two networks with
        equal hashes are the same chemistry, so content-addressed caches
        may serve one's results for the other -- provided both were
        simulated *in canonical form* (see :meth:`canonical_form`).
        """
        return canonical_digest(self.canonical_text())

    @classmethod
    def from_canonical_dict(cls, payload: Mapping) -> "Network":
        """Rebuild a network from :meth:`to_canonical_dict` output.

        The rebuilt network registers species in canonical (sorted)
        order and reactions in canonical order, so
        ``from_canonical_dict(n.to_canonical_dict())`` is *the*
        canonical representative of ``n``'s permutation class: every
        permutation-equivalent input reconstructs the identical network,
        state-vector layout and all.
        """
        if not isinstance(payload, Mapping):
            raise NetworkError(
                f"canonical network payload must be a mapping, got "
                f"{type(payload).__name__}")
        extra = set(payload) - {"schema", "name", "species", "initial",
                                "reactions"}
        if extra:
            raise NetworkError(
                f"unknown canonical network field(s) {sorted(extra)}")
        schema = payload.get("schema")
        if schema != CANONICAL_SCHEMA:
            raise NetworkError(
                f"unsupported canonical network schema {schema!r}; "
                f"expected {CANONICAL_SCHEMA!r}")
        network = cls(str(payload.get("name", "crn")))
        for entry in payload.get("species", []):
            network.add_species(Species(
                entry["name"], color=entry.get("color"),
                role=entry.get("role", "signal")))
        for entry in payload.get("reactions", []):
            rate = entry["rate"]
            if not isinstance(rate, str):
                rate = float(rate)
            reaction = Reaction(
                {name: coeff for name, coeff in entry["reactants"]},
                {name: coeff for name, coeff in entry["products"]},
                rate)
            for _ in range(int(entry.get("count", 1))):
                network.add_reaction(reaction)
        for name, value in payload.get("initial", {}).items():
            network.set_initial(name, float(value))
        return network

    @classmethod
    def from_canonical_text(cls, text: str, name: str = "crn") -> "Network":
        """Rebuild a network from :meth:`canonical_text` output, which
        carries no display name."""
        return cls.from_canonical_dict({**json.loads(text), "name": name})

    def canonical_form(self) -> "Network":
        """This network rebuilt in canonical order.

        Simulating the canonical form (rather than the raw network)
        makes results a pure function of the chemistry: stochastic
        engines' draw sequences depend on reaction order, so two
        permutation-equivalent networks only produce byte-identical
        realisations when both are first canonicalised.  The serving
        layer relies on this.
        """
        return type(self).from_canonical_dict(self.to_canonical_dict())

    # -- rendering -----------------------------------------------------------

    def to_text(self) -> str:
        """Serialise to the text format accepted by :mod:`repro.crn.parser`."""
        lines = [f"network: {self.name}"]
        # Every species is listed (even metadata-free ones) so that the
        # registration order -- and with it the state-vector layout --
        # survives a round trip through the text format.
        for species in self.species:
            attrs = []
            if species.color:
                attrs.append(f"color={species.color}")
            if species.role != "signal":
                attrs.append(f"role={species.role}")
            line = f"species {species.name}"
            if attrs:
                line = f"{line} {' '.join(attrs)}"
            lines.append(line)
        for name, value in sorted(self._initial.items()):
            lines.append(f"init {name} = {value:g}")
        for reaction in self.reactions:
            lines.append(str(reaction))
        return "\n".join(lines) + "\n"

    def __str__(self) -> str:
        return self.summary()

    def __repr__(self) -> str:
        return f"<Network {self.summary()}>"


def canonical_digest(text: str) -> str:
    """:meth:`Network.canonical_hash` of a :meth:`Network.canonical_text`."""
    return hashlib.sha256(text.encode("ascii")).hexdigest()

"""Canonical network serialisation: the content-addressing substrate.

The serving layer (``repro.serve``) keys its result cache on
``Network.canonical_hash()``, so these tests pin the two properties the
cache depends on: the hash is *stable* under every presentation change
that does not alter the chemistry (species/reaction permutation,
exact-duplicate reaction repetition, display name), and it *moves* for
every change that does (rates, stoichiometry, initials, metadata).
"""

from __future__ import annotations

import pytest

from repro.crn.network import CANONICAL_SCHEMA, Network, canonical_digest
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.errors import NetworkError


def _example() -> Network:
    net = Network("demo")
    net.add_species(Species("b", color="green", role="clock"))
    net.add_species(Species("a", color="red"))
    net.add_species(Species("c"))
    net.add_reaction(Reaction({"a": 1, "b": 1}, {"c": 2}, "fast"))
    net.add_reaction(Reaction({"c": 1}, None, 0.5))
    net.set_initial("a", 10.0)
    net.set_initial("b", 2.5)
    return net


def _permuted() -> Network:
    """The same chemistry declared in a different order."""
    net = Network("demo-permuted")
    net.add_species(Species("c"))
    net.add_species(Species("a", color="red"))
    net.add_species(Species("b", color="green", role="clock"))
    net.add_reaction(Reaction({"c": 1}, None, 0.5))
    net.add_reaction(Reaction({"b": 1, "a": 1}, {"c": 2}, "fast"))
    net.set_initial("b", 2.5)
    net.set_initial("a", 10.0)
    return net


class TestCanonicalDict:
    def test_schema_tag(self):
        payload = _example().to_canonical_dict()
        assert payload["schema"] == CANONICAL_SCHEMA

    def test_species_sorted_with_metadata(self):
        payload = _example().to_canonical_dict()
        assert [s["name"] for s in payload["species"]] == ["a", "b", "c"]
        assert payload["species"][0] == {"name": "a", "color": "red"}
        assert payload["species"][1] == {
            "name": "b", "color": "green", "role": "clock"}
        assert payload["species"][2] == {"name": "c"}

    def test_zero_initials_dropped(self):
        net = _example()
        net.set_initial("c", 0.0)
        payload = net.to_canonical_dict()
        assert payload["initial"] == {"a": 10.0, "b": 2.5}

    def test_json_serialisable(self):
        import json

        json.dumps(_example().to_canonical_dict())

    def test_exact_duplicates_merge_with_count(self):
        net = Network()
        for _ in range(3):
            net.add_reaction(Reaction({"x": 1}, {"y": 1}, "fast"))
        (entry,) = net.to_canonical_dict()["reactions"]
        assert entry["count"] == 3

    def test_near_duplicates_stay_separate(self):
        net = Network()
        net.add_reaction(Reaction({"x": 1}, {"y": 1}, "fast"))
        net.add_reaction(Reaction({"x": 1}, {"y": 1}, "slow"))
        assert len(net.to_canonical_dict()["reactions"]) == 2


class TestCanonicalHash:
    def test_permutation_invariant(self):
        assert _example().canonical_hash() == _permuted().canonical_hash()

    def test_name_excluded(self):
        a, b = _example(), _example()
        b.name = "renamed"
        assert a.canonical_hash() == b.canonical_hash()

    def test_rate_change_moves_hash(self):
        a, b = _example(), _example()
        b.reactions[1] = Reaction({"c": 1}, None, 0.25)
        assert a.canonical_hash() != b.canonical_hash()

    def test_initial_change_moves_hash(self):
        a, b = _example(), _example()
        b.set_initial("a", 11.0)
        assert a.canonical_hash() != b.canonical_hash()

    def test_metadata_change_moves_hash(self):
        a = _example()
        b = Network()
        for sp in a.species:
            if sp.name == "c":
                b.add_species(Species("c", color="blue"))
            else:
                b.add_species(sp)
        b.extend(a.reactions)
        for name, value in a.initial.items():
            b.set_initial(name, value)
        assert a.canonical_hash() != b.canonical_hash()

    def test_duplicate_count_moves_hash(self):
        a = Network()
        a.add_reaction(Reaction({"x": 1}, {"y": 1}, "fast"))
        b = a.copy()
        b.add_reaction(Reaction({"x": 1}, {"y": 1}, "fast"))
        assert a.canonical_hash() != b.canonical_hash()


class TestRoundTrip:
    def test_dict_round_trip_identity(self):
        payload = _example().to_canonical_dict()
        rebuilt = Network.from_canonical_dict(payload)
        assert rebuilt.to_canonical_dict() == payload

    def test_canonical_form_is_fixed_point(self):
        canonical = _permuted().canonical_form()
        assert canonical.species_names == ["a", "b", "c"]
        assert canonical.canonical_hash() == _example().canonical_hash()
        again = canonical.canonical_form()
        assert again.species_names == canonical.species_names
        assert [str(r) for r in again.reactions] == \
            [str(r) for r in canonical.reactions]

    def test_text_round_trip_is_the_canonical_form(self):
        network = _permuted()
        text = network.canonical_text()
        assert canonical_digest(text) == network.canonical_hash()
        rebuilt = Network.from_canonical_text(text, network.name)
        canonical = network.canonical_form()
        assert rebuilt.name == canonical.name
        assert rebuilt.species_names == canonical.species_names
        assert rebuilt.to_canonical_dict() == canonical.to_canonical_dict()

    def test_duplicates_re_expanded(self):
        net = Network()
        for _ in range(3):
            net.add_reaction(Reaction({"x": 1}, {"y": 1}, "fast"))
        rebuilt = Network.from_canonical_dict(net.to_canonical_dict())
        assert rebuilt.n_reactions == 3

    def test_simulatable_after_round_trip(self):
        import repro

        rebuilt = _example().canonical_form()
        result = repro.simulate(rebuilt, 1.0, method="ode")
        assert result.states.shape[1] == 3


class TestValidation:
    def test_rejects_non_mapping(self):
        with pytest.raises(NetworkError, match="mapping"):
            Network.from_canonical_dict([1, 2])

    def test_rejects_unknown_fields(self):
        payload = _example().to_canonical_dict()
        payload["extra"] = 1
        with pytest.raises(NetworkError, match="extra"):
            Network.from_canonical_dict(payload)

    def test_rejects_wrong_schema(self):
        payload = _example().to_canonical_dict()
        payload["schema"] = "repro.network/0"
        with pytest.raises(NetworkError, match="schema"):
            Network.from_canonical_dict(payload)

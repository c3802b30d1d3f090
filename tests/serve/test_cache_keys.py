"""Cache-key soundness: equal keys iff byte-identical responses.

The serving cache is only as good as its key: a spurious hit serves a
wrong answer, a spurious miss wastes a re-simulation.  These tests pin
both directions -- semantically equal requests (species/reaction
permutations, duplicate-vs-merged reactions, defaulted options) must
collide, and every knob that can change the response (options, seed,
t_final, scheme, n_runs, kind) must move the key.
"""

from __future__ import annotations

import pytest

from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.options import SimulationOptions
from repro.errors import ServeError, SimulationError
from repro.serve import JobSpec


def _network(order: str = "forward") -> Network:
    """One small chemistry, declarable in either order."""
    network = Network("keys")
    reactions = [(("X",), ("Y",), 2.0), (("Y",), ("Z",), 3.0),
                 (("X", "Y"), ("Z",), 0.5)]
    if order == "reversed":
        reactions = list(reversed(reactions))
    for reactants, products, rate in reactions:
        network.add(reactants, products, rate)
    network.set_initial("X", 5.0)
    return network


class TestKeyCollisions:
    def test_permutation_equivalent_networks_share_a_key(self):
        forward = JobSpec(kind="simulate", network=_network("forward"))
        backward = JobSpec(kind="simulate",
                           network=_network("reversed"))
        assert forward.cache_key() == backward.cache_key()

    def test_duplicate_and_merged_reactions_share_a_key(self):
        listed_twice = Network("dup")
        listed_twice.add(("X",), ("Y",), 2.0)
        listed_twice.add(("X",), ("Y",), 2.0)
        listed_twice.set_initial("X", 4.0)
        merged = Network.from_canonical_dict(
            listed_twice.to_canonical_dict())
        assert merged.n_reactions == 2  # re-expanded from count=2
        key_a = JobSpec(kind="simulate",
                        network=listed_twice).cache_key()
        key_b = JobSpec(kind="simulate", network=merged).cache_key()
        assert key_a == key_b

    def test_defaulted_options_collapse(self):
        bare = JobSpec(kind="simulate", network=_network())
        explicit = JobSpec(kind="simulate", network=_network(),
                           options=SimulationOptions())
        assert bare.cache_key() == explicit.cache_key()

    def test_network_display_name_is_ignored(self):
        named = _network()
        renamed = named.copy(name="something-else")
        key_a = JobSpec(kind="simulate", network=named).cache_key()
        key_b = JobSpec(kind="simulate", network=renamed).cache_key()
        assert key_a == key_b

    def test_key_is_memoised(self):
        spec = JobSpec(kind="simulate", network=_network())
        assert spec.cache_key() is spec.cache_key()


class TestKeyDeltas:
    def test_options_delta_misses(self):
        base = JobSpec(kind="simulate", network=_network())
        tweaked = JobSpec(kind="simulate", network=_network(),
                          options=SimulationOptions(n_samples=64))
        assert base.cache_key() != tweaked.cache_key()

    def test_seed_delta_misses(self):
        base = JobSpec(kind="simulate", network=_network(), seed=0)
        other = JobSpec(kind="simulate", network=_network(), seed=1)
        assert base.cache_key() != other.cache_key()

    def test_t_final_delta_misses(self):
        base = JobSpec(kind="simulate", network=_network(),
                       t_final=1.0)
        other = JobSpec(kind="simulate", network=_network(),
                        t_final=2.0)
        assert base.cache_key() != other.cache_key()

    def test_rate_delta_misses(self):
        near = Network("near")
        near.add(("X",), ("Y",), 2.0)
        near.set_initial("X", 5.0)
        nearer = Network("near")
        nearer.add(("X",), ("Y",), 2.0 + 1e-12)
        nearer.set_initial("X", 5.0)
        key_a = JobSpec(kind="simulate", network=near).cache_key()
        key_b = JobSpec(kind="simulate", network=nearer).cache_key()
        assert key_a != key_b

    def test_scheme_delta_misses(self):
        base = JobSpec(kind="simulate", network=_network())
        scheme = JobSpec(kind="simulate", network=_network(),
                         scheme=RateScheme({"fast": 10.0}))
        assert base.cache_key() != scheme.cache_key()

    def test_kind_delta_misses(self):
        simulate = JobSpec(kind="simulate", network=_network(),
                           method="ssa")
        sweep = JobSpec(kind="sweep", network=_network(),
                        method="ssa")
        assert simulate.cache_key() != sweep.cache_key()

    def test_n_runs_delta_misses_for_sweeps(self):
        base = JobSpec(kind="sweep", network=_network(),
                       method="ssa", n_runs=8)
        other = JobSpec(kind="sweep", network=_network(),
                        method="ssa", n_runs=16)
        assert base.cache_key() != other.cache_key()


class TestValidation:
    def test_unknown_kind(self):
        with pytest.raises(ServeError, match="unknown job kind"):
            JobSpec(kind="meditate").validate()

    def test_exactly_one_subject(self):
        with pytest.raises(ServeError, match="exactly one"):
            JobSpec(kind="simulate").validate()
        with pytest.raises(ServeError, match="exactly one"):
            JobSpec(kind="simulate", network=_network(),
                    scenario="random").validate()

    def test_unknown_method(self):
        with pytest.raises(ServeError, match="unknown method"):
            JobSpec(kind="simulate", network=_network(),
                    method="magic").validate()

    def test_live_options_rejected(self):
        spec = JobSpec(kind="simulate", network=_network(),
                       options=SimulationOptions(seed=7))
        with pytest.raises(ServeError, match="options.seed"):
            spec.validate()

    def test_ode_sweep_rejected(self):
        with pytest.raises(ServeError, match="ssa.*tau"):
            JobSpec(kind="sweep", network=_network(),
                    method="ode").validate()

    def test_unknown_circuit(self):
        with pytest.raises(ServeError, match="unknown robustness"):
            JobSpec(kind="robustness", circuit="clock").validate()

    def test_unknown_budget(self):
        with pytest.raises(ServeError, match="unknown conformance"):
            JobSpec(kind="conformance", budget="huge").validate()

    def test_unknown_backend_rejected_before_a_key(self):
        """A bad backend fails when the spec is read, not later in the
        worker thread."""
        with pytest.raises(SimulationError, match="backend 'gpu'"):
            JobSpec.from_dict({"kind": "sweep", "scenario": "counter",
                               "method": "ssa", "t_final": 1.0,
                               "n_runs": 4, "options": {"backend": "gpu"}})


class TestJobFiles:
    def test_round_trip_preserves_the_key(self):
        spec = JobSpec(kind="sweep", network=_network("reversed"),
                       method="tau", t_final=0.5, n_runs=4, seed=3,
                       options=SimulationOptions(n_samples=32),
                       scheme=RateScheme({"fast": 8.0}))
        rebuilt = JobSpec.from_dict(spec.to_dict())
        assert rebuilt.cache_key() == spec.cache_key()

    def test_scenario_round_trip(self):
        spec = JobSpec(kind="simulate", scenario="random",
                       scenario_params={"seed": 5}, seed=5)
        rebuilt = JobSpec.from_dict(spec.to_dict())
        assert rebuilt.cache_key() == spec.cache_key()

    def test_unknown_fields_rejected(self):
        with pytest.raises(ServeError, match="unknown job spec"):
            JobSpec.from_dict({"kind": "conformance", "cores": 9})

    def test_non_mapping_rejected(self):
        with pytest.raises(ServeError, match="mapping"):
            JobSpec.from_dict(["simulate"])

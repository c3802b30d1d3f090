"""Cache-key soundness: equal keys iff byte-identical responses.

The serving cache is only as good as its key: a spurious hit serves a
wrong answer, a spurious miss wastes a re-simulation.  These tests pin
both directions -- semantically equal requests (species/reaction
permutations, duplicate-vs-merged reactions, defaulted options) must
collide, and every knob that can change the response (options, seed,
t_final, scheme, n_runs, kind) must move the key.
"""

from __future__ import annotations

import asyncio
import math
import sys
import threading

import numpy as np
import pytest

from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.options import SimulationOptions
from repro.errors import ServeError, SimulationError
from repro.scenarios import Scenario, canonical_memo, get_scenario
from repro.scenarios import registry
from repro.serve import JobSpec, SimulationService


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

    @pytest.mark.parametrize("kind,method", [("simulate", "ssa"),
                                             ("simulate", "ode"),
                                             ("sweep", "tau")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_t_final(self, kind, method, value):
        # ``nan <= 0`` is false, so a NaN horizon used to pass and its
        # NaN result was cached.
        spec = JobSpec(kind=kind, network=_network(), method=method,
                       t_final=value)
        with pytest.raises(ServeError,
                           match=f"t_final must be finite, got {value!r}"):
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


class TestScenarioMemo:
    """Scenario networks resolve through a process-wide memo of
    canonical text; a memo hit must never change a key."""

    @pytest.fixture(autouse=True)
    def cold_memo(self):
        canonical_memo.cache_clear()
        yield
        canonical_memo.cache_clear()

    @pytest.fixture
    def probe(self, monkeypatch):
        """Register a ``probe`` scenario whose builder records every
        params dict it receives."""
        calls = []

        def build(**params):
            calls.append(params)
            network = Network("probe")
            network.add("X", "Y", 1.0)
            network.set_initial("X", 1.0 + len(repr(params)))
            return network

        monkeypatch.setitem(registry._REGISTRY, "probe", Scenario(
            name="probe", description="test probe", build_network=build))
        return calls

    @staticmethod
    def _key(scenario: str = "random", **params) -> str:
        return JobSpec(kind="simulate", scenario=scenario,
                       scenario_params=params, seed=1).cache_key()

    def test_cold_and_warm_keys_agree(self):
        cold = [self._key(seed=s) for s in range(4)]
        assert canonical_memo.cache_info().misses == 4
        warm = [self._key(seed=s) for s in range(4)]
        assert canonical_memo.cache_info().hits == 4
        assert warm == cold
        built = [JobSpec(kind="simulate", seed=1,
                         network=get_scenario("random").network(seed=s)
                         ).cache_key() for s in range(4)]
        assert built == cold

    def test_equal_specs_build_once(self, probe):
        assert self._key("probe", k=2) == self._key("probe", k=2)
        assert probe == [{"k": 2}]

    def test_json_distinct_params_resolve_separately(self, probe):
        values = (1, 1.0, True, 0.0, -0.0)
        for value in values:
            self._key("probe", k=value)
        assert len(probe) == len(values)
        for value, params in zip(values, probe):
            received = params["k"]
            assert type(received) is type(value) and received == value
            if isinstance(value, float):
                assert math.copysign(1.0, received) == \
                    math.copysign(1.0, value)

    @pytest.mark.parametrize("params", [{"k": [1, 2]}, {"k": np.int64(2)},
                                        {"k": {"nested": 1}}])
    def test_non_scalar_params_bypass_the_memo(self, probe, params):
        self._key("probe", **params)
        self._key("probe", **params)
        assert len(probe) == 2
        assert canonical_memo.cache_info().currsize == 0

    def test_unknown_scenario_raises_at_submit(self):
        async def submit():
            async with SimulationService(n_workers=1) as service:
                await service.submit(JobSpec(kind="simulate",
                                             scenario="randon"))
        with pytest.raises(ServeError, match="did you mean 'random'"):
            asyncio.run(submit())

    def test_bad_params_raise_every_time(self):
        for _ in range(2):
            with pytest.raises(TypeError, match="sed"):
                self._key(sed=3)
        assert canonical_memo.cache_info().currsize == 0

    def test_concurrent_keys_agree(self):
        barrier = threading.Barrier(4)
        keys = []

        def worker():
            barrier.wait(timeout=30)
            mine = [(s, self._key(seed=s)) for s in (11, 12, 11)]
            keys.extend(mine)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(keys) == 12
        assert set(keys) == {(11, self._key(seed=11)),
                             (12, self._key(seed=12))}

    def test_network_path_canonicalises_once(self, monkeypatch):
        calls = []
        to_dict = Network.to_canonical_dict

        def counting(network):
            calls.append(network.name)
            return to_dict(network)

        monkeypatch.setattr(Network, "to_canonical_dict", counting)
        network = _network("reversed")
        spec = JobSpec(kind="simulate", network=network)
        spec.cache_key()
        resolved = spec.resolve_network()
        assert calls == ["keys"]
        monkeypatch.undo()
        assert resolved.to_canonical_dict() == \
            network.canonical_form().to_canonical_dict()
        assert spec.cache_key() == \
            JobSpec(kind="simulate", network=_network()).cache_key()

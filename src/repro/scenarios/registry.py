"""The shared scenario registry.

Before this module, every consumer kept its own circuit menu: the waves
runner had a ``SCENARIOS`` tuple, the fault campaigns a ``CIRCUITS``
dict, the conformance generator a private ``_circuit_targets`` and the
benchmarks re-imported builders by hand.  Adding one circuit meant four
edits, and the serving layer (``repro.serve``) would have made it five.

A :class:`Scenario` is a *name* plus up to three capabilities:

``build_network(**params)``
    the plain :class:`~repro.crn.network.Network` -- what conformance
    targets, benchmarks and ``simulate`` jobs consume;
``make_circuit(**params)``
    a fault-campaign adapter (``evaluate(scheme, plan, rng)``) -- what
    ``repro robustness`` and the certify soundness checks consume;
``run_probed(probe, **params)``
    one probed run returning a summary dict -- what ``repro waves``
    consumes;
``build_driver(**params)``
    the scenario's rich interactive driver (the ``BinaryCounter``, a
    ``SynchronousMachine``, the clock's builder/analyzer trio) -- what
    the benchmark figures consume.

Capabilities a scenario does not support are ``None``; consumers filter
with :func:`scenario_names` tags instead of try/except.  Registration
order is meaningful and preserved (CLI choice lists, conformance target
order, golden reports all depend on it).

A network builder must be a function of its params alone:
:meth:`Scenario.canonical_network` serves repeat requests from
:func:`canonical_memo`, a bounded process-wide memo of canonical network
*text* (never objects), so the serving layer builds each network once
per process.
"""

from __future__ import annotations

import difflib
import functools
import json
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field

from repro.errors import ScenarioError

#: Param value types the memo accepts.  Each survives a JSON round trip
#: with its exact type and value, and its JSON text keeps ``1``, ``1.0``
#: and ``True`` (and ``0.0`` and ``-0.0``) apart.
_PLAIN_TYPES = (str, int, float, bool, type(None))


@dataclass(frozen=True)
class Scenario:
    """One named, multi-capability simulation scenario."""

    name: str
    description: str
    #: capability/consumer tags (``waves``, ``faults``,
    #: ``conformance-circuit``, ``network``); :func:`scenario_names`
    #: filters on them.
    tags: frozenset = field(default_factory=frozenset)
    build_network: Callable | None = None
    make_circuit: Callable | None = None
    run_probed: Callable | None = None
    build_driver: Callable | None = None
    #: conformance-target recipe (``target`` name, ``t_final_cap``,
    #: ``stochastic``, ``stiff``, builder ``params``) for scenarios
    #: tagged ``conformance-circuit``.
    conformance: Mapping | None = None

    def network(self, **params):
        """Build the scenario's network, or fail with a clear error."""
        if self.build_network is None:
            raise ScenarioError(
                f"scenario {self.name!r} does not build a plain "
                f"network (capabilities: {sorted(self.tags)})")
        return self.build_network(**params)

    def canonical_network(self, **params) -> tuple[str, str]:
        """``(name, canonical text)`` of :meth:`network`'s result.

        The text is :meth:`~repro.crn.network.Network.canonical_text`.
        Params whose values are all plain scalars are served from
        :func:`canonical_memo`; any other params (numpy scalars, lists)
        build every time.
        """
        if self.build_network is not None and all(
                type(value) in _PLAIN_TYPES for value in params.values()):
            return canonical_memo(self.build_network,
                                  json.dumps(params, sort_keys=True))
        return _name_and_text(self.network(**params))

    def circuit(self, **params):
        """Build the scenario's fault-campaign adapter."""
        if self.make_circuit is None:
            raise ScenarioError(
                f"scenario {self.name!r} has no fault-campaign "
                f"adapter (capabilities: {sorted(self.tags)})")
        return self.make_circuit(**params)

    def driver(self, **params):
        """Build the scenario's rich interactive driver."""
        if self.build_driver is None:
            raise ScenarioError(
                f"scenario {self.name!r} has no interactive driver "
                f"(capabilities: {sorted(self.tags)})")
        return self.build_driver(**params)


def _name_and_text(network) -> tuple[str, str]:
    return network.name, network.canonical_text()


@functools.lru_cache(maxsize=4096)
def canonical_memo(build: Callable, params_json: str) -> tuple[str, str]:
    """``(name, canonical text)`` of ``build(**json.loads(params_json))``.

    Keyed on the builder function, not the scenario name, so a name
    registered again with another builder cannot be served a stale
    entry.  An entry for a ``random`` network costs about 0.7 KB.
    Exceptions are not cached: bad params raise on every call.
    ``canonical_memo.cache_info()`` reports hits and misses.
    """
    return _name_and_text(build(**json.loads(params_json)))


_REGISTRY: dict[str, Scenario] = {}


def register_scenario(scenario: Scenario) -> Scenario:
    """Add a scenario to the registry (duplicate names are an error).

    ``build_network`` must depend on its params alone (no clock, global
    state or unseeded randomness): the serving layer memoises its
    canonical text per params in :func:`canonical_memo`, so a process
    builds each ``(builder, params)`` once.
    """
    if scenario.name in _REGISTRY:
        raise ScenarioError(
            f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario by name, suggesting the nearest on a miss."""
    try:
        return _REGISTRY[name]
    except KeyError:
        close = difflib.get_close_matches(name, sorted(_REGISTRY), n=1)
        hint = f" (did you mean {close[0]!r}?)" if close else ""
        raise ScenarioError(
            f"unknown scenario {name!r}{hint}; registered scenarios: "
            f"{sorted(_REGISTRY)}") from None


def scenario_names(tag: str | None = None) -> tuple[str, ...]:
    """Registered names, in registration order, optionally by tag."""
    return tuple(name for name, scenario in _REGISTRY.items()
                 if tag is None or tag in scenario.tags)

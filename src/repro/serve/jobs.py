"""Typed job specifications for the serving layer.

A :class:`JobSpec` is the one request shape every serving entry point
(the async :class:`~repro.serve.service.SimulationService`, the
``python -m repro serve`` CLI, the load generator) accepts.  Four job
kinds cover the toolkit's workloads:

``simulate``
    one trajectory of a network (any engine);
``sweep``
    the bitwise-deterministic ensemble mean over ``n_runs`` stochastic
    realisations, sharded across the worker pool;
``robustness``
    a fault-injection campaign on a registered circuit scenario;
``conformance``
    the cross-engine conformance battery for one ``(budget, seed)``.

Every spec content-addresses itself: :meth:`JobSpec.cache_key` hashes
``(canonical network hash, canonical options dict, seed)`` -- plus the
kind-specific knobs -- so identical requests are cache hits, not
re-simulations.  The key contract is *bitwise*: two specs with equal
keys must produce byte-identical responses.  That is why
:meth:`resolve_network` always returns the network's **canonical form**
(stochastic draw sequences depend on reaction declaration order, so
only canonicalised networks make permutation-equivalent requests
byte-identical) and why live/positional options fields are rejected by
``SimulationOptions.canonical_dict()``.
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.options import ENGINES, SimulationOptions
from repro.errors import ScenarioError, ServeError

#: Job kinds the serving layer accepts.
JOB_KINDS = ("simulate", "sweep", "robustness", "conformance")

#: Version tag of the cache-key layout.  Bump to invalidate every
#: existing content-addressed entry (e.g. when a result field changes
#: meaning).
KEY_SCHEMA = "repro.serve/1"


def _frozen_mapping(value=None) -> Mapping:
    return MappingProxyType(dict(value or {}))


@dataclass(frozen=True)
class JobSpec:
    """One serving request.

    Parameters
    ----------
    kind:
        one of :data:`JOB_KINDS`.
    network / scenario / scenario_params:
        the subject of ``simulate``/``sweep`` jobs: either an explicit
        :class:`~repro.crn.network.Network` or a registered scenario
        name (resolved through :mod:`repro.scenarios`) with builder
        parameters.  Exactly one of ``network``/``scenario``.
    t_final / method / scheme / options:
        forwarded to :func:`repro.simulate`; ``options.seed``,
        ``options.tracer`` and ``options.metrics`` must stay ``None``
        (the seed is a top-level job field, telemetry is injected by
        the service).
    seed:
        the job's root seed (spawned per shard for ``sweep``).
    n_runs:
        ensemble size for ``sweep`` jobs.
    circuit / circuit_params / trials / separation:
        fault-campaign knobs for ``robustness`` jobs (``circuit`` is a
        scenario name tagged ``faults``).
    budget:
        conformance budget name for ``conformance`` jobs.
    """

    kind: str
    network: Network | None = None
    scenario: str | None = None
    scenario_params: Mapping = field(default_factory=_frozen_mapping)
    t_final: float = 1.0
    method: str = "ode"
    scheme: RateScheme | None = None
    options: SimulationOptions = field(
        default_factory=SimulationOptions)
    seed: int = 0
    n_runs: int = 16
    circuit: str = "counter"
    circuit_params: Mapping = field(default_factory=_frozen_mapping)
    trials: int = 8
    separation: float | None = None
    budget: str = "tiny"

    def __post_init__(self):
        object.__setattr__(self, "scenario_params",
                           _frozen_mapping(self.scenario_params))
        object.__setattr__(self, "circuit_params",
                           _frozen_mapping(self.circuit_params))

    # -- validation -----------------------------------------------------------

    def validate(self) -> None:
        """Reject malformed specs before any work is scheduled."""
        if self.kind not in JOB_KINDS:
            raise ServeError(f"unknown job kind {self.kind!r}; "
                             f"expected one of {JOB_KINDS}")
        if self.kind in ("simulate", "sweep"):
            if (self.network is None) == (self.scenario is None):
                raise ServeError(
                    f"{self.kind} jobs take exactly one of network= "
                    f"or scenario=")
            if self.t_final <= 0:
                raise ServeError("t_final must be positive")
            if self.method not in ENGINES:
                raise ServeError(
                    f"unknown method {self.method!r}; expected one of "
                    f"{ENGINES}")
            for name in ("seed", "tracer", "metrics"):
                if getattr(self.options, name) is not None:
                    raise ServeError(
                        f"options.{name} must be None in a job spec: "
                        f"the seed is the top-level JobSpec.seed and "
                        f"telemetry is injected by the service")
            # Fail at submit time, not deep in a worker thread.
            self.options.canonical_dict()
        if self.kind == "sweep":
            if self.method == "ode":
                raise ServeError(
                    "sweep jobs average stochastic realisations; "
                    "method must be 'ssa' or 'tau' (an ODE ensemble "
                    "is one deterministic run)")
            if self.n_runs < 1:
                raise ServeError("n_runs must be >= 1")
        if self.kind == "robustness":
            from repro.scenarios import get_scenario, scenario_names

            try:
                if get_scenario(self.circuit).make_circuit is None:
                    raise ScenarioError(self.circuit)
            except ScenarioError:
                raise ServeError(
                    f"unknown robustness circuit {self.circuit!r}; "
                    f"choose from {sorted(scenario_names(tag='faults'))}"
                ) from None
            if self.trials < 1:
                raise ServeError("trials must be >= 1")
        if self.kind == "conformance":
            from repro.conformance.generator import BUDGETS

            if self.budget not in BUDGETS:
                raise ServeError(
                    f"unknown conformance budget {self.budget!r}; "
                    f"choose from {sorted(BUDGETS)}")

    # -- resolution -----------------------------------------------------------

    def resolve_network(self) -> Network:
        """The job's network, always in canonical form.

        Canonicalising before simulation is what makes the cache key
        sound for stochastic engines: the SSA draw sequence depends on
        reaction declaration order, so permutation-equivalent requests
        only produce byte-identical realisations when both simulate
        the canonical representative.  Responses are therefore always
        in canonical (sorted) species order.

        The network is resolved once and memoised on the (frozen) spec,
        like :meth:`cache_key`, so a cache miss builds it once for its
        key and its execution.
        """
        cached = self.__dict__.get("_network")
        if cached is not None:
            return cached
        if self.network is not None:
            network = self.network
        else:
            from repro.scenarios import get_scenario

            try:
                scenario = get_scenario(self.scenario)
                network = scenario.network(**dict(self.scenario_params))
            except ScenarioError as exc:
                raise ServeError(str(exc)) from None
        canonical = network.canonical_form()
        object.__setattr__(self, "_network", canonical)
        return canonical

    def _scheme_payload(self):
        if self.scheme is None:
            return None
        return {name: float(value)
                for name, value in sorted(self.scheme.values.items())}

    # -- content addressing ---------------------------------------------------

    def key_payload(self) -> dict:
        """The JSON-safe dict :meth:`cache_key` hashes."""
        payload: dict = {"schema": KEY_SCHEMA, "kind": self.kind}
        if self.kind in ("simulate", "sweep"):
            payload.update({
                "network": self.resolve_network().canonical_hash(),
                "t_final": float(self.t_final),
                "method": self.method,
                "scheme": self._scheme_payload(),
                "options": self.options.canonical_dict(),
                "seed": int(self.seed),
            })
        if self.kind == "sweep":
            payload["n_runs"] = int(self.n_runs)
        if self.kind == "robustness":
            payload.update({
                "circuit": self.circuit,
                "circuit_params": dict(sorted(
                    self.circuit_params.items())),
                "trials": int(self.trials),
                "separation": self.separation,
                "seed": int(self.seed),
            })
        if self.kind == "conformance":
            payload.update({"budget": self.budget,
                            "seed": int(self.seed)})
        return payload

    def cache_key(self) -> str:
        """SHA-256 content address of this request.

        Equal keys promise byte-identical responses; any delta in the
        chemistry, options, seed or kind-specific knobs moves the key.
        The key is memoised on the (frozen, hence immutable) spec, so
        repeat submissions skip re-canonicalising the network.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is not None:
            return cached
        text = json.dumps(self.key_payload(), sort_keys=True,
                          separators=(",", ":"))
        key = hashlib.sha256(text.encode("utf-8")).hexdigest()
        object.__setattr__(self, "_cache_key", key)
        return key

    # -- (de)serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe form for job files (``repro serve --jobs``)."""
        payload: dict = {"kind": self.kind}
        if self.network is not None:
            payload["network"] = self.network.to_canonical_dict()
        if self.scenario is not None:
            payload["scenario"] = self.scenario
        if self.scenario_params:
            payload["scenario_params"] = dict(self.scenario_params)
        if self.kind in ("simulate", "sweep"):
            payload.update({"t_final": float(self.t_final),
                            "method": self.method,
                            "seed": int(self.seed)})
            if self.scheme is not None:
                payload["scheme"] = self._scheme_payload()
            options = self.options.canonical_dict()
            options.pop("schema")
            if options:
                payload["options"] = options
        if self.kind == "sweep":
            payload["n_runs"] = int(self.n_runs)
        if self.kind == "robustness":
            payload.update({"circuit": self.circuit,
                            "trials": int(self.trials),
                            "seed": int(self.seed)})
            if self.circuit_params:
                payload["circuit_params"] = dict(self.circuit_params)
            if self.separation is not None:
                payload["separation"] = float(self.separation)
        if self.kind == "conformance":
            payload.update({"budget": self.budget,
                            "seed": int(self.seed)})
        return payload

    @classmethod
    def from_dict(cls, payload: Mapping) -> "JobSpec":
        """Rebuild a spec from :meth:`to_dict` output (job files)."""
        if not isinstance(payload, Mapping):
            raise ServeError(
                f"job spec must be a mapping, got "
                f"{type(payload).__name__}")
        known = {"kind", "network", "scenario", "scenario_params",
                 "t_final", "method", "scheme", "options", "seed",
                 "n_runs", "circuit", "circuit_params", "trials",
                 "separation", "budget"}
        extra = set(payload) - known
        if extra:
            raise ServeError(
                f"unknown job spec field(s) {sorted(extra)}")
        kwargs = dict(payload)
        if "network" in kwargs:
            kwargs["network"] = Network.from_canonical_dict(
                kwargs["network"])
        if "scheme" in kwargs and kwargs["scheme"] is not None:
            kwargs["scheme"] = RateScheme(dict(kwargs["scheme"]))
        if "options" in kwargs:
            options = dict(kwargs["options"])
            options.pop("schema", None)
            kwargs["options"] = SimulationOptions().replace(**options)
        spec = cls(**kwargs)
        spec.validate()
        return spec

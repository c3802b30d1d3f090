"""One options bag for every simulation engine.

:class:`SimulationOptions` collects the tuning knobs of all three engines
(deterministic ODE, exact SSA, tau-leaping) behind one dataclass so that
callers -- the :func:`repro.simulate` facade, the fault-injection
campaigns, benchmarks and the CLI -- stop re-plumbing engine-specific
keyword arguments.  Fields that an engine does not use are ignored by
that engine (they are *hints*, not commands): ``seed`` does nothing for
the deterministic solver, ``jacobian`` nothing for SSA.  Fields that an
engine cannot honour at all (``events`` under stochastic semantics)
raise :class:`~repro.errors.SimulationError` at dispatch time instead of
being silently dropped.
"""

from __future__ import annotations

import dataclasses
import difflib
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from typing import Any

from repro.errors import SimulationError

#: Engine names accepted by the :func:`repro.simulate` facade.
ENGINES = ("ode", "ssa", "tau")

#: Version tag of the canonical options serialisation (see
#: :meth:`SimulationOptions.canonical_dict`).  Bump only with a
#: migration path: content-addressed caches key on the canonical form.
OPTIONS_SCHEMA = "repro.options/1"

#: Values accepted by :attr:`SimulationOptions.backend`.  Every engine
#: has one implementation now, so the field selects nothing; it stays
#: because job files carry it and served cache keys hash it.
BACKENDS = ("reference", "batch")


@dataclass(frozen=True)
class SimulationOptions:
    """Engine-agnostic simulation settings.

    Parameters
    ----------
    t_start:
        integration start time; the returned trajectory's grid spans
        ``[t_start, t_final]`` for every engine.
    initial:
        full state vector or a mapping of overrides on top of the
        network's declared initial quantities.
    n_samples:
        sample-grid size; ``None`` keeps each engine's default (400 for
        the ODE solver, 200 for the stochastic engines).
    rates:
        explicit per-reaction rate vector overriding the scheme (the
        rate-robustness and fault-injection experiments use this).
    seed:
        RNG seed (int, ``numpy.random.Generator`` or ``None``) for the
        stochastic engines; ignored by the deterministic solver.
    solver:
        ODE method (one of :data:`repro.crn.simulation.ode.METHODS`).
    rtol / atol:
        ODE solver tolerances.
    jacobian:
        ODE Jacobian mode (:data:`repro.crn.simulation.ode.JACOBIAN_MODES`).
    events / event_hint:
        terminal-event functions and a time-to-event estimate for the
        ODE solver's chunked event search (ODE only).
    max_events:
        stochastic step budget per call; ``None`` keeps the engine
        default (50M SSA events, 5M tau-leaping steps).  Exceeding it
        raises :class:`~repro.errors.SimulationError`.
    volume:
        reaction volume for converting deterministic rate constants to
        stochastic propensity constants.
    epsilon / n_critical:
        tau-leaping step-selection parameters.
    tracer / metrics:
        optional telemetry hooks (see :mod:`repro.obs`).
    backend:
        one of :data:`BACKENDS`, validated and otherwise ignored; a
        non-default value still enters :meth:`canonical_dict`, so cache
        keys of jobs that set it do not move.
    """

    # -- shared ----------------------------------------------------------
    t_start: float = 0.0
    initial: Mapping[str, float] | Any | None = None
    n_samples: int | None = None
    rates: Any | None = None
    seed: Any | None = None
    tracer: Any = None
    metrics: Any = None
    backend: str = "reference"
    # -- deterministic (ODE) --------------------------------------------
    solver: str = "LSODA"
    rtol: float = 1e-7
    atol: float = 1e-9
    jacobian: str = "auto"
    events: Sequence | None = None
    event_hint: float | None = None
    # -- stochastic ------------------------------------------------------
    max_events: int | None = None
    volume: float = 1.0
    # -- tau-leaping -----------------------------------------------------
    epsilon: float = 0.03
    n_critical: int = 10

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise SimulationError(
                f"unknown simulation backend {self.backend!r}; expected "
                f"one of {BACKENDS}")

    def replace(self, **changes) -> "SimulationOptions":
        """A copy with the given fields changed.

        Unknown field names raise :class:`TypeError` naming the nearest
        valid field -- misspelled options must never be silently
        ignored, and the error should hand back the fix.
        """
        valid = sorted(f.name for f in dataclasses.fields(self))
        unknown = sorted(set(changes) - set(valid))
        if unknown:
            hints = []
            for name in unknown:
                close = difflib.get_close_matches(name, valid, n=1)
                hints.append(f"{name!r} (did you mean {close[0]!r}?)"
                             if close else repr(name))
            raise TypeError(
                f"unknown simulation option(s): {', '.join(hints)}; "
                f"valid options are {valid}")
        return dataclasses.replace(self, **changes)

    def canonical_dict(self) -> dict:
        """The cache-keyable serialisation of these options.

        Only fields that differ from the defaults appear, so adding a
        new defaulted option later does not invalidate every existing
        content-addressed cache entry.  Fields that cannot soundly take
        part in a cache key raise
        :class:`~repro.errors.SimulationError`:

        * ``tracer`` / ``metrics`` / ``events`` hold live objects with
          no stable serialisation;
        * ``seed`` is keyed separately by the serving layer (one job
          may fan out over many seeds);
        * ``rates`` vectors and array-shaped ``initial`` are positional
          -- they index the *declaration* order of reactions/species,
          which the canonical network form deliberately forgets.
          Mapping-shaped ``initial`` overrides (name -> value) are
          order-free and serialise fine.
        """
        for name in ("tracer", "metrics", "events", "seed", "rates"):
            if getattr(self, name) is not None:
                raise SimulationError(
                    f"SimulationOptions.{name} cannot take part in a "
                    f"canonical options dict; clear it and pass the "
                    f"value through the serving job spec instead")
        payload: dict = {"schema": OPTIONS_SCHEMA}
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.name == "initial":
                if value is None:
                    continue
                if not isinstance(value, Mapping):
                    raise SimulationError(
                        "SimulationOptions.initial must be a name -> "
                        "value mapping to take part in a canonical "
                        "options dict; positional vectors depend on "
                        "species declaration order")
                payload["initial"] = {
                    str(name): float(amount)
                    for name, amount in sorted(value.items())}
                continue
            if value == field.default:
                continue
            if not isinstance(value, (bool, int, float, str)):
                raise SimulationError(
                    f"SimulationOptions.{field.name}={value!r} is not "
                    f"canonically serialisable (expected a plain "
                    f"bool/int/float/str)")
            payload[field.name] = value
        return payload

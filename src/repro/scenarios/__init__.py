"""One scenario registry for benchmarks, faults, waves, conformance
and serving.

>>> from repro.scenarios import get_scenario
>>> network = get_scenario("counter").network(bits=3)

See :mod:`repro.scenarios.registry` for the design rationale and
:mod:`repro.scenarios.builtin` for the built-in menu (clock, counter,
fsm, ma, iir, random).
"""

from __future__ import annotations

from repro.scenarios.registry import (Scenario, canonical_memo,
                                      get_scenario, register_scenario,
                                      scenario_names)

# Importing the package registers the built-in menu.
import repro.scenarios.builtin  # noqa: E402,F401  (registration side effect)

__all__ = [
    "Scenario",
    "canonical_memo",
    "get_scenario",
    "register_scenario",
    "scenario_names",
]

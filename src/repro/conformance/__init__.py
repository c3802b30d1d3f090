"""Cross-engine conformance harness.

The paper's validation rests entirely on simulation, so the simulators
*are* the ground truth -- and a silent readout or sampling bug corrupts
every result built on top of them.  This package turns such bugs into
hard failures by cross-checking every engine against every other engine
and against algebraic invariants of mass-action kinetics:

- :mod:`repro.conformance.generator` -- a seeded, constrained random
  generator of lint-clean CRNs (plus the built-in clock/counter/machine
  circuits) whose sizes scale with a budget knob;
- :mod:`repro.conformance.metamorphic` -- metamorphic invariants applied
  to any engine: species-permutation equivariance, rate/time rescaling
  covariance, ``t_start`` shift invariance, conservation-law
  preservation (the lint left-null-space machinery), duplicate-reaction
  merge equivalence, and Trajectory round-trip contracts
  (``concat``/``window``/``resampled``/``at``);
- :mod:`repro.conformance.oracles` -- differential oracles: scipy LSODA
  vs BDF vs the in-house RK45 at tight tolerances, SSA ensemble means vs
  the ODE limit under CLT acceptance bands, and tau-leaping vs exact SSA
  on matched seed lists (each ensemble one ``simulate_ensemble`` call);
- :mod:`repro.conformance.shrink` -- a greedy shrinker that reduces any
  failing network to a minimal ``.crn`` reproducer under
  ``tests/conformance/corpus/``, which tier-1 replays forever after;
- :mod:`repro.conformance.runner` -- the orchestrator behind
  ``python -m repro conformance`` and its deterministic JSON report.

See ``docs/conformance.md`` for the invariant catalogue and the corpus
workflow.
"""

from repro.conformance.generator import (BUDGETS, GeneratorBudget,
                                         generate_targets, random_network)
from repro.conformance.metamorphic import (CheckResult, ENGINE_SPECS,
                                           EngineSpec)
from repro.conformance.runner import (ConformanceReport, run_conformance,
                                      replay_network)
from repro.conformance.shrink import shrink_network, write_reproducer

__all__ = [
    "BUDGETS",
    "CheckResult",
    "ConformanceReport",
    "ENGINE_SPECS",
    "EngineSpec",
    "GeneratorBudget",
    "generate_targets",
    "random_network",
    "replay_network",
    "run_conformance",
    "shrink_network",
    "write_reproducer",
]

"""The paper's primary contribution: synchronous molecular computation.

Layers, bottom to top:

- :mod:`repro.core.phases` -- the three-phase (red/green/blue) transfer
  protocol with absence indicators, in both the companion-faithful
  ``consuming`` gating mode and the sharpened ``catalytic`` mode that
  free-running machines use.
- :mod:`repro.core.clock` -- the molecular clock (RGB oscillator).
- :mod:`repro.core.memory` -- delay elements and delay lines.
- :mod:`repro.core.modules` / :mod:`repro.core.iterative` -- the
  rate-independent combinational library and the discrete iterative
  constructs (multiply, exponentiate, logarithm).
- :mod:`repro.core.dfg` -- the signal-flow-graph IR and its matrix form.
- :mod:`repro.core.synthesis` -- compilation of a linear design into a
  finalized chemical reaction network.
- :mod:`repro.core.machine` -- the cycle driver that streams input
  samples through a synthesized circuit and reads the outputs back out.
- :mod:`repro.core.analysis` -- trajectory measurement helpers.
"""

from repro.core.analysis import (conservation_drift, effective_series,
                                 effective_value, indicator_exclusivity,
                                 rise_time, settling_time, transfer_fidelity)
from repro.core.clock import MolecularClock, build_clock
from repro.core.compose import cascade, parallel_sum, rename
from repro.core.dfg import MatrixDesign, SignalFlowGraph
from repro.core.machine import (MachineRun, MachineStepper,
                                SynchronousMachine)
from repro.core.memory import DelayElement, DelayLine, build_delay_chain
from repro.core.phases import (ACCELERATION_MODES, CATALYTIC, CONSUMING,
                               DIMER, GATING_MODES, NONE, PhaseProtocol,
                               rational_gain)
from repro.core.stochastic_machine import StochasticMachine
from repro.core.synthesis import SynthesizedCircuit, synthesize

__all__ = [
    "ACCELERATION_MODES",
    "CATALYTIC",
    "CONSUMING",
    "DIMER",
    "DelayElement",
    "DelayLine",
    "GATING_MODES",
    "MachineRun",
    "MachineStepper",
    "MatrixDesign",
    "MolecularClock",
    "NONE",
    "PhaseProtocol",
    "SignalFlowGraph",
    "StochasticMachine",
    "SynchronousMachine",
    "SynthesizedCircuit",
    "build_clock",
    "cascade",
    "build_delay_chain",
    "conservation_drift",
    "effective_series",
    "effective_value",
    "indicator_exclusivity",
    "parallel_sum",
    "rational_gain",
    "rename",
    "rise_time",
    "settling_time",
    "synthesize",
    "transfer_fidelity",
]

"""Driving a synthesized machine under exact stochastic semantics.

The ODE driver needs a quantisation step at cycle boundaries because the
continuum carries sub-molecule residues that real chemistry does not.
This driver is the ground truth for that argument: it runs the *same*
synthesized reaction network with Gillespie's exact SSA, where counts are
integers and "absent" means literally zero molecules.  No flushing, no
tolerance tricks -- the protocol's absence detection works natively.

Costs: wall-clock time scales with event counts (keep signals <= a few
hundred molecules), and outputs carry discreteness noise of a few
molecules (odd quantities cannot halve exactly; indicator arrival times
are random).  The integration test checks agreement with the ODE driver
to within that noise scale.

**Straggler deadlocks.**  At single-molecule resolution the absence
threshold degenerates: one straggler molecule suppresses its indicator at
rate ``k_fast`` against amplification ``amp``, so a state with a couple
of leftover molecules in *every* colour pins all three gates at zero and
the rotation freezes -- a genuine limitation of the scheme at low copy
number, observed here experimentally.  The driver recovers by flushing
stragglers (counts <= ``straggler_tolerance``) after ``patience`` time
units without a boundary, modelling the slow degradation real molecules
undergo; flush events are counted so results report how often recovery
was needed.

**Polling.**  Boundaries are found by polling: the SSA runs in
``poll_interval`` chunks, each restarted at chunk time 0 from the last
chunk's final row with 16 samples, and every sampled row is scanned on
the clock's margin tables.  One
:meth:`~repro.crn.simulation.ssa.StochasticSimulator.poll` call runs a
whole ``patience`` window of chunks -- in the compiled loop when the
kernel is available -- and returns at the closing row, at the end of
the window or at the cycle deadline; this module keeps only the
straggler flush, the deadline error and the assembly of ``record``
segments between calls.  Every chunk restarts from its own counts, so
how many chunks a call runs cannot move a realisation.

Everything but how a cycle advances -- stream checks, injection,
readout, adaptive landing, boundary faults, the stepper, the probe,
cycle spans, ``machine.*`` metrics and the protocol monitor -- is the
shared driver of :mod:`repro.core.machine`.  This module supplies the
SSA cycle step and the integer conversions.
"""

from __future__ import annotations

import math

import numpy as np

from repro.crn.rates import RateScheme
from repro.crn.simulation.margins import MarginTable
from repro.crn.simulation.result import Trajectory
from repro.crn.simulation.ssa import StochasticSimulator
from repro.core.dfg import MatrixDesign, SignalFlowGraph
from repro.core.machine import (MachineOptions, _CycleDriver,
                                _cycle_deadline)
from repro.core.synthesis import SynthesizedCircuit
from repro.errors import SimulationError, SynthesisError


#: The rate values of a machine built without a scheme: the paper's,
#: with indicator generation at the slow rate.  The ODE driver keeps
#: generation tiny because the continuum integrates its floor into
#: cross-gate leaks.  In the discrete semantics generation is a *seed
#: event*: with gen = 0.01 the amplifier waits ~100 time units for its
#: first molecule.  Discrete states cannot accumulate sub-molecule
#: leaks, so a brisk seed rate is safe here.
_DEFAULT_RATES = dict(RateScheme().values)
_DEFAULT_RATES["gen"] = _DEFAULT_RATES["slow"]


class StochasticMachine(_CycleDriver):
    """SSA counterpart of :class:`~repro.core.machine.SynchronousMachine`.

    Cycle boundaries are detected by polling the counts every
    ``poll_interval`` time units: a boundary holds when the clock-red
    count has re-accumulated and the blue category holds at most
    ``blue_tolerance`` molecules.  Counts are already discrete, so the
    machine does not quantise its boundaries (``quantization`` is 0)
    and never tops the clock up.
    """

    _simulator = StochasticSimulator

    def __init__(self, design: MatrixDesign | SignalFlowGraph |
                 SynthesizedCircuit,
                 scheme: RateScheme | None = None,
                 clock_mass: float = 20.0,
                 signed: bool | None = None,
                 seed: int | None = None,
                 boundary_fraction: float = 0.9,
                 max_cycle_time: float | None = None,
                 tracer=None, metrics=None,
                 faults=None, probe=None,
                 options: MachineOptions | None = None):
        if scheme is None:
            scheme = RateScheme(dict(_DEFAULT_RATES))
        self._setup(
            design, scheme, None, clock_mass=clock_mass, signed=signed,
            gating="catalytic", boundary_fraction=boundary_fraction,
            tracer=tracer, metrics=metrics, monitor=None, faults=faults,
            probe=probe, options=options, seed=seed)
        self.poll_interval = 0.25
        self.quantization = 0.0
        self.patience = 20.0
        self.straggler_tolerance = 4
        self.flush_events = 0
        self.max_cycle_time = _cycle_deadline(max_cycle_time,
                                              200.0 / self.scheme.slow)
        #: A poll chunk's sample times: 16 rows from chunk time 0.
        self._grid = np.linspace(0.0, self.poll_interval, 16)
        #: Chunks per poll call: one patience window.
        self._window = math.ceil(self.patience / self.poll_interval) + 1

    @staticmethod
    def _blue_tolerance(scheme: RateScheme) -> int:
        """Counts are discrete: a boundary needs every blue at zero."""
        return 0

    def _run_cycle(self, counts: np.ndarray, t_start: float,
                   closing: MarginTable, keep: bool, estimates: dict
                   ) -> tuple[np.ndarray, float, Trajectory | None]:
        """Advance one full rotation, scanning *within* each simulated
        chunk: the boundary window (clock red re-accumulated, blues
        empty) can be much shorter than a chunk, because the blue-absence
        gate is still on from the previous cycle and phase 1 restarts
        immediately.

        Chunk boundaries consume random draws, so the chunking (see
        the module docstring) is part of every seeded realisation, and
        the engine's own ``ssa.batch`` spans are chunk-relative.  With
        ``keep``, the polled rows come back as the cycle's segment,
        shifted to the cycle's time and cut at the boundary row.  No
        estimate carries over: ``estimates`` stays empty.
        """
        grid = self._grid
        times: list[np.ndarray] = []
        rows: list[np.ndarray] = []
        departed = False
        t = start = t_start
        while True:
            poll = self.simulator.poll(
                counts, grid, self.template.departure, closing, t=t,
                departed=departed, chunks=self._window, keep=keep,
                until=((start, self.patience),
                       (t_start, self.max_cycle_time)))
            if keep:
                # Row 0 of a chunk is its initial state: the cycle's start
                # or the previous chunk's last row.
                for chunk, states in enumerate(poll.rows):
                    end = grid.size
                    if chunk == poll.chunks - 1 and poll.row is not None:
                        end = poll.row + 1
                    first = 1 if times else 0
                    times.append(t + grid[first:end])
                    rows.append(states[first:end])
                    t += self.poll_interval
            departed, counts, t = poll.departed, poll.counts, poll.t
            if poll.row is not None:
                # Restart from this recorded state (Markov property:
                # any sampled state is a valid SSA initial state).
                segment = Trajectory(
                    np.concatenate(times), np.vstack(rows),
                    self.network.species_names) if keep else None
                return counts, t + float(grid[poll.row]), segment
            if t - start > self.patience:
                counts = self._flush_stragglers(counts)
                start = t - self.patience / 2  # renewed (half) patience
            # Deadline on the whole cycle, not the patience window: the
            # renewal above would otherwise keep `t - start` below the
            # limit forever, so an unrecoverable wedge (e.g. clock mass
            # leaked to zero at low copy number) would spin indefinitely.
            if t - t_start > self.max_cycle_time:
                raise SimulationError(
                    f"no stochastic cycle boundary within "
                    f"{self.max_cycle_time:g} time units after "
                    f"t={t_start:g}")

    def _flush_stragglers(self, counts: np.ndarray) -> np.ndarray:
        """Degrade straggler molecules wedging the rotation (see module
        docstring)."""
        counts = counts.copy()
        flushed = 0
        for index in self.template.signal_indices:
            if 0 < counts[index] <= self.straggler_tolerance:
                flushed += int(counts[index])
                counts[index] = 0
        if flushed:
            self.flush_events += 1
        return counts

    # -- integer counts ------------------------------------------------------------

    def _sample(self, name: str, value) -> int:
        super()._sample(name, value)
        if float(value) != int(value):
            raise SynthesisError(
                "stochastic semantics take integer molecule "
                f"counts; got {value!r}")
        return int(value)

    def _coerce(self, state: np.ndarray) -> np.ndarray:
        return np.maximum(np.rint(state), 0).astype(np.int64)

    def _landed(self, amount) -> int:
        return int(round(amount))

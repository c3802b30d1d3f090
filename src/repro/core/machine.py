"""Synchronous machine driver: run a synthesized circuit over input streams.

:class:`SynchronousMachine` integrates the mass-action ODEs cycle by
cycle; :class:`~repro.core.stochastic_machine.StochasticMachine` runs the
same network under exact SSA.  Both share one driver (everything but
how a cycle advances), so stream checks, readout, boundary faults, the
stepper and cycle telemetry behave the same on either engine.  A cycle
boundary is *detected from the chemistry*, not assumed from wall-clock
time: the boundary event fires when the clock's red type has re-accumulated
(>= ``boundary_fraction`` of the clock mass) *and* the blue category has
drained (phase 3 complete).  At each boundary the driver

1. samples every output's cumulative readout (uncoloured accumulator +
   still-draining register + landing dimer), differencing consecutive
   boundaries to obtain per-sample outputs, and
2. injects the next input sample into the input's red rail(s), modelling
   the external stimulus stream.

Because boundaries are event-detected, the driver is agnostic to absolute
rates: the same code runs a k_fast/k_slow = 10 system and a 10000 system;
only the simulated time span differs.  Output sample ``y[n]`` becomes
observable at boundary ``n + 1`` (one cycle of latency).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from time import perf_counter
from types import MappingProxyType
from typing import Any

import numpy as np

from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.margins import MarginEvent, MarginTable, scan
from repro.crn.simulation.ode import OdeSimulator
from repro.crn.simulation.result import Trajectory
from repro.crn.species import COLORS
from repro.core.dfg import MatrixDesign, SignalFlowGraph
from repro.core.phases import landing_map
from repro.core.synthesis import SynthesizedCircuit, synthesize
from repro.errors import SimulationError, SynthesisError
from repro.obs.metrics import ensure_metrics
from repro.obs.monitors import (MonitorConfig, ProtocolMonitor,
                                ProtocolView, RuntimeDiagnostic)
from repro.obs.records import CycleSpan
from repro.obs.tracer import ensure_tracer
from repro.waves.probe import ensure_probe, signal_key

#: Colour rotation order: transfers move mass colour -> next colour.
_ROTATION = ("red", "green"), ("green", "blue"), ("blue", "red")

#: Recognised cycle-advance strategies for :class:`MachineOptions`.
CLOCKING_MODES = ("fixed", "adaptive")

#: Rows an ODE cycle segment is planned to hold when telemetry or
#: ``record`` needs them.
_SAMPLES_PER_CYCLE = 60

#: Machine templates kept per process (:func:`machine_templates`).  An
#: entry retains 73-93 KiB for the two-tap moving average or the IIR
#: filter (16-19 species) and 470-520 KiB for an eight-tap moving
#: average (94 species), so 32 entries stay under ~17 MiB even of large
#: designs, while a campaign, a seed sweep or a test module reuses a
#: handful.
TEMPLATE_CACHE_SIZE = 32


@dataclass(frozen=True)
class MachineOptions:
    """Machine-level strategy knobs, separate from rate/tolerance numbers.

    clocking:
        ``"fixed"`` (default) ends each cycle on the classic worst-case
        boundary event -- clock red back above ``boundary_fraction`` of
        the nominal mass *and* every blue species drained below
        ``blue_tolerance``.  ``"adaptive"`` ends the cycle as soon as the
        state has *digitally* settled: clock red above
        ``settle_fraction`` of nominal (phase 3 underway), the green
        category drained, and the signal blues below the settling
        residual.  The sub-threshold blue tail that fixed clocking waits
        out is then completed algebraically at the boundary (each
        remaining blue moved along its unique gated seed transfer), so
        quantized digital state and readouts are identical while the
        simulated cycle time shrinks.
    settle_fraction:
        clock-red fraction arming the adaptive settling event.  Must
        exceed 0.5 (so the event stays negative until the departure
        region is left and cannot fire spuriously) and stay below the
        machine's ``boundary_fraction`` (otherwise adaptive clocking
        would wait on the same worst-case schedule it replaces).
    settle_residual:
        signal-blue residual fraction (of the cycle's signal mass)
        regarded as settled -- an R104-style boundary residual, kept
        under the monitor's ``boundary_residual_warn`` default (0.05) so
        an adaptive boundary never carries a residual that the fixed
        monitor would have warned about.
    oscillator:
        registered clock chemistry to synthesize with (see
        :func:`repro.core.clock.make_clock`).  Ignored when a pre-built
        :class:`SynthesizedCircuit` is supplied, since its clock was
        already chosen at synthesis time.
    """

    clocking: str = "fixed"
    settle_fraction: float = 0.55
    settle_residual: float = 0.04
    oscillator: str = "molecular"

    def __post_init__(self) -> None:
        if self.clocking not in CLOCKING_MODES:
            raise SimulationError(
                f"unknown clocking mode {self.clocking!r}: expected one "
                f"of {', '.join(CLOCKING_MODES)}")
        if not 0.5 < self.settle_fraction < 1.0:
            raise SimulationError(
                f"settle_fraction must lie in (0.5, 1.0), got "
                f"{self.settle_fraction!r}")
        if not 0.0 < self.settle_residual < 1.0:
            raise SimulationError(
                f"settle_residual must lie in (0, 1), got "
                f"{self.settle_residual!r}")

    @property
    def adaptive(self) -> bool:
        return self.clocking == "adaptive"


@dataclass
class MachineRun:
    """Result of driving a machine over input streams.

    Cycle timing is stored once, as the list of recorded
    :class:`~repro.obs.records.CycleSpan` -- the same spans the tracer
    emits -- and ``boundary_times`` / ``mean_cycle_time`` are derived
    from it, so the run result and a recorded trace can never disagree
    about where the boundaries were.
    """

    outputs: dict[str, np.ndarray]
    reference: dict[str, np.ndarray]
    cycles: list[CycleSpan]
    trajectory: Trajectory | None = None
    state_history: list[dict[str, float]] = field(default_factory=list)
    diagnostics: list[RuntimeDiagnostic] = field(default_factory=list)

    @property
    def boundary_times(self) -> np.ndarray:
        """Cycle-boundary times (t=0 plus each cycle's end)."""
        if not self.cycles:
            return np.array([0.0])
        return np.array([self.cycles[0].t0]
                        + [span.t1 for span in self.cycles])

    @property
    def n_cycles(self) -> int:
        return len(self.cycles)

    @staticmethod
    def _comparable(name: str, measured: np.ndarray,
                    expected: np.ndarray) -> np.ndarray:
        """Per-sample deviations over the reference-length prefix.

        The measured stream is *by design* longer than the reference --
        the driver appends ``extra_cycles`` flush samples after the last
        input -- so a longer measurement is aligned by comparing the
        first ``len(expected)`` samples.  A *shorter* measurement means
        the run ended early (stall, crash, truncated stitching) and the
        error metrics would silently judge only the prefix that happens
        to exist, so conformance and fault scorers could not tell a
        short run from a good one: that case raises, naming both
        lengths.
        """
        if len(measured) < len(expected):
            raise SimulationError(
                f"output {name!r} has {len(measured)} samples but the "
                f"reference has {len(expected)}: the run ended before "
                f"every reference sample was produced, so its error "
                f"metrics would be judged on a truncated stream")
        n = len(expected)
        return measured[:n] - expected[:n]

    def max_error(self, name: str | None = None) -> float:
        """Worst absolute deviation from the discrete-time reference."""
        names = [name] if name else list(self.outputs)
        worst = 0.0
        for key in names:
            deviation = self._comparable(key, self.outputs[key],
                                         self.reference[key])
            if deviation.size:
                worst = max(worst, float(np.max(np.abs(deviation))))
        return worst

    def rms_error(self, name: str) -> float:
        deviation = self._comparable(name, self.outputs[name],
                                     self.reference[name])
        if deviation.size == 0:
            return 0.0
        return float(np.sqrt(np.mean(deviation ** 2)))

    @property
    def mean_cycle_time(self) -> float:
        if not self.cycles:
            raise SimulationError("no complete cycles")
        return float(np.mean([span.duration for span in self.cycles]))


def _cycle_deadline(max_cycle_time: float | None, default: float) -> float:
    """A machine's ``max_cycle_time``: ``None`` means ``default``, and
    anything else must be finite and positive."""
    if max_cycle_time is None:
        return default
    if not 0.0 < max_cycle_time < math.inf:
        raise SimulationError(
            f"max_cycle_time must be finite and > 0, got "
            f"{max_cycle_time!r}")
    return float(max_cycle_time)


# -- machine templates ------------------------------------------------------
#
# Every machine built on one design runs the same synthesized network
# with the same kinetics and clock tables; only its seed, telemetry and
# faults differ.  Those seed-independent parts are built once per
# content key into a read-only MachineTemplate and shared.


@dataclass(frozen=True)
class MachineTemplate:
    """Everything a machine derives from its design, rate scheme and
    options, and never from a seed: built once, shared read-only.

    A cached template's circuit holds a read-only copy of the design
    (tuples and mapping proxies).  ``network`` is the simulated network
    (``circuit.network``, frozen, unless a fault plan made a private
    copy).  ``simulator`` is a
    telemetry-free prototype that never runs: every machine runs its own
    ``_fork()`` of it, with its own generator, propensity state, kinetics
    scratch, kernel bindings and telemetry.  Every array is read-only.
    """

    circuit: SynthesizedCircuit
    network: Network
    clock_red_index: int
    clock_indices: tuple[int, ...]
    signal_indices: tuple[int, ...]
    signal_groups: Mapping[str, tuple[str, ...]]
    registers: Mapping[str, "Terms"]
    readouts: Mapping[str, "Terms"]
    clock: "Terms"
    #: ``(track, assertion key, terms)`` per register, then the clock.
    probed: tuple[tuple[str, str, "Terms"], ...]
    landing: tuple | None
    departure: MarginTable
    boundary: MarginTable
    settle: MarginTable
    simulator: Any


class Terms(tuple):
    """A value's :class:`SynthesizedCircuit` terms as ``(species index,
    coefficient)`` pairs, added left to right from 0.0 on one state or on
    a block of rows: either way, the bits of the circuit's getters."""

    def value(self, state: np.ndarray) -> float:
        total = 0.0
        for index, coefficient in self:
            total += coefficient * float(state[index])
        return total

    def rows(self, states: np.ndarray) -> np.ndarray:
        total = np.zeros(states.shape[0])
        for index, coefficient in self:
            total += coefficient * states[:, index]
        return total


def _build_template(engine: type, circuit: SynthesizedCircuit,
                    network: Network, scheme: RateScheme,
                    rates: np.ndarray | None, boundary_fraction: float,
                    options: MachineOptions) -> MachineTemplate:
    """The template of ``circuit`` simulating ``network`` on ``engine``
    (a machine class): index sets, landing plan, margin tables and the
    frozen prototype simulator.  A cache miss, a caller's
    :class:`SynthesizedCircuit` and a fault plan's copy all build here.
    """
    index = network.species_index
    species = network.species

    def indices(color: str) -> np.ndarray:
        return np.array([index(s) for s in species if s.color == color],
                        dtype=np.intp)

    def resolve(pairs: list[tuple[str, float]]) -> Terms:
        return Terms((index(name), weight) for name, weight in pairs)

    blue = indices("blue")
    red_index = index(circuit.clock.red.name)
    clock_indices = tuple(index(name)
                          for name in circuit.clock.species_names())
    # The positive-feedback accelerator parks part of the clock mass in
    # the red dimer I_C_red; the clock tests must count it, or the raw
    # C_red quantity never reaches the threshold.
    red_dimer = f"I_{circuit.clock.red.name}"
    dimer = index(red_dimer) if red_dimer in network else None
    design = circuit.design
    registers = {name: resolve(circuit.register_terms(name))
                 for name in design.delays}
    clock = resolve(circuit.clock_terms())
    # Adaptive-clocking bookkeeping (also feeds the fixed-mode
    # recoverable-dead-time attribution in telemetry): the green
    # category, the blue species outside the clock, and -- in adaptive
    # mode -- where each blue's boundary residual lands.
    green = indices("green")
    signal_blue = blue[~np.isin(blue, clock_indices)]
    landing = None
    if options.adaptive:
        if not options.settle_fraction < boundary_fraction:
            raise SimulationError(
                f"adaptive clocking needs settle_fraction "
                f"({options.settle_fraction}) below boundary_fraction "
                f"({boundary_fraction}): otherwise it waits on the "
                f"worst-case schedule it is meant to replace")
        landing = _landing_plan(network, circuit.protocol, blue)
    departure, boundary, settle = _margin_tables(
        circuit.clock.mass, red_index, dimer,
        engine._blue_tolerance(scheme), boundary_fraction,
        options.settle_fraction, blue, green, signal_blue)
    simulator = engine._simulator._prototype(network, scheme, rates)
    for table in (departure, boundary, settle):
        for array in (table.ptr, table.species, table.weights,
                      table.thresholds, table.signs):
            array.setflags(write=False)
    # Coloured signal species (every coloured species outside the clock:
    # dimers are uncoloured), in network order and per colour category
    # for the phase monitor and the transfer spans.
    signal = [i for i, s in enumerate(species)
              if s.role == "signal" and s.color is not None]
    return MachineTemplate(
        circuit=circuit, network=network,
        clock_red_index=red_index, clock_indices=clock_indices,
        signal_indices=tuple(signal),
        signal_groups=MappingProxyType({
            color: tuple(species[i].name for i in signal
                         if species[i].color == color)
            for color in COLORS}),
        registers=MappingProxyType(registers),
        readouts=MappingProxyType({
            name: resolve(circuit.readout_terms(name))
            for name in design.outputs}),
        clock=clock,
        probed=(*((f"reg_{name}", signal_key(f"reg_{name}"), terms)
                  for name, terms in registers.items()),
                ("clock_total", "clock_total", clock)),
        landing=landing, departure=departure, boundary=boundary,
        settle=settle, simulator=simulator)


def _synthesized_template(engine: type,
                          design: MatrixDesign | SignalFlowGraph,
                          scheme: RateScheme, rates: np.ndarray | None,
                          clock_mass: float, signed: bool | None,
                          gating: str, boundary_fraction: float,
                          options: MachineOptions) -> MachineTemplate:
    """A cache miss: reduce a graph to matrix form, synthesize a
    read-only copy of the design (every machine on the key shares it as
    ``machine.design``) and freeze its network before building the
    template on it."""
    if isinstance(design, SignalFlowGraph):
        design = design.to_matrix()
        design.validate()
        signed = design.signed if signed is None else signed
    private = MatrixDesign(
        design.name, tuple(design.inputs), tuple(design.outputs),
        tuple(design.delays), MappingProxyType(dict(design.coefficients)),
        MappingProxyType(dict(design.initial_state)))
    circuit = synthesize(private, clock_mass=clock_mass, signed=signed,
                         gating=gating, oscillator=options.oscillator)
    circuit.network.freeze()
    return _build_template(engine, circuit, circuit.network, scheme, rates,
                           boundary_fraction, options)


class _TemplateKey:
    """A template's cache key: hashed and compared on ``content`` alone,
    and carrying the call that builds the template on a miss."""

    __slots__ = ("content", "build")

    def __init__(self, content: tuple, build):
        self.content = content
        self.build = build

    def __hash__(self) -> int:
        return hash(self.content)

    def __eq__(self, other) -> bool:
        return (isinstance(other, _TemplateKey)
                and self.content == other.content)


def _template_key(engine: type, design: MatrixDesign | SignalFlowGraph,
                  scheme: RateScheme, rates: np.ndarray | None, *,
                  clock_mass: float, signed: bool | None, gating: str,
                  boundary_fraction: float,
                  options: MachineOptions) -> _TemplateKey:
    """The content key of a machine on ``design``: a graph's
    :meth:`~SignalFlowGraph.content_key` or a matrix design's matrix
    form, the scheme's values, explicit rates by value, the synthesis
    and clocking arguments, the options (oscillator included) and the
    engine class.  A graph is keyed on every call without being reduced,
    so a graph edited after a build misses; a miss reduces and validates
    it, and a malformed graph raises there."""
    if isinstance(design, SignalFlowGraph):
        shape: tuple = (SignalFlowGraph, design.content_key())
    else:
        # Synthesis validates too: a malformed design must raise its
        # SynthesisError before the key sorts its coefficients.
        design.validate()
        signed = design.signed if signed is None else signed
        shape = (
            MatrixDesign, design.name, tuple(design.inputs),
            tuple(design.outputs), tuple(design.delays),
            # The type keeps a float coefficient (which synthesis
            # refuses) apart from the equal Fraction.
            tuple((edge, type(coefficient), coefficient)
                  for edge, coefficient
                  in sorted(design.coefficients.items())),
            tuple(sorted(design.initial_state.items())))
    content = (
        engine, shape, tuple(sorted(scheme.values.items())),
        None if rates is None else (rates.shape, rates.tobytes()),
        clock_mass, signed, gating, boundary_fraction, options)
    return _TemplateKey(content, functools.partial(
        _synthesized_template, engine, design, scheme, rates, clock_mass,
        signed, gating, boundary_fraction, options))


@functools.lru_cache(maxsize=TEMPLATE_CACHE_SIZE)
def machine_templates(key: _TemplateKey) -> MachineTemplate:
    """The process-wide template cache: a bounded LRU keyed on content,
    never on object identity.  ``machine_templates.cache_info()`` reports
    hits and misses; exceptions are not cached."""
    return key.build()


def _landing_plan(network: Network, protocol, blue: np.ndarray) -> tuple:
    """Index-resolved blue seed transfers for the adaptive boundary.

    Adaptive clocking ends the cycle while each blue species still
    carries a sub-threshold residual; the residual is completed
    algebraically by moving it along the species' unique gated seed
    transfer -- the very reaction fixed clocking sits through.  A blue
    species with no (or an ambiguous) seed transfer leaves nowhere sound
    to land that residual, so adaptive mode refuses such circuits up
    front rather than corrupting their state.
    """
    transfers = landing_map(network, protocol, color="blue")
    plan = []
    for index in blue:
        name = network.species[index].name
        targets = transfers.get(name)
        if not targets:
            raise SynthesisError(
                f"adaptive clocking needs a gated seed transfer for every "
                f"blue species, but {name!r} has none: its boundary "
                f"residual cannot be landed")
        plan.append((int(index), tuple(
            (network.species_index(target), ratio)
            for target, ratio in targets)))
    return tuple(plan)


def _margin_tables(mass: float, red_index: int, dimer: int | None,
                   blue_tolerance: float, boundary_fraction: float,
                   settle_fraction: float, blue: np.ndarray,
                   green: np.ndarray, signal_blue: np.ndarray
                   ) -> tuple[MarginTable, MarginTable, MarginTable]:
    """The clock's margin tables ``(departure, boundary, settle)``.

    * ``departure`` is negative once the clock red (both halves of the
      ``I_C_red`` dimer included) has drained below half the clock mass:
      phase 1 is underway.  A cycle must depart before it may close,
      because at a fresh boundary the closing condition holds by
      construction.
    * ``boundary`` (fixed clocking) holds once the clock red is back
      above ``boundary_fraction`` of the clock mass and every blue
      species has drained to ``blue_tolerance``.
    * ``settle`` (adaptive clocking, see
      :meth:`_CycleDriver._settle_table`) holds once the state has
      *digitally* settled, instead of waiting out the worst-case
      schedule: the clock red is back above ``settle_fraction`` of
      nominal (the fraction exceeds 0.5, so the margin is negative right
      after departure), the green category has drained to
      ``blue_tolerance`` (every green -> blue transfer has completed, so
      the signal blues measure a *draining* tail, not one still being
      fed), and the signal blues are below the cycle's settling
      residual.  The clock's own blue is deliberately absent: its tail
      is the slowest drain of all and carries no digital information --
      the boundary landing and the quantisation top-up rotate it back to
      red exactly.
    """
    red, weights = [red_index], [1.0]
    if dimer is not None:
        red.append(dimer)
        weights.append(2.0)

    def clock(fraction: float) -> tuple:
        return red, weights, fraction * mass, 1

    def drained(indices: np.ndarray) -> tuple:
        return indices, [1.0] * indices.size, blue_tolerance, -1

    return (MarginTable([clock(0.5)]),
            MarginTable([clock(boundary_fraction), drained(blue)]),
            MarginTable([clock(settle_fraction), drained(green),
                         drained(signal_blue)]))


class _CycleDriver:
    """Everything a machine does except advance a cycle.

    An engine names its simulator class (``_simulator``) and its
    ``_blue_tolerance(scheme)``, calls :meth:`_setup`, sets
    ``quantization`` (0: boundaries left alone) and ``max_cycle_time``,
    and supplies ``_run_cycle(state, t_start, closing, keep, estimates)
    -> (boundary state, boundary time, segment)``: ``closing`` is the
    cycle's closing margin (:meth:`_closing_table`), the segment is the
    cycle's sampled rows as a :class:`Trajectory` when ``keep`` is set,
    else ``None``, and ``estimates`` is the run's own dict (empty at its
    first cycle) for what the engine carries from cycle to cycle, so no
    run depends on an earlier one.  The hooks at the end convert
    quantities.  ``template`` is the :class:`MachineTemplate` the
    machine runs on; the driver reads it in place.
    """

    _simulator: type

    def _setup(self, design: MatrixDesign | SignalFlowGraph |
               SynthesizedCircuit, scheme: RateScheme,
               rates: np.ndarray | None, *, clock_mass: float,
               signed: bool | None, gating: str,
               boundary_fraction: float, tracer, metrics,
               monitor: MonitorConfig | None, faults, probe,
               options: MachineOptions | None, **fork) -> None:
        """Adopt this design's template and fork its simulator; ``fork``
        holds the fork's own arguments (seed, solver settings)."""
        self.options = options = options or MachineOptions()
        self.boundary_fraction = boundary_fraction
        engine = type(self)
        if rates is not None:
            # A private copy: the template freezes it.
            rates = np.array(rates, dtype=float)
        if isinstance(design, SynthesizedCircuit):
            template = _build_template(engine, design, design.network,
                                       scheme, rates, boundary_fraction,
                                       options)
        else:
            template = machine_templates(_template_key(
                engine, design, scheme, rates, clock_mass=clock_mass,
                signed=signed, gating=gating,
                boundary_fraction=boundary_fraction, options=options))
        self.scheme = scheme
        # Fault injection: materialise the perturbed system up front, on
        # a copy of the template's network, so every derived quantity
        # below (tolerances, indices, simulator) is computed against the
        # *faulted* network and scheme.  Fault models never add or remove
        # species, so the index bookkeeping is identical either way.
        self.faults = faults
        if faults is not None and faults.active:
            setup = faults.materialize(template.network, scheme, rates)
            self.scheme = setup.scheme
            template = _build_template(engine, template.circuit,
                                       setup.network, setup.scheme,
                                       setup.rates, boundary_fraction,
                                       options)
        self.template = template
        self.circuit = template.circuit
        self.blue_tolerance = engine._blue_tolerance(self.scheme)
        self.tracer = ensure_tracer(tracer)
        self.metrics = ensure_metrics(metrics)
        self.probe = ensure_probe(probe)
        self.monitor_config = monitor
        # Telemetry (and the protocol monitor that rides on it) is active
        # when any of the hooks was supplied; otherwise every per-cycle
        # hook below is a single attribute check.
        self._telemetry = (self.tracer.enabled or self.metrics.enabled
                           or self.probe.enabled or monitor is not None)
        self.simulator = template.simulator._fork(
            tracer=tracer, metrics=metrics, **fork)

    def make_monitor(self) -> ProtocolMonitor | None:
        """A fresh protocol-health monitor for one run (or ``None``
        when telemetry is disabled)."""
        if not self._telemetry:
            return None
        config = self.monitor_config
        if config is None:
            # Sub-quantization residues are flushed at each boundary and
            # are "absent" to the protocol, so states carrying only
            # residue-scale mass must not be judged: scale the monitor's
            # floor to this machine's quantization threshold.  A machine
            # that does not quantise (SSA counts) judges from one
            # molecule up, so an empty cycle is skipped, not divided by.
            config = MonitorConfig(
                min_signal_mass=10.0 * self.quantization or 1.0)
        view = ProtocolView(
            color_groups=self.template.signal_groups,
            indicator_names={
                color: self.circuit.protocol.indicator_name(color)
                for color in COLORS},
            drained_color="blue",
            clock_mass=self.circuit.clock.mass)
        return ProtocolMonitor(view, config,
                               tracer=self.tracer, metrics=self.metrics)

    @property
    def network(self) -> Network:
        """The simulated network (the faulted copy when ``faults`` is
        active, the pristine synthesized network otherwise)."""
        return self.template.network

    @property
    def design(self) -> MatrixDesign:
        return self.circuit.design

    # -- clock conditions ----------------------------------------------------------
    #
    # Each condition is a margin table over state rows (see
    # :mod:`repro.crn.simulation.margins` and :func:`_margin_tables`):
    # one state gives a scalar, which keeps the ODE event path at
    # Python-float cost, and 2-D rows give one margin per row.  The ODE
    # engine turns the tables into terminal events; the SSA poll loop and
    # the telemetry scan them over sampled rows.

    def _settle_table(self, signal_mass: float) -> MarginTable:
        """The settling condition for a cycle starting with
        ``signal_mass``: its signal-blue residual scales with that mass
        (an R104-style boundary residual, kept under the monitor's warn
        fraction) and never drops below ``blue_tolerance``."""
        return self.template.settle.with_last_threshold(max(
            self.blue_tolerance, self.options.settle_residual * signal_mass))

    def _closing_table(self, signal_mass: float) -> MarginTable:
        """The margin that ends a cycle starting with ``signal_mass``
        under this clocking mode."""
        if self.options.adaptive:
            return self._settle_table(signal_mass)
        return self.template.boundary

    # -- adaptive landing -----------------------------------------------------------

    def _land_residuals(self, state: np.ndarray) -> np.ndarray:
        """Complete the sub-threshold blue tail algebraically.

        At an adaptive boundary every blue species holds at most its
        settling residual; the chemistry that would finish draining it
        is its gated seed transfer, whose completion fixed clocking
        waits for.  Moving the residual to the transfer's products keeps
        the readout identical (readouts count in-flight blues and landed
        targets alike) and leaves a state with the same digital content
        as a fixed boundary would have.
        """
        state = state.copy()
        for index, targets in self.template.landing:
            amount = state[index]
            if amount <= 0:
                continue
            state[index] = 0
            for target_index, ratio in targets:
                state[target_index] += self._landed(amount * ratio)
        return state

    # -- driving ------------------------------------------------------------------------

    def run(self, inputs: Mapping[str, Sequence[float]],
            extra_cycles: int = 1,
            record: bool = False) -> MachineRun:
        """Stream input samples through the machine.

        Parameters
        ----------
        inputs:
            one equal-length sample sequence per design input.
        extra_cycles:
            flush cycles appended after the last sample so the final
            outputs drain to the readout (>= 1 for full coverage).
        record:
            keep the stitched full trajectory (memory-heavy; off by
            default).
        """
        streams = self._check_streams(inputs)
        n_samples = len(next(iter(streams.values()))) if streams else 0
        n_cycles = n_samples + max(int(extra_cycles), 1)

        state = self._initial_state()
        spans: list[CycleSpan] = []
        cumulative = {name: [self._readout(state, name)]
                      for name in self.design.outputs}
        state_history = [self._register_values(state)]
        trajectory: Trajectory | None = None
        monitor = self.make_monitor()
        estimates: dict[str, float] = {}

        t = 0.0
        for cycle in range(n_cycles):
            if cycle < n_samples:
                state = self._inject(state, {name: streams[name][cycle]
                                             for name in streams})
            state, span, segment = self._advance_cycle(
                state, t, cycle, record, monitor, estimates)
            t = span.t1
            spans.append(span)
            for name in self.design.outputs:
                cumulative[name].append(self._readout(state, name))
            state_history.append(self._register_values(state))
            state = self._boundary_faults(cycle, self._quantize(state))
            if record:
                trajectory = segment if trajectory is None else \
                    trajectory.concat(segment)

        # cumulative[k] = sum of y[j] for j < k, so consecutive differences
        # recover the per-cycle output samples y[0], y[1], ...
        outputs = {name: np.diff(np.array(series))
                   for name, series in cumulative.items()}
        reference = {name: np.array(values) for name, values in
                     self.design.reference_run(
                         {k: list(v) for k, v in inputs.items()}).items()}
        diagnostics = monitor.finish() if monitor else []
        if self.probe.enabled:
            diagnostics = diagnostics + self.probe.finish(t)
        return MachineRun(outputs=outputs, reference=reference,
                          cycles=spans,
                          trajectory=trajectory,
                          state_history=state_history,
                          diagnostics=diagnostics)

    def stepper(self) -> "MachineStepper":
        """An incremental driver for closed-loop use.

        Unlike :meth:`run`, which needs the whole input stream up front,
        a stepper advances one cycle per call and returns that cycle's
        output increments -- so the caller can compute the next input
        from the previous output (feedback through an external plant,
        adaptive stimulus, etc.).
        """
        return MachineStepper(self)

    def _advance_cycle(self, state: np.ndarray, t_start: float,
                       index: int, record: bool,
                       monitor: ProtocolMonitor | None,
                       estimates: dict[str, float]
                       ) -> tuple[np.ndarray, CycleSpan, Trajectory | None]:
        """Run one cycle and record its span (plus telemetry if on).

        This is the single path both :meth:`run` and the stepper go
        through, so cycle bookkeeping cannot diverge between them.
        """
        telemetry = self._telemetry
        wall_start = perf_counter() if telemetry else 0.0
        signal_mass = self._signal_mass(state)
        closing = self._closing_table(signal_mass)
        state, t_end, segment = self._run_cycle(
            state, t_start, closing, record or telemetry, estimates)
        wall = perf_counter() - wall_start if telemetry else 0.0
        span = CycleSpan(index, t_start, t_end, wall)
        if self.options.adaptive:
            state = self._land_residuals(state)
        if telemetry:
            # The settle table also attributes fixed-mode dead time.
            settle = closing if self.options.adaptive \
                else self._settle_table(signal_mass)
            self._emit_cycle_telemetry(span, segment, state, settle, monitor)
        return state, span, segment

    def _emit_cycle_telemetry(self, span: CycleSpan, segment: Trajectory,
                              state: np.ndarray, settle: MarginTable,
                              monitor: ProtocolMonitor | None) -> None:
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc("machine.cycles")
            metrics.observe("machine.cycle_sim_time", span.duration)
            metrics.observe("machine.cycle_wall_seconds", span.wall)
        tracer = self.tracer
        probe = self.probe
        if tracer.enabled or probe.enabled:
            # The phase/transfer decomposition feeds both the trace and
            # the waveform probe; compute it once.  ``boundary_wait`` is
            # the recoverable dead time: how long the cycle kept running
            # after the adaptive settling condition first held.
            phases = self._phase_spans(segment, span)
            transfers = self._transfer_spans(segment, span, phases)
            boundary_wait = self._boundary_wait(segment, settle)
            if metrics.enabled:
                metrics.observe("machine.boundary_wait", boundary_wait)
        if tracer.enabled:
            tracer.emit_cycle(span)
            for color, t0, t1 in phases:
                tracer.emit_span(f"phase:{color}", "protocol", t0, t1,
                                 {"cycle": span.index, "color": color})
                if metrics.enabled:
                    metrics.observe(f"machine.phase_sim_time[{color}]",
                                    t1 - t0)
            for name, t0, t1, args in transfers:
                tracer.emit_span(name, "protocol", t0, t1, args)
            tracer.emit_event("boundary", "machine", span.t1,
                              {"cycle": span.index,
                               "boundary_wait": boundary_wait})
        if probe.enabled:
            self._probe_cycle(span, segment, state, phases, transfers,
                              boundary_wait)
        if monitor is not None:
            # Conservation is judged on the pre-replenishment state: the
            # boundary top-up in _quantize would mask the drift.
            monitor.observe_cycle(
                span, segment, clock_total=self.template.clock.value(state))

    def _boundary_wait(self, segment: Trajectory,
                       settle: MarginTable) -> float:
        """Recoverable dead time within one cycle segment.

        Simulated time between the first post-departure sample at which
        the adaptive settling condition ``settle`` holds and the cycle's
        actual end.  Under fixed clocking this is the margin adaptive
        clocking recovers; under adaptive clocking it is ~0 by
        construction (bounded by the sample spacing).  Sample-grid
        resolution is deliberate: this is attribution telemetry, not an
        event.
        """
        states = segment.states
        if states.shape[0] == 0:
            return 0.0
        _, row = scan(states, self.template.departure, settle)
        if row is None:
            return 0.0
        times = segment.times
        return max(float(times[-1]) - float(times[row]), 0.0)

    def _probe_cycle(self, span: CycleSpan, segment: Trajectory,
                     state: np.ndarray, phases, transfers,
                     boundary_wait: float = 0.0) -> None:
        """Chart registers and clock mass on the waveform probe and
        stream the boundary sample (the assertion namespace).

        Runs on the *pre-quantisation* state, before
        :meth:`_boundary_faults` -- so a clock glitch injected at this
        boundary is visible in the *next* boundary's ``clock_total``
        sample, and an assertion fires the cycle after the fault, long
        before any end-of-run scorer compares outputs.
        """
        probe = self.probe
        # Every ``rows // samples_per_cycle``-th segment row (the ODE
        # machine's ~60-row grid charts all 60-61 at the default 32),
        # then the boundary state at ``t1``; the change-lists compress
        # plateaus away.
        stride = max(1, len(segment) // max(probe.samples_per_cycle, 1))
        rows = segment.states[::stride]
        times = np.append(segment.times[::stride], span.t1)
        values = {"cycle": span.index, "t": span.t1,
                  "period": span.duration}
        columns = {}
        for track, key, terms in self.template.probed:
            value = terms.value(state)
            columns[track] = np.append(terms.rows(rows), value)
            values[key] = value
        probe.observe_cycle(span, phases, transfers, boundary_wait,
                            times, columns)
        probe.boundary(span.index, span.t1, values)

    def _phase_spans(self, segment: Trajectory, span: CycleSpan
                     ) -> list[tuple[str, float, float]]:
        """Dominant-clock-colour windows within one cycle segment."""
        dominant = np.argmax(segment.states[:, self.template.clock_indices],
                             axis=1)
        # A window starts wherever the dominant colour changes.
        starts = (np.flatnonzero(np.diff(dominant)) + 1).tolist()
        times = segment.times
        spans: list[tuple[str, float, float]] = []
        for start, end in zip([0, *starts], [*starts, None]):
            t0 = max(float(times[start]), span.t0)
            t1 = span.t1 if end is None else min(float(times[end]), span.t1)
            if t1 > t0:
                spans.append((COLORS[dominant[start]], t0, t1))
        return spans

    def _transfer_spans(self, segment: Trajectory, span: CycleSpan,
                        phases: list[tuple[str, float, float]]
                        ) -> list[tuple[str, float, float, dict]]:
        """Signal hand-off windows, nested inside their phase spans.

        The ``source -> target`` transfer window starts when the source
        colour's signal mass begins to drain (below 95% of its in-cycle
        peak, after the peak) and ends when the drain completes (below
        10%); it is clamped into the phase span containing its start so
        the trace nests cycle > phase > transfer.
        """
        results = []
        for source, target in _ROTATION:
            members = self.template.signal_groups[source]
            if not members:
                continue
            series = segment.total(members)
            peak_index = int(np.argmax(series))
            peak = float(series[peak_index])
            if peak < self.quantization:
                continue
            tail = series[peak_index:]
            below = np.nonzero(tail < 0.1 * peak)[0]
            if below.size == 0:
                continue
            end = peak_index + int(below[0])
            draining = np.nonzero(tail[:end - peak_index + 1]
                                  < 0.95 * peak)[0]
            start = peak_index + int(draining[0]) if draining.size else end
            t0 = float(segment.times[start])
            t1 = float(segment.times[end])
            for color, p0, p1 in phases:
                if p0 <= t0 <= p1:
                    t1 = min(max(t1, t0), p1)
                    break
            if t1 <= t0:
                continue
            results.append((f"transfer:{source}->{target}", t0, t1,
                            {"cycle": span.index, "quantity": peak}))
        return results

    def _quantize(self, state: np.ndarray) -> np.ndarray:
        """Round sub-threshold residues to zero (boundary discreteness).

        Applied once per cycle boundary, after outputs are sampled, so the
        flushed amount (at most ``quantization`` per species) shows up as
        bounded readout noise rather than silent drift.  The clock is then
        topped back up to its nominal mass: scavenging and quantisation
        erode the pacemaker by a few hundredths of a unit per cycle, and
        without replenishment (chemically, a reservoir species feeding the
        clock) the oscillator amplitude would drift below any fixed
        boundary threshold after enough cycles.  A machine with
        ``quantization`` 0 leaves its boundaries alone.
        """
        if self.quantization <= 0:
            return state
        state = state.copy()
        state[state < self.quantization] = 0.0
        deficit = self.circuit.clock.mass - self.template.clock.value(state)
        if deficit > 0:
            state[self.template.clock_red_index] += deficit
        return state

    def _boundary_faults(self, cycle: int, state: np.ndarray) -> np.ndarray:
        """Apply runtime fault hooks (clock glitches...) at a boundary.

        Runs *after* readout and quantisation, so an injected
        perturbation survives until the chemistry (or the next
        boundary's replenishment) responds to it.
        """
        if self.faults is not None and self.faults.active:
            state = self._coerce(self.faults.on_boundary(
                cycle, np.asarray(state, dtype=float), self.network))
        return state

    # -- state accessors -----------------------------------------------------------------

    def _check_streams(self, inputs: Mapping[str, Sequence[float]]
                       ) -> dict[str, list]:
        """Check stream names, lengths and every sample up front;
        returns the coerced samples."""
        expected = set(self.design.inputs)
        provided = set(inputs)
        if provided != expected:
            raise SynthesisError(
                f"input streams {sorted(provided)} do not match design "
                f"inputs {sorted(expected)}")
        lengths = {len(v) for v in inputs.values()}
        if len(lengths) > 1:
            raise SynthesisError("input streams must have equal length")
        return {name: [self._sample(name, value) for value in stream]
                for name, stream in inputs.items()}

    def _inject(self, state: np.ndarray,
                samples: Mapping[str, float]) -> np.ndarray:
        """Add coerced input samples to their rails."""
        state = state.copy()
        for name, value in samples.items():
            rail = "p" if value >= 0 else "n"
            if rail == "n" and not self.circuit.signed:
                raise SynthesisError(
                    f"negative input sample for unsigned design: "
                    f"{name}={value}")
            index = self.network.species_index(
                self.circuit.source_species[name][rail])
            state[index] += abs(value)
        return state

    def _readout(self, state: np.ndarray, output: str) -> float:
        return self.template.readouts[output].value(state)

    def _register_values(self, state: np.ndarray) -> dict[str, float]:
        return {name: terms.value(state)
                for name, terms in self.template.registers.items()}

    def _signal_mass(self, state: np.ndarray) -> float:
        total = 0.0
        for index in self.template.signal_indices:
            total += float(state[index])
        return total

    # -- engine hooks (continuous quantities by default) ------------------------------

    def _initial_state(self) -> np.ndarray:
        return self._coerce(self.network.initial_vector())

    def _sample(self, name: str, value) -> float:
        """One input sample, checked and coerced for injection."""
        number = float(value)
        if not math.isfinite(number):
            raise SynthesisError(
                f"input sample {name}={number!r} is not finite")
        return number

    def _coerce(self, state: np.ndarray) -> np.ndarray:
        """A perturbed state back in the engine's domain."""
        return np.maximum(state, 0.0)

    def _landed(self, amount):
        """The quantity a landing transfer delivers."""
        return amount


class SynchronousMachine(_CycleDriver):
    """Drives one synthesized circuit under mass-action ODEs."""

    _simulator = OdeSimulator

    def __init__(self, design: MatrixDesign | SignalFlowGraph |
                 SynthesizedCircuit,
                 scheme: RateScheme | None = None,
                 rates: np.ndarray | None = None,
                 clock_mass: float = 20.0,
                 signed: bool | None = None,
                 gating: str = "catalytic",
                 boundary_fraction: float = 0.9,
                 max_cycle_time: float | None = None,
                 method: str = "native-bdf",
                 rtol: float = 1e-7, atol: float = 1e-9,
                 tracer=None, metrics=None,
                 monitor: MonitorConfig | None = None,
                 faults=None, probe=None,
                 options: MachineOptions | None = None):
        self._setup(
            design, scheme or RateScheme(), rates, clock_mass=clock_mass,
            signed=signed, gating=gating,
            boundary_fraction=boundary_fraction, tracer=tracer,
            metrics=metrics, monitor=monitor, faults=faults, probe=probe,
            options=options, method=method, rtol=rtol, atol=atol)
        # Sub-threshold residues are rounded to zero at each boundary.
        # On the ODE's continuum they accumulate into mixed-residual
        # deadlocks; physically they are fractions of a single molecule
        # (an exact stochastic simulation has literally zero copies there
        # almost always), so flushing them models discreteness rather than
        # idealising the chemistry.
        self.quantization = self.blue_tolerance
        # Default cycle timeout: generous multiple of the slow time scale.
        self.max_cycle_time = _cycle_deadline(max_cycle_time,
                                              500.0 / self.scheme.slow)

    @staticmethod
    def _blue_tolerance(scheme: RateScheme) -> float:
        """The boundary requires the blue category to drain to the
        residual scale before a cycle ends.  The tolerance is a small
        multiple of the absence threshold (a colour with more than
        ``amp / fast`` total quantity pins its indicator off): anything
        under it is flushed by the boundary quantisation, and the
        headroom keeps the boundary reachable when per-reaction jitter
        moves the actual threshold around its nominal value."""
        theta = scheme.values.get("amp", 30.0 * scheme.slow) / scheme.fast
        return 3.0 * theta

    def _run_cycle(self, state: np.ndarray, t_start: float,
                   closing: MarginTable, keep: bool,
                   estimates: dict[str, float]
                   ) -> tuple[np.ndarray, float, Trajectory]:
        """Integrate to departure, then to the ``closing`` event.

        ``estimates`` carries the run's previous cycle: its period and
        segment durations, which plan the sample grid and hint the
        LSODA walk's chunked event search (cycle jitter is a few
        percent, so the previous duration is an excellent estimate).
        """
        # Each segment's sample grid spans max_cycle_time (the event cuts
        # it short), so hitting ``_SAMPLES_PER_CYCLE`` points *inside*
        # the actual cycle needs the grid spacing planned from a period
        # estimate -- the previous cycle's duration.  Telemetry and the
        # monitors need that density for the phase and drain statistics;
        # without them only the final state matters.
        if keep:
            period = estimates.get("period") or 10.0 / self.scheme.slow
            spacing = period / _SAMPLES_PER_CYCLE
            n_samples = min(int(self.max_cycle_time / spacing) + 2, 50_000)
        else:
            n_samples = 8
        departure = self.simulator.simulate(
            t_start + self.max_cycle_time, t_start=t_start, initial=state,
            n_samples=n_samples,
            events=[MarginEvent(self.template.departure, -1.0)],
            event_hint=estimates.get("departure"))
        if "event" not in departure.meta:
            raise SimulationError(
                f"clock did not leave the boundary within "
                f"{self.max_cycle_time:g} time units after t={t_start:g}: "
                f"the oscillator appears stalled")
        # The LSODA fast path supports exactly one terminal directional
        # event per segment, so the adaptive settle margin *replaces* the
        # fixed boundary margin rather than racing it.  Separate hint keys
        # keep the warm-start estimates honest if a caller alternates.
        estimate_key = "settle" if self.options.adaptive else "boundary"
        boundary = self.simulator.simulate(
            departure.t_final + self.max_cycle_time,
            t_start=departure.t_final, initial=departure.final(),
            n_samples=n_samples,
            events=[MarginEvent(closing, 1.0)],
            event_hint=estimates.get(estimate_key))
        if "event" not in boundary.meta:
            raise SimulationError(
                f"no cycle boundary within {self.max_cycle_time:g} time "
                f"units after t={departure.t_final:g}: machine appears "
                f"stalled (check rate separation and blue_tolerance)")
        estimates["departure"] = departure.t_final - t_start
        estimates[estimate_key] = boundary.t_final - departure.t_final
        segment = departure.concat(boundary)
        estimates["period"] = segment.t_final - t_start
        return segment.final(), segment.t_final, segment


class MachineStepper:
    """Cycle-at-a-time driver (see :meth:`SynchronousMachine.stepper`).

    Because an output computed in cycle n is read out during cycle n+1,
    :meth:`step` returns the *previous* cycle's outputs; call
    :meth:`flush` once after the last input to collect the final sample.
    """

    def __init__(self, machine: _CycleDriver):
        self.machine = machine
        self.state = machine._initial_state()
        self.time = 0.0
        self.spans: list[CycleSpan] = []
        self.monitor = machine.make_monitor()
        self._estimates: dict[str, float] = {}
        self._previous = {name: machine._readout(self.state, name)
                          for name in machine.design.outputs}

    @property
    def cycles(self) -> int:
        return len(self.spans)

    def diagnostics(self) -> list[RuntimeDiagnostic]:
        """Protocol-health diagnostics accumulated so far (finalises the
        monitor, including the run-level jitter check, plus any
        waveform-assertion violations)."""
        found = self.monitor.finish() if self.monitor else []
        if self.machine.probe.enabled:
            found = found + self.machine.probe.diagnostics()
        return found

    def step(self, inputs: Mapping[str, float]) -> dict[str, float]:
        """Inject one sample per input, advance one cycle, and return
        the output increments observed during that cycle."""
        streams = self.machine._check_streams(
            {name: [value] for name, value in inputs.items()})
        self.state = self.machine._inject(
            self.state, {name: stream[0] for name, stream in streams.items()})
        return self._advance()

    def flush(self) -> dict[str, float]:
        """Advance one cycle with zero input (drains the pipeline)."""
        return self._advance()

    def registers(self) -> dict[str, float]:
        """Current delay-register values."""
        return self.machine._register_values(self.state)

    def _advance(self) -> dict[str, float]:
        machine = self.machine
        cycle = len(self.spans)
        self.state, span, _ = machine._advance_cycle(
            self.state, self.time, cycle, record=False,
            monitor=self.monitor, estimates=self._estimates)
        self.time = span.t1
        self.spans.append(span)
        outputs = {}
        for name in machine.design.outputs:
            total = machine._readout(self.state, name)
            outputs[name] = total - self._previous[name]
            self._previous[name] = total
        self.state = machine._boundary_faults(
            cycle, machine._quantize(self.state))
        return outputs

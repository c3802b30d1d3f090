"""Gillespie stochastic simulation (direct method).

Molecular computation ultimately runs on integer molecule counts; the
iterative (nonlinear) constructs in :mod:`repro.core.iterative` are *exact*
only in that discrete semantics, so the test suite exercises them here.

The inner loop is incremental: a precomputed reaction dependency graph
(reaction j -> reactions with a reactant among the species j's net change
touches) means each firing re-evaluates only the affected propensities,
instead of the full O(R * reactants) Python-loop recompute per event.
Affected entries are recomputed exactly from the current counts, so the
propensity vector never drifts; the cumulative-sum selection draw is
shared with tau-leaping via :mod:`repro.crn.simulation.sampling`.

The event loop runs compiled (:mod:`repro.crn.native`) and draws from
numpy's own bit generator, so it produces the same realisation, bit for
bit, as its Python twin :meth:`IncrementalPropensities.advance_python`.
The twin runs when the kernel is unavailable and when the generator is
a ``Generator`` subclass, whose draws the kernel cannot see.

A seeded ensemble runs through the same loop in one compiled call
(:meth:`StochasticSimulator.simulate_ensemble`), with
:meth:`IncrementalPropensities.ensemble_python` as its twin, and so do
a machine's poll chunks, scanned on its clock's margin tables
(:meth:`StochasticSimulator.poll`, twin
:meth:`IncrementalPropensities.poll_python`).
"""

from __future__ import annotations

import copy
import ctypes
import math
from collections.abc import Mapping, Sequence
from contextlib import ExitStack
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.crn import native
from repro.crn.kinetics import (MassActionKinetics, build_kinetics,
                                shallow_copy)
from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.margins import MarginTable, scan
from repro.crn.simulation.result import (EnsembleResult, Trajectory,
                                        check_time_span)
from repro.crn.simulation.sampling import (NO_POSITIVE_PROPENSITY,
                                           select_reaction)
from repro.errors import SimulationError
from repro.obs.metrics import ensure_metrics
from repro.obs.tracer import ensure_tracer

#: Runs per ``mean_trajectory`` chunk.  The chunks fix the floating-point
#: summation order of an ensemble mean, and bound its sample buffer at
#: this many runs.
ENSEMBLE_CHUNK_RUNS = 8

#: Events between exact full-propensity rebuilds in
#: :class:`IncrementalPropensities`.  The order<=2 incremental updates
#: are exact in floating point (the gather-buffer values are exact
#: half-integers), so the periodic rebuild is belt-and-braces hardening
#: against drift, not a behaviour change -- it recomputes the same bits.
PROPENSITY_REBUILD_INTERVAL = 4096

#: The compiled loop counts events in an int64.
_INT64_MAX = np.iinfo(np.int64).max

#: Initial amounts are float64: from 2**53 on, consecutive integers
#: share one value, so no count there is exact.
_EXACT_COUNTS = 2.0 ** 53


#: ``PyCapsule_GetPointer`` with its own prototype, so no other user of
#: ``ctypes.pythonapi`` sees its argument types change.
_capsule_pointer = ctypes.PYFUNCTYPE(
    ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
    ("PyCapsule_GetPointer", ctypes.pythonapi))


def _bitgen(ffi, rng: np.random.Generator):
    """``rng``'s ``bitgen_t *``, valid while ``rng`` is alive: read from
    the bit generator's capsule (its ``ctypes`` interface holds the same
    pointer, but builds itself on first access, at several times the
    cost)."""
    return ffi.cast("void *", _capsule_pointer(rng.bit_generator.capsule,
                                               b"BitGenerator"))


def _index_buffer(kinetics: MassActionKinetics
                  ) -> tuple[np.ndarray, np.ndarray, dict[str, int]]:
    """The compiled loop's int64 index arrays packed into one buffer,
    the ``e!`` of each order >= 3 exponent, and each index array's
    offset into the buffer.  Built once per kinetics and shared by its
    views, so every machine of a template reads one buffer.

    ``dep_other`` runs beside ``dependency_csr()``'s rows: for reaction
    ``j`` and its dependent ``i``, the gather slot of a factor of ``a_i``
    that firing ``j`` leaves alone.  When that factor is 0, ``a_i`` was
    zero and stays zero, so the loop need not recompute it.  It is the
    constant slot ``n_species`` (1.0, never skipped) when ``j`` changes
    both factors, and for order >= 3 rows, whose factor slots are both
    that slot.
    """
    if kinetics._ssa_index is not None:
        return kinetics._ssa_index
    k = kinetics
    n_s = k.n_species
    fire_ptr, fire_species, fire_delta = k.fire_csr()
    dep_ptr, dep_rows = k.dependency_csr()
    # touched[j, s]: firing j changes species s; column n_s is the
    # constant slot, which nothing changes.
    touched = np.zeros((k.n_reactions, n_s + 1), dtype=bool)
    touched[np.repeat(np.arange(k.n_reactions), np.diff(fire_ptr)),
            fire_species] = True
    firing = np.repeat(np.arange(k.n_reactions), np.diff(dep_ptr))
    slot_a = k._factor_a[dep_rows]
    slot_b = k._stoch_factor_b[dep_rows]
    # A half-pair slot n_s + 1 + s moves with species s.
    a_moves, b_moves = (touched[firing, slot % (n_s + 1)]
                        for slot in (slot_a, slot_b))
    dep_other = np.where(a_moves, np.where(b_moves, n_s, slot_b), slot_a)
    generic = [reactants for _, reactants in k._generic_lists]
    generic_of = np.full(k.n_reactions, -1)
    generic_of[k._generic_rows] = np.arange(len(generic))
    fields = {
        "factor_a": k._factor_a,
        "factor_b": k._stoch_factor_b,
        "fire_ptr": fire_ptr,
        "fire_species": fire_species,
        "fire_delta": fire_delta,
        "dep_ptr": dep_ptr,
        "dep_rows": dep_rows,
        "dep_other": dep_other,
        "generic_of": generic_of,
        "generic_ptr": np.cumsum([0] + [len(r) for r in generic]),
        "generic_species": [s for r in generic for s, _ in r],
        "generic_exp": [e for r in generic for _, e in r],
    }
    arrays = [np.asarray(value, dtype=np.int64).ravel()
              for value in fields.values()]
    offsets = dict(zip(fields, np.cumsum([0] + [a.size for a in arrays])
                       .tolist()))
    packed = np.concatenate(arrays)
    facts = np.array([float(math.factorial(e))
                      for r in generic for _, e in r])
    packed.setflags(write=False)
    facts.setflags(write=False)
    kinetics._ssa_index = (packed, facts, offsets)
    return kinetics._ssa_index


def _over_budget(max_events, t: float) -> str:
    return f"SSA exceeded {max_events} events at t={t:g}"


def _trial_error(message, trial: int) -> SimulationError:
    """A failed ensemble trial's error: what ``simulate`` would raise on
    its generator, plus the trial index."""
    return SimulationError(f"{message} (ensemble trial {trial})")


class IncrementalPropensities:
    """Dependency-graph propensity state for one kinetics + constants.

    Owns the integer counts, the gather buffer and the propensity vector
    ``a``, and runs the event loop over them (:meth:`advance`).
    :meth:`fire` applies one reaction's net stoichiometry and
    re-evaluates only the dependent propensities (exactly, from the
    updated counts -- untouched entries stay valid, so the vector never
    accumulates drift).  No running total is maintained: the simulators
    read it off the cumulative sum they compute for the selection draw
    anyway, so incremental total bookkeeping would be pure overhead.

    Two layers of hardening keep the vector sound even if a future
    kinetics change makes the incremental update inexact: updates are
    clamped at zero (a tiny negative propensity would poison the
    cumulative-sum selection draw), and every ``rebuild_interval``
    events :meth:`rebuild` recomputes the full vector exactly from the
    current counts.  :meth:`reset` and :meth:`rebuild` write in place and
    never rebind ``counts``, ``a`` or the gather buffer: the simulators
    alias ``self.a``, and the compiled loop holds pointers to all three.
    """

    def __init__(self, kinetics: MassActionKinetics, constants: np.ndarray,
                 rebuild_interval: int = PROPENSITY_REBUILD_INTERVAL):
        self.kinetics = kinetics
        self.constants = np.asarray(constants, dtype=float)
        n_s, n_r = kinetics.n_species, kinetics.n_reactions
        # Per-reaction structure in CSR form, read by the compiled loop
        # and by the twin's fire plan: the net change (species and
        # integer deltas) and the dependent reactions.  The kinetics
        # computes both once, so every state on it shares them.
        self._fire_ptr, self._fire_species, self._fire_delta = \
            kinetics.fire_csr()
        self._dep_ptr, self._dep_rows = kinetics.dependency_csr()
        self._fire_plan = None  # built by the twin's first fire()
        self._native = None     # compiled-loop binding, bound lazily
        self.counts = np.zeros(n_s, dtype=np.int64)
        self._cb = np.ones(2 * (n_s + 1))
        self.a = np.zeros(n_r)
        self.rebuild_interval = int(rebuild_interval)
        if self.rebuild_interval < 1:
            raise SimulationError("rebuild_interval must be >= 1")
        self._events_since_rebuild = 0

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state["_native"] = None  # cffi handles do not pickle; rebind lazily
        return state

    def _build_fire_plan(self) -> list[tuple]:
        """One tuple per reaction so :meth:`fire` pays a single lookup:
        (species touched, integer deltas, gather-buffer slots -- the raw
        count slot and the (n-1)/2 half-pair slot -- and their float
        deltas, dependent reactions, their gather indices and constants,
        order >= 3 entries among them)."""
        kinetics = self.kinetics
        n_s = kinetics.n_species
        generic = set(kinetics._generic_rows.tolist())
        plan = []
        for j in range(kinetics.n_reactions):
            species = self._fire_species[self._fire_ptr[j]:
                                         self._fire_ptr[j + 1]]
            delta = self._fire_delta[self._fire_ptr[j]:self._fire_ptr[j + 1]]
            dep = self._dep_rows[self._dep_ptr[j]:self._dep_ptr[j + 1]]
            plan.append((species, delta,
                         np.concatenate([species, species + n_s + 1]),
                         np.concatenate([delta, delta * 0.5]),
                         dep, kinetics._factor_a[dep],
                         kinetics._stoch_factor_b[dep], self.constants[dep],
                         [(pos, int(i)) for pos, i in enumerate(dep)
                          if int(i) in generic]))
        return plan

    def reset(self, counts: np.ndarray) -> None:
        """Adopt a full state vector and recompute every propensity."""
        self.counts[:] = counts
        self.rebuild()

    def rebuild(self) -> None:
        """Recompute every propensity exactly from the current counts."""
        self.a[:] = self.kinetics.propensities(self.counts, self.constants)
        self._cb[:] = self.kinetics._cbuf
        self._events_since_rebuild = 0

    def fire(self, j: int) -> None:
        """Apply reaction ``j`` and update the dependent propensities."""
        plan = self._fire_plan
        if plan is None:
            plan = self._fire_plan = self._build_fire_plan()
        species, delta, slots, slot_delta, dep, dep_a, dep_b, dep_c, \
            generic = plan[j]
        self.counts[species] += delta
        cb = self._cb
        cb[slots] += slot_delta
        self._events_since_rebuild += 1
        if self._events_since_rebuild >= self.rebuild_interval:
            self.rebuild()
            return
        if dep.size == 0:
            return
        fresh = dep_c * cb[dep_a]
        fresh *= cb[dep_b]
        # Clamp at zero: a rounding-induced tiny negative entry would
        # bias the cumulative-sum draw.  (Exact updates only ever
        # produce -0.0 here, which the clamp normalises to +0.0.)
        np.maximum(fresh, 0.0, out=fresh)
        if generic:
            for pos, i in generic:
                fresh[pos] = self.kinetics.propensity_of(
                    i, self.counts, self.constants)
        self.a[dep] = fresh

    def advance(self, rng: np.random.Generator, t: float, t_final: float,
                sample_times: np.ndarray, samples: np.ndarray,
                max_events: int, firings: np.ndarray | None
                ) -> tuple[float, int, int, bool]:
        """Fire events from time ``t`` until ``t_final``, absorption or
        the ``max_events`` budget.

        The counts before each event are written to ``samples`` (shape
        ``(len(sample_times), n_species)``, float64) at every grid point
        from index 1 the run crosses, and ``firings`` (int64 per
        reaction, or ``None``) counts each firing.  Returns the final
        time, the number of events, the next unwritten sample index, and
        whether the budget ran out.

        Runs the compiled loop when the kernel is available and ``rng``
        is a plain :class:`numpy.random.Generator`, and the Python twin
        :meth:`advance_python` otherwise; the two agree bitwise.
        """
        loop = self._loop()
        if loop and type(rng) is np.random.Generator:
            return loop.run(self, rng, t, t_final, sample_times, samples,
                            max_events, firings)
        return self.advance_python(rng, t, t_final, sample_times, samples,
                                   max_events, firings)

    def _loop(self):
        """The compiled-loop binding, bound on first use; ``False`` when
        there is no kernel."""
        if self._native is None:
            self._native = _bind_loop(self)
        return self._native

    def advance_python(self, rng, t, t_final, sample_times, samples,
                       max_events, firings) -> tuple[float, int, int, bool]:
        """Python twin of the compiled :meth:`advance` (same draws, same
        bits)."""
        a = self.a  # updated in place by fire() and rebuild()
        fire = self.fire
        grid = sample_times.tolist()
        n_times = len(grid)
        next_sample = 1
        events = 0
        while t < t_final:
            cumulative = a.cumsum()
            total = cumulative[-1]
            if total <= 0.0:
                break  # No reaction can fire; state is absorbing.
            t += rng.exponential(1.0 / total)
            if t > t_final:
                break
            while next_sample < n_times and grid[next_sample] <= t:
                samples[next_sample] = self.counts
                next_sample += 1
            if events >= max_events:
                return t, events, next_sample, True
            j = select_reaction(a, rng.random(),
                                cumulative=cumulative, total=total)
            fire(j)
            events += 1
            if firings is not None:
                firings[j] += 1
        return t, events, next_sample, False

    def poll_python(self, rng, counts, grid, departure, closing, departed,
                    t, until, chunks, rows, max_events, firings) -> tuple:
        """Python twin of the compiled poll loop behind
        :meth:`StochasticSimulator.poll`: per chunk, :meth:`reset`,
        :meth:`advance_python` and :func:`margins.scan`.

        ``counts`` holds the first chunk's start and is overwritten with
        the closing row or the next chunk's start; ``rows`` is ``None``
        or one ``(grid.size, n_species)`` block per chunk.  Returns the
        closing row's grid index (or ``None``), the chunks run, whether
        the cycle has departed, the next chunk's start time (the closing
        chunk's when a row closed), the events fired, and the chunk time
        at which the ``max_events`` budget ran out (or ``None``).
        """
        interval = float(grid[-1])
        scratch = None if rows is not None else \
            np.empty((grid.size, counts.size))
        events = 0
        for chunk in range(chunks):
            samples = scratch if rows is None else rows[chunk]
            self.reset(counts)
            samples[0] = counts
            t_chunk, fired, next_sample, exceeded = self.advance_python(
                rng, 0.0, interval, grid, samples, max_events, firings)
            events += fired
            if exceeded:
                return None, chunk + 1, departed, t, events, t_chunk
            samples[next_sample:] = self.counts
            departed, row = scan(samples[1:], departure, closing, departed)
            if row is not None:
                counts[:] = np.rint(samples[row + 1])
                return row + 1, chunk + 1, departed, t, events, None
            counts[:] = np.rint(samples[-1])
            t += interval
            if any(t - origin > span for origin, span in until):
                break
        return None, chunk + 1, departed, t, events, None

    def ensemble_python(self, rngs, initial, t_start, t_final,
                        sample_times, max_events, firings
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Python twin of the compiled ensemble loop: :meth:`reset` and
        :meth:`advance_python` per trial.  Returns the samples
        ``(trials, n_times, species)`` and the per-trial event counts."""
        states = np.empty((len(rngs), sample_times.size, initial.size))
        events = np.zeros(len(rngs), dtype=np.int64)
        for trial, (rng, samples) in enumerate(zip(rngs, states)):
            self.reset(initial)
            samples[0] = initial
            try:
                t, events[trial], next_sample, exceeded = \
                    self.advance_python(rng, t_start, t_final, sample_times,
                                        samples, max_events, firings)
            except SimulationError as exc:  # an absorbing draw
                raise _trial_error(exc, trial) from exc
            if exceeded:
                raise _trial_error(_over_budget(max_events, t), trial)
            samples[next_sample:] = self.counts
        return states, events


class _CompiledLoop:
    """One propensity state packed into the kernel's ``repro_ssa`` struct.

    The struct points at the state's own counts, gather buffer,
    propensities and constants, which the state updates in place, at the
    kinetics' shared index buffer (:func:`_index_buffer`), and at the
    binding's own scratch: the cumulative sums and the live list.
    :meth:`run` and :meth:`ensemble` add the call's sample grid, outputs
    and limits and the generators' ``bitgen_t``.
    """

    def __init__(self, module, state: IncrementalPropensities):
        ffi, lib = module.ffi, module.lib
        self._ffi = ffi
        self._run = lib.repro_ssa_run
        self._ensemble = lib.repro_ssa_ensemble
        self._poll = lib.repro_ssa_poll
        self._exceeded = lib.REPRO_SSA_MAX_EVENTS
        self._absorbing = lib.REPRO_SSA_ABSORBING
        k = state.kinetics
        packed, facts, offsets = _index_buffer(k)
        ctx = ffi.new("repro_ssa *")
        base = ffi.from_buffer("int64_t[]", packed)
        for name, start in offsets.items():
            setattr(ctx, name, base + start)
        self._live = [base]  # every buffer the struct points into
        for name, ctype, array in (
                ("generic_fact", "double[]", facts),
                ("constants", "double[]", state.constants),
                ("cumulative", "double[]", np.empty(k.n_reactions)),
                ("live", "int64_t[]", np.empty(k.n_reactions, np.int64)),
                ("counts", "int64_t[]", state.counts),
                ("cb", "double[]", state._cb),
                ("a", "double[]", state.a)):
            self._live.append(ffi.from_buffer(ctype, array))
            setattr(ctx, name, self._live[-1])
        ctx.n_species = self._n_species = k.n_species
        ctx.n_reactions = self._n_reactions = k.n_reactions
        self.ctx = ctx
        self._rng = None
        self._lock = None

    def _limits(self, state, sample_times, firings, max_events,
                t_final) -> None:
        """Point the struct at a call's grid, firing counters and limits
        (the caller's arrays own the memory)."""
        if (sample_times.dtype != np.float64
                or (firings is not None
                    and firings.shape != (self._n_reactions,))):
            raise ValueError("sample buffers do not fit the network")
        ffi, ctx = self._ffi, self.ctx
        ctx.grid = ffi.from_buffer("double[]", sample_times)
        ctx.firings = ffi.NULL if firings is None else \
            ffi.from_buffer("int64_t[]", firings)
        ctx.n_times = len(sample_times)
        ctx.rebuild_interval = state.rebuild_interval
        ctx.events_since_rebuild = state._events_since_rebuild
        ctx.max_events = math.ceil(min(max_events, _INT64_MAX))
        ctx.t_final = t_final

    def _point(self, rng) -> None:
        """Point the struct at ``rng``'s ``bitgen_t``."""
        if rng is not self._rng:
            self.ctx.bitgen = _bitgen(self._ffi, rng)
            self._lock = rng.bit_generator.lock
            self._rng = rng  # keeps the bitgen_t alive

    def run(self, state, rng, t, t_final, sample_times, samples,
            max_events, firings) -> tuple[float, int, int, bool]:
        """:meth:`IncrementalPropensities.advance` in C."""
        if (samples.shape != (len(sample_times), self._n_species)
                or samples.dtype != np.float64):
            raise ValueError("sample buffers do not fit the network")
        self._limits(state, sample_times, firings, max_events, t_final)
        self._point(rng)
        ffi, ctx = self._ffi, self.ctx
        ctx.samples = ffi.from_buffer("double[]", samples)
        ctx.t = t
        ctx.next_sample = 1
        # cffi releases the GIL for the call: hold the generator's lock
        # so no other thread draws from it meanwhile.
        with self._lock:
            status = self._run(ctx)
        state._events_since_rebuild = ctx.events_since_rebuild
        if status == self._absorbing:
            raise SimulationError(NO_POSITIVE_PROPENSITY)
        return ctx.t, ctx.events, ctx.next_sample, status == self._exceeded

    def poll(self, state, rng, counts, grid, departure, closing, departed,
             t, until, chunks, rows, max_events, firings) -> tuple:
        """:meth:`IncrementalPropensities.poll_python` in C."""
        if counts.shape != (self._n_species,) or counts.dtype != np.int64:
            raise ValueError("initial counts do not fit the network")
        if rows is not None and (
                rows.dtype != np.float64 or not rows.flags.c_contiguous
                or rows.shape[0] < chunks
                or rows.shape[1:] != (len(grid), self._n_species)):
            raise ValueError("sample buffers do not fit the network")
        self._limits(state, grid, firings, max_events, float(grid[-1]))
        self._point(rng)
        ffi, ctx = self._ffi, self.ctx
        p = ffi.new("repro_poll *")
        buffer = rows if rows is not None else \
            np.empty((grid.size, self._n_species))
        live = [native.margin(ffi, p.departure, departure),
                native.margin(ffi, p.closing, closing),
                ffi.from_buffer("int64_t[]", counts),
                ffi.from_buffer("double[]", buffer)]
        p.counts, p.rows = live[2:]
        p.keep = rows is not None
        p.max_chunks = chunks
        p.t = t
        for slot, (origin, span) in enumerate(
                [*until, *[(0.0, math.inf)] * (2 - len(until))]):
            p.origin[slot], p.span[slot] = origin, span
        p.departed = departed
        with self._lock:
            status = self._poll(ctx, p)
        state._events_since_rebuild = ctx.events_since_rebuild
        if status == self._absorbing:
            raise SimulationError(NO_POSITIVE_PROPENSITY)
        return (p.row if p.row >= 0 else None, p.chunks, bool(p.departed),
                p.t, p.events, ctx.t if status == self._exceeded else None)

    def ensemble(self, state, rngs, initial, t_start, t_final,
                 sample_times, max_events, firings
                 ) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`IncrementalPropensities.ensemble_python` in C."""
        if initial.shape != (self._n_species,) or initial.dtype != np.int64:
            raise ValueError("initial counts do not fit the network")
        ffi, ctx = self._ffi, self.ctx
        states = np.empty((len(rngs), len(sample_times), self._n_species))
        events = np.zeros(len(rngs), dtype=np.int64)
        self._limits(state, sample_times, firings, max_events, t_final)
        bitgens = ffi.new("void *[]", [_bitgen(ffi, rng) for rng in rngs])
        failed = ffi.new("int64_t *")
        # Hold every generator's lock through the GIL-free call, each
        # once: a generator may serve several trials, and its lock need
        # not be re-entrant.
        with ExitStack() as locked:
            for lock in sorted({rng.bit_generator.lock for rng in rngs},
                               key=id):
                locked.enter_context(lock)
            status = self._ensemble(
                ctx, ffi.from_buffer("int64_t[]", initial), bitgens,
                len(rngs), t_start, ffi.from_buffer("double[]", states),
                ffi.from_buffer("int64_t[]", events), failed)
        # ctx.bitgen now points at a trial's generator: the next run()
        # must re-point it whatever generator it is given.
        self._rng = None
        state._events_since_rebuild = ctx.events_since_rebuild
        if status == self._absorbing:
            raise _trial_error(NO_POSITIVE_PROPENSITY, failed[0])
        if status == self._exceeded:
            raise _trial_error(_over_budget(max_events, ctx.t), failed[0])
        return states, events


def _bind_loop(state: IncrementalPropensities):
    """A :class:`_CompiledLoop`, or ``False`` when there is no kernel."""
    module = native.load()
    return _CompiledLoop(module, state) if module is not None else False


class Poll(NamedTuple):
    """Where a :meth:`StochasticSimulator.poll` call ended."""

    row: int | None         #: the closing row's grid index, or None
    chunks: int             #: chunks run
    departed: bool
    t: float                #: the closing chunk's start, or the next one's
    counts: np.ndarray      #: the closing row, or the next chunk's start
    rows: np.ndarray | None  #: each chunk's sampled rows, with ``keep``


class StochasticSimulator:
    """Exact SSA (Gillespie direct method) for one network.

    An optional ``tracer``/``metrics`` pair records each ``simulate``,
    ``poll``, ``simulate_ensemble`` and ``mean_trajectory`` call as an
    ``ssa.batch`` solver span and counts reaction firings, overall and
    per channel (``ssa.firings[<reaction label>]``).
    """

    _batch_kind = "ssa"

    def __init__(self, network: Network, scheme: RateScheme | None = None,
                 rates: np.ndarray | None = None, volume: float = 1.0,
                 seed: int | np.random.Generator | None = None,
                 tracer=None, metrics=None):
        self._compile(network, scheme, rates, volume)
        self._start(seed, tracer, metrics)

    def _compile(self, network, scheme, rates, volume) -> None:
        """The per-network part: kinetics and stochastic constants."""
        network.validate()
        self.network = network
        self.scheme = scheme or RateScheme()
        self.kinetics = build_kinetics(network, self.scheme, rates)
        self.volume = float(volume)
        self.constants = self.kinetics.stochastic_constants(self.volume)

    def _start(self, seed, tracer, metrics) -> None:
        """The per-run part: generator, propensity state, telemetry."""
        if isinstance(seed, np.random.Generator):
            self.rng = seed
            self._seed_seq: np.random.SeedSequence | None = None
        else:
            self._seed_seq = np.random.SeedSequence(seed)
            self.rng = np.random.default_rng(self._seed_seq)
        self.propensity_state = IncrementalPropensities(self.kinetics,
                                                        self.constants)
        self.tracer = ensure_tracer(tracer)
        self.metrics = ensure_metrics(metrics)

    @classmethod
    def _prototype(cls, network: Network, scheme: RateScheme,
                   rates: np.ndarray | None) -> "StochasticSimulator":
        """A read-only simulator that never runs itself: the network,
        the frozen kinetics with its CSR tables, and the constants, but
        no generator, propensity state or telemetry.  :meth:`_fork`
        gives a runnable one."""
        prototype = cls.__new__(cls)
        prototype._compile(network, scheme, rates, 1.0)
        _index_buffer(prototype.kinetics)
        prototype.kinetics.freeze()
        prototype.constants.setflags(write=False)
        return prototype

    def _fork(self, *, seed=None, tracer=None,
              metrics=None) -> "StochasticSimulator":
        """A simulator sharing this one's network, kinetics arrays,
        constants and CSR tables, with its own kinetics scratch
        (:meth:`MassActionKinetics.view`), generator, propensity state
        and telemetry: bitwise what the constructor would build with
        ``seed``."""
        fork = shallow_copy(self)
        fork.kinetics = self.kinetics.view()
        fork._start(seed, tracer, metrics)
        return fork

    def _channel_label(self, j: int) -> str:
        reaction = self.network.reactions[j]
        return getattr(reaction, "label", "") or str(reaction)

    def _record_batch(self, kind: str, t_start: float, t_final: float,
                      events: int, wall: float,
                      firings: np.ndarray | None = None,
                      extra: dict | None = None) -> None:
        """Per-``simulate`` telemetry shared by SSA and tau-leaping."""
        metrics = self.metrics
        if metrics.enabled:
            metrics.inc(f"{kind}.batches")
            metrics.inc(f"{kind}.events", events)
            metrics.observe(f"{kind}.wall_seconds", wall)
            for name, value in (extra or {}).items():
                metrics.inc(f"{kind}.{name}", value)
            if firings is not None:
                for j in np.nonzero(firings)[0]:
                    metrics.inc(
                        f"ssa.firings[{self._channel_label(int(j))}]",
                        float(firings[j]))
        if self.tracer.enabled:
            args = {"events": events, "wall": round(wall, 6)}
            args.update(extra or {})
            self.tracer.emit_span(f"{kind}.batch", "solver", t_start,
                                  t_final, args)

    def _initial_counts(self, initial) -> np.ndarray:
        """Initial amounts as int64 counts.  An amount float64 cannot
        hold as an exact count -- non-finite, or at or above 2**53,
        which ``2**53 + 1`` already parses to -- raises naming the
        species, before any cast could wrap it."""
        if initial is None:
            x0 = self.network.initial_vector()
        elif isinstance(initial, Mapping):
            x0 = self.network.initial_vector(initial)
        else:
            x0 = np.asarray(initial, dtype=float)
        rounded = np.rint(x0)
        inexact = np.flatnonzero(~np.isfinite(rounded)
                                 | (rounded >= _EXACT_COUNTS))
        if inexact.size:
            index = int(inexact[0])
            names = self.network.species_names
            name = names[index] if index < len(names) else f"#{index}"
            raise SimulationError(
                f"initial count of {name!r} is {float(x0.flat[index])!r}: "
                f"SSA counts must be finite and below 2**53, where "
                f"float64 stops telling consecutive counts apart")
        if np.any(rounded < 0):
            raise SimulationError("negative initial counts")
        return rounded.astype(np.int64)

    def simulate(self, t_final: float, *, t_start: float = 0.0,
                 initial: Mapping[str, float] | np.ndarray | None = None,
                 n_samples: int = 200,
                 max_events: int = 50_000_000) -> Trajectory:
        """Run one SSA realisation, recorded on a uniform time grid.

        ``t_start`` matches the ODE engine's semantics: the sample grid
        spans ``[t_start, t_final]``.  The dynamics are time-homogeneous,
        so a shifted origin only relabels the grid.
        """
        check_time_span(t_start, t_final)
        state = self.propensity_state
        state.reset(self._initial_counts(initial))
        sample_times = np.linspace(t_start, t_final,
                                   max(int(n_samples), 2))
        samples = np.empty((sample_times.size, state.counts.size),
                           dtype=float)
        samples[0] = state.counts
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0
        firings = np.zeros(self.network.n_reactions, dtype=np.int64) \
            if self.metrics.enabled else None
        t, events, next_sample, exceeded = state.advance(
            self.rng, t_start, t_final, sample_times, samples, max_events,
            firings)
        if telemetry:
            self._record_batch("ssa", t_start, t_final, events,
                               perf_counter() - wall_start, firings)
        if exceeded:
            raise SimulationError(_over_budget(max_events, t))
        samples[next_sample:] = state.counts
        return Trajectory(sample_times, samples, self.network.species_names,
                          {"events": events})

    def poll(self, counts: np.ndarray, grid: np.ndarray,
             departure: MarginTable, closing: MarginTable, *,
             t: float = 0.0, departed: bool = False,
             until: Sequence[tuple[float, float]] = (), chunks: int = 1,
             keep: bool = False, max_events: int = 50_000_000) -> Poll:
        """Run SSA in chunks from ``counts`` until a row closes a cycle.

        Each chunk is a :meth:`simulate` call from chunk time 0 to
        ``grid[-1]``, sampled on ``grid`` (``grid[0]`` is 0), that
        starts from the previous chunk's last row, the first from
        ``counts``.  Rows 1 on are scanned in order with
        :func:`~repro.crn.simulation.margins.scan`: the cycle departs
        at the first row with a negative ``departure`` margin (unless it
        already ``departed``), and the first later row with a
        non-negative ``closing`` margin ends the call.  Otherwise the
        call ends after ``chunks`` chunks, or after a chunk that takes
        ``t`` (the chunk's start, advanced by ``grid[-1]`` per chunk)
        more than ``span`` past ``origin`` for an ``(origin, span)``
        pair of ``until`` (at most two).  With ``keep`` the sampled rows
        of every chunk run come back as ``Poll.rows``, shape ``(chunks,
        grid.size, n_species)``.

        Every chunk restarts from its start counts, so where calls
        begin and end cannot move a realisation: a chunk's draws are
        the same whatever ``chunks`` is.  With a tracer or metrics the
        call runs one chunk and records it as ``simulate`` would (one
        chunk-relative ``ssa.batch`` span).
        """
        counts = np.array(counts, dtype=np.int64)
        if np.any(counts < 0):
            raise SimulationError("negative initial counts")
        if max(departure.n_species, closing.n_species) > counts.size:
            raise ValueError("margin tables name species outside the state")
        if chunks < 1 or len(until) > 2:
            raise SimulationError(
                "poll takes chunks >= 1 and at most two (origin, span) "
                "limits")
        telemetry = self.tracer.enabled or self.metrics.enabled
        if telemetry:
            chunks = 1
        rows = np.empty((chunks, grid.size, counts.size)) if keep else None
        wall_start = perf_counter() if telemetry else 0.0
        firings = np.zeros(self.network.n_reactions, dtype=np.int64) \
            if self.metrics.enabled else None
        # Compiled or the twin, chosen as ``advance`` chooses.
        state = self.propensity_state
        loop = state._loop()
        args = (self.rng, counts, grid, departure, closing, departed, t,
                until, chunks, rows, max_events, firings)
        if loop and type(self.rng) is np.random.Generator:
            outcome = loop.poll(state, *args)
        else:
            outcome = state.poll_python(*args)
        row, ran, departed, t, events, exceeded = outcome
        if telemetry:
            self._record_batch("ssa", 0.0, float(grid[-1]), events,
                               perf_counter() - wall_start, firings)
        if exceeded is not None:
            raise SimulationError(_over_budget(max_events, exceeded))
        return Poll(row, ran, departed, t, counts,
                    rows[:ran] if keep else None)

    def final_counts(self, t_final: float, **kwargs) -> dict[str, int]:
        """Convenience: final integer counts of one realisation."""
        trajectory = self.simulate(t_final, n_samples=2, **kwargs)
        return {name: int(round(value))
                for name, value in trajectory.final_state().items()}

    # -- ensembles -------------------------------------------------------------

    def simulate_ensemble(self, t_final: float, seeds: Sequence, *,
                          t_start: float = 0.0,
                          initial: Mapping[str, float] | np.ndarray
                          | None = None,
                          n_samples: int = 200,
                          max_events: int = 50_000_000) -> EnsembleResult:
        """Run one realisation per entry of ``seeds`` on a shared grid.

        Trial ``k`` is bitwise what :meth:`simulate` gives from
        ``initial`` on ``np.random.default_rng(seeds[k])`` (a
        ``Generator`` is drawn from directly; trials run in order).
        ``max_events`` is per trial; a trial that exceeds it, or draws
        on an absorbing state, raises what ``simulate`` would, naming
        the trial.  Telemetry records the call as one ``ssa.batch`` span.
        """
        check_time_span(t_start, t_final)
        rngs = [np.random.default_rng(seed) for seed in seeds]
        if not rngs:
            raise SimulationError("seeds must be non-empty")
        initial = self._initial_counts(initial)
        sample_times = np.linspace(t_start, t_final,
                                   max(int(n_samples), 2))
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0
        firings = np.zeros(self.network.n_reactions, dtype=np.int64) \
            if self.metrics.enabled else None
        state = self.propensity_state
        loop = state._loop()
        if loop and all(type(rng) is np.random.Generator for rng in rngs):
            states, events = loop.ensemble(state, rngs, initial, t_start,
                                           t_final, sample_times,
                                           max_events, firings)
        else:
            states, events = state.ensemble_python(
                rngs, initial, t_start, t_final, sample_times, max_events,
                firings)
        if telemetry:
            self._record_batch("ssa", t_start, t_final, int(events.sum()),
                               perf_counter() - wall_start, firings,
                               extra={"ensemble_trials": len(rngs)})
        return EnsembleResult(sample_times, states,
                              self.network.species_names, events)

    def _clone(self) -> "StochasticSimulator":
        """This simulator without telemetry, for ensemble chunks: a
        shallow copy sharing its kinetics and compiled loop."""
        clone = copy.copy(self)
        clone.tracer, clone.metrics = ensure_tracer(None), ensure_metrics(None)
        return clone

    def _spawn_run_seeds(self, n_runs: int) -> list[np.random.SeedSequence]:
        """Independent, reproducible per-run seed sequences.

        Spawned from the simulator's root :class:`~numpy.random.SeedSequence`
        when one exists (int or ``None`` seed); a simulator built around a
        caller-supplied ``Generator`` derives a root sequence from the
        generator stream once, keeping ensembles reproducible per call
        order.
        """
        if self._seed_seq is None:
            entropy = int(self.rng.integers(np.iinfo(np.int64).max))
            self._seed_seq = np.random.SeedSequence(entropy)
        return self._seed_seq.spawn(n_runs)

    def mean_trajectory(self, t_final: float, n_runs: int,
                        n_samples: int = 100, **kwargs) -> Trajectory:
        """Sample mean over ``n_runs`` independent realisations.

        Each run gets its own spawned seed, and runs are summed in fixed
        chunks of :data:`ENSEMBLE_CHUNK_RUNS`, one
        :meth:`simulate_ensemble` call each, in the calling thread; the
        chunk sums are added in chunk order.  The chunks run on
        :meth:`_clone`, so the call records one span.
        """
        if n_runs < 1:
            raise SimulationError("n_runs must be >= 1")
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0
        t_start = kwargs.get("t_start", 0.0)
        seeds = self._spawn_run_seeds(n_runs)
        clone = self._clone()
        chunks = (clone.simulate_ensemble(
            t_final, seeds[i:i + ENSEMBLE_CHUNK_RUNS], n_samples=n_samples,
            **kwargs) for i in range(0, n_runs, ENSEMBLE_CHUNK_RUNS))
        first = next(chunks)
        times, accumulator = first.times, first.summed_states()
        events = int(first.events.sum())
        for index, chunk in enumerate(chunks, start=1):
            if not np.array_equal(chunk.times, times):
                raise SimulationError(
                    f"ensemble chunk {index} returned a misaligned "
                    f"sample grid (size {chunk.times.size} vs "
                    f"{times.size}); refusing to sum mismatched states")
            accumulator += chunk.summed_states()
            events += int(chunk.events.sum())
        if telemetry:
            self._record_batch(self._batch_kind, t_start, t_final, events,
                               perf_counter() - wall_start,
                               extra={"ensemble_runs": n_runs})
        return Trajectory(times, accumulator / n_runs,
                          self.network.species_names,
                          {"n_runs": n_runs, "events": events})

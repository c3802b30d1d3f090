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
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from time import perf_counter

import numpy as np

from repro.crn import native
from repro.crn.kinetics import MassActionKinetics, build_kinetics
from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.result import Trajectory
from repro.crn.simulation.sampling import (NO_POSITIVE_PROPENSITY,
                                           select_reaction)
from repro.errors import SimulationError
from repro.obs.metrics import ensure_metrics
from repro.obs.tracer import ensure_tracer

#: Runs per ensemble chunk.  The chunk structure (not the worker count)
#: fixes the floating-point summation order, so serial and parallel
#: ensemble means are bitwise identical for the same seed.
ENSEMBLE_CHUNK_RUNS = 8

#: Events between exact full-propensity rebuilds in
#: :class:`IncrementalPropensities`.  The order<=2 incremental updates
#: are exact in floating point (the gather-buffer values are exact
#: half-integers), so the periodic rebuild is belt-and-braces hardening
#: against drift, not a behaviour change -- it recomputes the same bits.
PROPENSITY_REBUILD_INTERVAL = 4096

#: The compiled loop counts events in an int64.
_INT64_MAX = np.iinfo(np.int64).max


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
        # integer deltas) and the dependent reactions.
        firing, species = np.nonzero(kinetics.stoich.T)
        self._fire_ptr = np.searchsorted(firing, np.arange(n_r + 1))
        self._fire_species = species
        self._fire_delta = kinetics.stoich.T[firing, species].astype(np.int64)
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

    def reset(self, counts: np.ndarray) -> float:
        """Adopt a full state vector and recompute every propensity."""
        self.counts[:] = counts
        self.rebuild()
        return float(self.a.sum())

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
        loop = self._native
        if loop is None:
            loop = self._native = _bind_loop(self)
        if loop and type(rng) is np.random.Generator:
            return loop.run(self, rng, t, t_final, sample_times, samples,
                            max_events, firings)
        return self.advance_python(rng, t, t_final, sample_times, samples,
                                   max_events, firings)

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


class _CompiledLoop:
    """One propensity state packed into the kernel's ``repro_ssa`` struct.

    The struct points at the state's own counts, gather buffer and
    propensities, which the state updates in place, and at index arrays
    owned by the binding; :meth:`run` adds the call's sample grid and
    outputs and the generator's ``bitgen_t``.
    """

    def __init__(self, module, state: IncrementalPropensities):
        ffi, lib = module.ffi, module.lib
        self._ffi = ffi
        self._run = lib.repro_ssa_run
        self._exceeded = lib.REPRO_SSA_MAX_EVENTS
        self._absorbing = lib.REPRO_SSA_ABSORBING
        k = state.kinetics
        generic = [reactants for _, reactants in k._generic_lists]
        generic_of = np.full(k.n_reactions, -1)
        generic_of[k._generic_rows] = np.arange(len(generic))
        ints = {
            "factor_a": k._factor_a,
            "factor_b": k._stoch_factor_b,
            "fire_ptr": state._fire_ptr,
            "fire_species": state._fire_species,
            "fire_delta": state._fire_delta,
            "dep_ptr": state._dep_ptr,
            "dep_rows": state._dep_rows,
            "generic_of": generic_of,
            "generic_ptr": np.cumsum([0] + [len(r) for r in generic]),
            "generic_species": [s for r in generic for s, _ in r],
            "generic_exp": [e for r in generic for _, e in r],
        }
        doubles = {
            "constants": state.constants,
            "generic_fact": [float(math.factorial(e))
                             for r in generic for _, e in r],
            "cumulative": np.empty(k.n_reactions),
        }
        ctx = ffi.new("repro_ssa *")
        self._ints, _ = native.pack(ffi, ctx, ints, np.int64, "int64_t[]")
        self._floats, _ = native.pack(ffi, ctx, doubles, np.float64,
                                      "double[]")
        self._live = (ffi.from_buffer("int64_t[]", state.counts),
                      ffi.from_buffer("double[]", state._cb),
                      ffi.from_buffer("double[]", state.a))
        ctx.counts, ctx.cb, ctx.a = self._live
        ctx.n_species = self._n_species = k.n_species
        ctx.n_reactions = self._n_reactions = k.n_reactions
        self.ctx = ctx
        self._rng = None
        self._lock = None

    def run(self, state, rng, t, t_final, sample_times, samples,
            max_events, firings) -> tuple[float, int, int, bool]:
        """:meth:`IncrementalPropensities.advance` in C."""
        if (sample_times.dtype != np.float64
                or samples.shape != (len(sample_times), self._n_species)
                or samples.dtype != np.float64
                or (firings is not None
                    and firings.shape != (self._n_reactions,))):
            raise ValueError("sample buffers do not fit the network")
        ffi, ctx = self._ffi, self.ctx
        if rng is not self._rng:
            bit_generator = rng.bit_generator
            ctx.bitgen = ffi.cast(
                "void *", bit_generator.ctypes.bit_generator.value)
            self._lock = bit_generator.lock
            self._rng = rng  # keeps the bitgen_t alive
        grid = ffi.from_buffer("double[]", sample_times)
        out = ffi.from_buffer("double[]", samples)
        hits = ffi.NULL if firings is None else \
            ffi.from_buffer("int64_t[]", firings)
        ctx.grid, ctx.samples, ctx.firings = grid, out, hits
        ctx.n_times = len(sample_times)
        ctx.rebuild_interval = state.rebuild_interval
        ctx.events_since_rebuild = state._events_since_rebuild
        ctx.max_events = math.ceil(min(max_events, _INT64_MAX))
        ctx.t_final = t_final
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


def _bind_loop(state: IncrementalPropensities):
    """A :class:`_CompiledLoop`, or ``False`` when there is no kernel."""
    module = native.load()
    return _CompiledLoop(module, state) if module is not None else False


class StochasticSimulator:
    """Exact SSA (Gillespie direct method) for one network.

    An optional ``tracer``/``metrics`` pair records each ``simulate``
    call as an ``ssa.batch`` solver span and counts reaction firings,
    overall and per channel (``ssa.firings[<reaction label>]``).
    """

    _batch_kind = "ssa"

    #: Whether the structure-of-arrays ensemble engine can run this
    #: simulator's ensembles (exact SSA only; tau-leaping's adaptive
    #: control flow cannot be vectorised while preserving draw order).
    _supports_batch_ensembles = True

    def __init__(self, network: Network, scheme: RateScheme | None = None,
                 rates: np.ndarray | None = None, volume: float = 1.0,
                 seed: int | np.random.Generator | None = None,
                 tracer=None, metrics=None):
        network.validate()
        self.network = network
        self.scheme = scheme or RateScheme()
        self.kinetics = build_kinetics(network, self.scheme, rates)
        self.volume = float(volume)
        self.constants = self.kinetics.stochastic_constants(self.volume)
        self.stoich = network.stoichiometry_matrix().T.astype(np.int64)
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
        if initial is None:
            x0 = self.network.initial_vector()
        elif isinstance(initial, Mapping):
            x0 = self.network.initial_vector(initial)
        else:
            x0 = np.asarray(initial, dtype=float)
        counts = np.rint(x0).astype(np.int64)
        if np.any(counts < 0):
            raise SimulationError("negative initial counts")
        return counts

    def simulate(self, t_final: float, *, t_start: float = 0.0,
                 initial: Mapping[str, float] | np.ndarray | None = None,
                 n_samples: int = 200,
                 max_events: int = 50_000_000) -> Trajectory:
        """Run one SSA realisation, recorded on a uniform time grid.

        ``t_start`` matches the ODE engine's semantics: the sample grid
        spans ``[t_start, t_final]``.  The dynamics are time-homogeneous,
        so a shifted origin only relabels the grid.
        """
        if t_final <= t_start:
            raise SimulationError("t_final must exceed t_start")
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
            raise SimulationError(
                f"SSA exceeded {max_events} events at t={t:g}")
        samples[next_sample:] = state.counts
        return Trajectory(sample_times, samples, self.network.species_names,
                          {"events": events})

    def final_counts(self, t_final: float, **kwargs) -> dict[str, int]:
        """Convenience: final integer counts of one realisation."""
        trajectory = self.simulate(t_final, n_samples=2, **kwargs)
        return {name: int(round(value))
                for name, value in trajectory.final_state().items()}

    # -- ensembles -------------------------------------------------------------

    def _clone_spec(self) -> dict:
        """Constructor spec for per-run ensemble clones (picklable)."""
        return {"cls": type(self), "network": self.network,
                "rates": np.asarray(self.kinetics.rates),
                "volume": self.volume, "extra": {}}

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
                        n_samples: int = 100, *,
                        n_workers: int | None = None,
                        backend: str = "reference",
                        **kwargs) -> Trajectory:
        """Sample mean over ``n_runs`` independent realisations.

        Each run gets its own spawned seed, and runs are summed in fixed
        chunks of :data:`ENSEMBLE_CHUNK_RUNS`, so the result is bitwise
        identical whether the ensemble executes serially (``n_workers``
        ``None``/1) or through a
        :class:`~repro.crn.simulation.sweep.ParallelSweepRunner` pool.

        ``backend="batch"`` computes each chunk through the
        structure-of-arrays ensemble engine (one batched call for all
        seeds when running serially); per-trial realisations and the
        chunk-ordered reduction are bitwise identical to the reference
        path, so this changes wall time only.  Simulators the batch
        engine cannot vectorise (tau-leaping) fall back to reference.
        """
        from repro.crn.simulation.sweep import (ENSEMBLE_BACKENDS,
                                                ParallelSweepRunner,
                                                simulate_mean_chunk)

        if n_runs < 1:
            raise SimulationError("n_runs must be >= 1")
        if backend not in ENSEMBLE_BACKENDS:
            raise SimulationError(
                f"unknown ensemble backend {backend!r}; expected one of "
                f"{ENSEMBLE_BACKENDS}")
        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0
        t_start = kwargs.get("t_start", 0.0)
        seeds = self._spawn_run_seeds(n_runs)
        runner = ParallelSweepRunner(n_workers)
        use_batch = backend == "batch" and self._supports_batch_ensembles
        if use_batch and (runner.n_workers <= 1 or n_runs
                          <= ENSEMBLE_CHUNK_RUNS):
            # Serial: one structure-of-arrays call over every seed
            # (EnsembleResult.mean applies the same chunked reduction).
            from repro.crn.simulation.batch import BatchStochasticSimulator

            batch = BatchStochasticSimulator(
                self.network, rates=np.asarray(self.kinetics.rates),
                volume=self.volume)
            mean = batch.simulate_ensemble(
                t_final, seeds=seeds, n_samples=n_samples,
                **kwargs).mean()
            if telemetry:
                self._record_batch(
                    self._batch_kind, t_start, t_final,
                    int(mean.meta["events"]), perf_counter() - wall_start,
                    extra={"ensemble_runs": n_runs})
            return mean
        spec = self._clone_spec()
        spec["backend"] = backend
        payloads = [
            (spec, seeds[i:i + ENSEMBLE_CHUNK_RUNS], t_final, n_samples,
             kwargs)
            for i in range(0, n_runs, ENSEMBLE_CHUNK_RUNS)
        ]
        partials = runner.map(simulate_mean_chunk, payloads)
        times, accumulator, events = partials[0]
        accumulator = accumulator.copy()
        for index, (chunk_times, states, chunk_events) in \
                enumerate(partials[1:], start=1):
            if not np.array_equal(chunk_times, times):
                raise SimulationError(
                    f"ensemble chunk {index} returned a misaligned "
                    f"sample grid (size {chunk_times.size} vs "
                    f"{times.size}); refusing to sum mismatched states")
            accumulator += states
            events += chunk_events
        if telemetry:
            self._record_batch(self._batch_kind, t_start, t_final, events,
                               perf_counter() - wall_start,
                               extra={"ensemble_runs": n_runs})
        return Trajectory(times, accumulator / n_runs,
                          self.network.species_names,
                          {"n_runs": n_runs, "events": events})

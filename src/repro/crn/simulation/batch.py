"""Structure-of-arrays batched SSA: one NumPy ensemble per call.

Every statistical claim in this repo -- robustness margins, fault
campaigns, SSA-vs-ODE differential oracles, stationary-distribution
sweeps -- reduces to *many independent realisations of one network*.
The reference :class:`~repro.crn.simulation.ssa.StochasticSimulator`
runs each realisation as its own Python event loop; this module runs
the whole ensemble through one loop instead, holding the state as
structure-of-arrays blocks:

- integer counts as one ``(trials, species)`` array,
- the extended gather buffer as ``(trials, 2 * (species + 1))``,
- propensities and their cumulative sums as ``(trials, reactions)``
  arrays evaluated with the same order-grouped index gathers the
  compiled :class:`~repro.crn.kinetics.MassActionKinetics` uses,
- reaction selection for every live trial as one vectorised
  ``searchsorted``-equivalent comparison per step.

Trials that finish -- absorbed (zero total propensity) or past the
horizon -- are retired from the *front-compacted* active block, so
ragged horizons never serialise the batch: each step costs O(active),
not O(trials).

Bitwise contract
----------------
Seeded realisations match the reference engine **bitwise,
trial-for-trial**: trial ``i`` built from seed ``s_i`` produces exactly
the sampled trajectory ``StochasticSimulator(seed=default_rng(s_i))``
would.  That holds because per trial the batch engine consumes the same
generator stream in the same order (one exponential for the waiting
time, then one uniform for the selection), evaluates propensities with
the same multiply order as the compiled kinetics, and records samples
with the same pre-fire grid-crossing rule.  Two empirically verified
identities make the scalar draws cheap without touching the stream:

- ``Generator.exponential(s)`` equals ``standard_exponential() * s``
  (the ziggurat draw times an IEEE-commutative scale), and
- ``Generator.random()`` equals ``(bit_generator.random_raw() >> 11) *
  2.0**-53`` for one-uint64-per-double bit generators (PCG64);
  :data:`_RAW_UNIFORMS_OK` re-verifies this at import time and the
  engine falls back to bound ``Generator.random`` calls if the host's
  bit generator disagrees.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from time import perf_counter

import numpy as np

from repro.crn.simulation.result import Trajectory
from repro.crn.simulation.sampling import NO_POSITIVE_PROPENSITY
from repro.crn.simulation.ssa import ENSEMBLE_CHUNK_RUNS, StochasticSimulator
from repro.errors import SimulationError

#: ``(raw >> 11) * 2**-53`` maps a 53-bit integer to [0, 1) exactly the
#: way ``Generator.random()`` does internally.
_UNIFORM_SCALE = 2.0 ** -53


def _verify_raw_uniforms() -> bool:
    """Does ``random_raw() >> 11`` reproduce ``Generator.random()``?

    Checked on an interleaved exponential/uniform stream -- the exact
    call pattern of the SSA event loop -- so a bit generator that
    consumes a different number of words per double is caught here and
    the engine downgrades to (slower) bound-method uniform draws.
    """
    probe = np.random.default_rng(np.random.SeedSequence(9941))
    mirror = np.random.default_rng(np.random.SeedSequence(9941))
    raw = mirror.bit_generator.random_raw
    for _ in range(8):
        expected = probe.random()
        probe.standard_exponential()
        if (raw() >> 11) * _UNIFORM_SCALE != expected:
            return False
        mirror.standard_exponential()
    return True


_RAW_UNIFORMS_OK = _verify_raw_uniforms()


class EnsembleResult:
    """Sampled trajectories of one batched ensemble.

    Attributes
    ----------
    times:
        shared sample grid, shape ``(n_times,)``.
    states:
        sampled counts, shape ``(trials, n_times, species)``.
    names:
        species names aligned with the last axis.
    events:
        per-trial event counts, shape ``(trials,)``.
    absorbed:
        per-trial flag: the trial hit a zero-total-propensity state
        before the horizon and was frozen there.
    """

    def __init__(self, times: np.ndarray, states: np.ndarray,
                 names: Sequence[str], events: np.ndarray,
                 absorbed: np.ndarray, meta: dict | None = None):
        self.times = times
        self.states = states
        self.names = list(names)
        self.events = events
        self.absorbed = absorbed
        self.meta = dict(meta or {})

    def __len__(self) -> int:
        return self.states.shape[0]

    def trial(self, i: int) -> Trajectory:
        """Trial ``i`` as a :class:`Trajectory` (reference-identical)."""
        return Trajectory(self.times, self.states[i], self.names,
                          {"events": int(self.events[i])})

    def trials(self):
        """Iterate over per-trial trajectories."""
        return (self.trial(i) for i in range(len(self)))

    def final_states(self) -> np.ndarray:
        """``(trials, species)`` states at the horizon."""
        return self.states[:, -1, :]

    def summed_states(self, start: int = 0,
                      stop: int | None = None) -> np.ndarray:
        """Sum of ``states[start:stop]`` in strict trial order.

        Left-associated like the reference ensemble worker's per-chunk
        accumulation, so chunk partials built from this are bitwise
        identical to summing the individual reference runs.
        """
        stop = len(self) if stop is None else stop
        acc = self.states[start].copy()
        for i in range(start + 1, stop):
            acc += self.states[i]
        return acc

    def mean(self, chunk_runs: int = ENSEMBLE_CHUNK_RUNS) -> Trajectory:
        """Ensemble-mean trajectory with the reference reduction order.

        Trials are summed in fixed chunks of ``chunk_runs`` and the
        chunk partials combined left-to-right -- the exact summation
        tree ``StochasticSimulator.mean_trajectory`` uses -- so the mean
        is bitwise identical to the reference ensemble path (serial or
        pooled) on the same seeds.
        """
        n = len(self)
        partials = [self.summed_states(i, min(i + chunk_runs, n))
                    for i in range(0, n, chunk_runs)]
        acc = partials[0].copy()
        for partial in partials[1:]:
            acc += partial
        return Trajectory(self.times, acc / n, self.names,
                          {"n_runs": n, "events": int(self.events.sum())})


class BatchStochasticSimulator(StochasticSimulator):
    """Exact SSA over a whole seeded ensemble at once.

    Constructor signature matches :class:`StochasticSimulator`; the new
    entry point is :meth:`simulate_ensemble`.  :meth:`simulate` runs a
    single-trial ensemble off the instance generator, so the facade's
    ``backend="batch"`` route returns the bitwise-identical trajectory
    the reference engine would.
    """

    def simulate(self, t_final: float, *, t_start: float = 0.0,
                 initial: Mapping[str, float] | np.ndarray | None = None,
                 n_samples: int = 200,
                 max_events: int = 50_000_000) -> Trajectory:
        result = self.simulate_ensemble(
            t_final, seeds=[self.rng], t_start=t_start, initial=initial,
            n_samples=n_samples, max_events=max_events)
        return result.trial(0)

    def simulate_ensemble(self, t_final: float, n_trials: int | None = None,
                          *, seeds: Sequence | None = None,
                          t_start: float = 0.0, initial=None,
                          n_samples: int = 200,
                          max_events: int = 50_000_000,
                          rates: np.ndarray | None = None
                          ) -> EnsembleResult:
        """Run one seeded ensemble, sampled on a shared uniform grid.

        Parameters
        ----------
        n_trials:
            ensemble size; per-trial seeds are spawned from the
            simulator's root :class:`~numpy.random.SeedSequence`
            exactly like ``mean_trajectory`` does.
        seeds:
            explicit per-trial seeds (ints, ``SeedSequence``s or
            ``Generator``s) overriding ``n_trials`` spawning; trial
            ``i`` consumes ``np.random.default_rng(seeds[i])``.
        initial:
            shared initial state (mapping or vector), or one per trial
            (a sequence of ``n_trials`` mappings/vectors, or a
            ``(n_trials, species)`` array).
        rates:
            per-trial rate draws: a ``(n_trials, reactions)`` array
            giving each trial its own rate vector (a single ``(R,)``
            vector is also accepted and shared).  ``None`` keeps the
            simulator's compiled rates.
        max_events:
            per-trial event budget; any trial exceeding it raises
            :class:`SimulationError` for the whole ensemble.
        """
        if t_final <= t_start:
            raise SimulationError("t_final must exceed t_start")
        if seeds is None:
            if n_trials is None:
                raise SimulationError(
                    "simulate_ensemble needs n_trials or an explicit "
                    "seeds sequence")
            if n_trials < 1:
                raise SimulationError("n_trials must be >= 1")
            seeds = self._spawn_run_seeds(int(n_trials))
        else:
            seeds = list(seeds)
            if n_trials is not None and int(n_trials) != len(seeds):
                raise SimulationError(
                    f"n_trials={n_trials} disagrees with {len(seeds)} "
                    f"explicit seeds")
            if not seeds:
                raise SimulationError("seeds must be non-empty")
        rngs = [np.random.default_rng(seed) for seed in seeds]
        n = len(rngs)
        counts0 = self._trial_initial_counts(initial, n)
        constants = self._trial_constants(rates, n)

        telemetry = self.tracer.enabled or self.metrics.enabled
        wall_start = perf_counter() if telemetry else 0.0
        firings = np.zeros(self.network.n_reactions, dtype=np.int64) \
            if self.metrics.enabled else None
        result = self._run_ensemble(rngs, counts0, constants,
                                    float(t_start), float(t_final),
                                    int(n_samples), int(max_events),
                                    firings)
        if telemetry:
            self._record_batch("ssa", t_start, t_final,
                               int(result.events.sum()),
                               perf_counter() - wall_start, firings,
                               extra={"ensemble_trials": n})
        return result

    # -- per-trial parameter resolution ---------------------------------------

    def _trial_initial_counts(self, initial, n: int) -> np.ndarray:
        """``(n, species)`` integer initial counts, shared or per-trial."""
        per_trial = False
        if isinstance(initial, np.ndarray) and initial.ndim == 2:
            per_trial = True
        elif isinstance(initial, (list, tuple)) and initial and \
                not isinstance(initial[0], (int, float, np.number)):
            per_trial = True
        if not per_trial:
            return np.tile(self._initial_counts(initial), (n, 1))
        if len(initial) != n:
            raise SimulationError(
                f"{len(initial)} per-trial initial states for {n} trials")
        return np.stack([self._initial_counts(row) for row in initial])

    def _trial_constants(self, rates, n: int) -> np.ndarray:
        """Stochastic constants: ``(R,)`` shared or ``(n, R)`` per trial.

        Per-trial rows use the same scalar arithmetic order as
        :meth:`MassActionKinetics.stochastic_constants`
        (``rate * factor / volume**max(order-1, 0)``, zeroth order
        ``rate * volume``) so a trial with rate row ``r_i`` matches a
        reference simulator built with ``rates=r_i`` bitwise.
        """
        if rates is None:
            return self.constants
        rates = np.asarray(rates, dtype=float)
        n_r = self.kinetics.n_reactions
        if rates.shape == (n_r,):
            return type(self.kinetics)(self.network, rates) \
                .stochastic_constants(self.volume)
        if rates.shape != (n, n_r):
            raise SimulationError(
                f"per-trial rates have shape {rates.shape}, expected "
                f"({n}, {n_r}) or ({n_r},)")
        volume = self.volume
        factor = np.empty(n_r)
        power = np.empty(n_r)
        order0 = np.zeros(n_r, dtype=bool)
        for j, reactants in enumerate(self.kinetics._reactant_lists):
            order = sum(e for _, e in reactants)
            f = 1.0
            for _, e in reactants:
                f *= math.factorial(e)
            factor[j] = f
            power[j] = volume ** max(order - 1, 0)
            order0[j] = order == 0
        constants = rates * factor
        constants /= power
        constants[:, order0] = rates[:, order0] * volume
        return constants

    # -- the batched event loop -----------------------------------------------

    def _run_ensemble(self, rngs, counts0, constants, t_start, t_final,
                      n_samples, max_events, firings) -> EnsembleResult:
        kinetics = self.kinetics
        n_s = kinetics.n_species
        n_r = kinetics.n_reactions
        fa = kinetics._factor_a
        fb = kinetics._stoch_factor_b
        generic = [int(j) for j in kinetics._generic_rows]
        stoich_rows = self.stoich                      # (R, S) int64
        per_trial_constants = constants.ndim == 2
        n = len(rngs)

        sample_times = np.linspace(t_start, t_final, max(n_samples, 2))
        n_times = sample_times.size
        grid = sample_times.tolist()
        grid.append(math.inf)                          # retire-guard sentinel
        samples = np.empty((n, n_times, n_s))
        samples[:, 0, :] = counts0
        events_out = np.zeros(n, dtype=np.int64)
        absorbed_out = np.zeros(n, dtype=bool)

        # Front-compacted active block: row k of each array belongs to
        # trial ids[k]; retired trials are dropped by compacting the
        # prefix, so every vector op is O(active).
        counts = counts0.astype(np.int64, copy=True)
        cbuf = np.ones((n, 2 * (n_s + 1)))
        abuf = np.empty((n, n_r))
        bbuf = np.empty((n, n_r))
        cumbuf = np.empty((n, n_r))
        con = constants if per_trial_constants else None

        ids = list(range(n))
        t_l = [t_start] * n
        ev_l = [0] * n
        ns_l = [1] * n
        exp_l = [r.standard_exponential for r in rngs]
        use_raw = _RAW_UNIFORMS_OK
        draw_l = [r.bit_generator.random_raw for r in rngs] if use_raw \
            else [r.random for r in rngs]

        uniform_scale = _UNIFORM_SCALE
        while ids:
            active = len(ids)
            ca = counts[:active]
            cb = cbuf[:active]
            # Extended gather buffer, same arithmetic as the kinetics'
            # _fill_count_buffer: [counts..., 1, (counts-1)/2..., 1].
            cb[:, :n_s] = ca
            half = cb[:, n_s + 1:2 * n_s + 1]
            np.subtract(cb[:, :n_s], 1.0, out=half)
            half *= 0.5
            # Propensities with the reference multiply order:
            # (constants * cb[fa]) * cb[fb] -- the first multiply is
            # commuted, which is bitwise-neutral for IEEE products.
            a = abuf[:active]
            np.take(cb, fa, axis=1, out=a)
            a *= con[:active] if per_trial_constants else constants
            b = bbuf[:active]
            np.take(cb, fb, axis=1, out=b)
            a *= b
            for j in generic:
                for k in range(active):
                    a[k, j] = kinetics.propensity_of(
                        j, ca[k], con[k] if per_trial_constants
                        else constants)
            cum = np.cumsum(a, axis=1, out=cumbuf[:active])
            totals = cum[:, -1].tolist()

            # Scalar phase: one exponential (and at most one uniform)
            # per live trial, via plain-Python int/float arithmetic --
            # numpy scalar types here would triple the per-event cost.
            live: list[int] = []
            uts: list[float] = []
            finished: list[int] = []
            fired_last: list[int] = []
            live_append = live.append
            uts_append = uts.append
            for k, tot in enumerate(totals):
                if tot <= 0.0:
                    absorbed_out[ids[k]] = True
                    finished.append(k)          # frozen forever
                    continue
                t = t_l[k] + exp_l[k]() * (1.0 / tot)
                t_l[k] = t
                if t > t_final:
                    finished.append(k)          # horizon crossed, no event
                    continue
                ns = ns_l[k]
                if grid[ns] <= t:               # record pre-fire samples
                    start = ns
                    while grid[ns] <= t:
                        ns += 1
                    samples[ids[k], start:ns] = counts[k]
                    ns_l[k] = ns
                ev = ev_l[k]
                if ev >= max_events:
                    raise SimulationError(
                        f"SSA exceeded {max_events} events at t={t:g} "
                        f"(ensemble trial {ids[k]})")
                ev_l[k] = ev + 1
                uts_append(((draw_l[k]() >> 11) * uniform_scale
                            if use_raw else draw_l[k]()) * tot)
                live_append(k)
                if t >= t_final:                # event exactly on the horizon
                    fired_last.append(k)

            if live:
                whole = len(live) == active
                rows = None if whole else np.array(live, dtype=np.intp)
                cum_live = cum if whole else cum[rows]
                ut = np.array(uts)
                # Counting entries <= u*total is searchsorted
                # side='right': zero-width bins are skipped, matching
                # select_reaction() -- including its last-positive
                # fallback when rounding overflows the final bin.
                sel = (cum_live <= ut[:, None]).sum(axis=1)
                if (sel >= n_r).any():
                    for i in np.nonzero(sel >= n_r)[0]:
                        row = a[live[int(i)]]
                        positive = np.nonzero(row > 0.0)[0]
                        if not positive.size:
                            raise SimulationError(NO_POSITIVE_PROPENSITY)
                        sel[i] = positive[-1]
                if whole:
                    counts[:active] += stoich_rows[sel]
                else:
                    counts[rows] += stoich_rows[sel]
                if firings is not None:
                    firings += np.bincount(sel, minlength=n_r)

            if finished or fired_last:
                drop = set(finished)
                drop.update(fired_last)
                for k in drop:
                    trial = ids[k]
                    samples[trial, ns_l[k]:] = counts[k]
                    events_out[trial] = ev_l[k]
                keep = [k for k in range(active) if k not in drop]
                if keep:
                    kidx = np.array(keep, dtype=np.intp)
                    counts[:len(keep)] = counts[kidx]
                    if per_trial_constants:
                        con[:len(keep)] = con[kidx]
                    ids = [ids[k] for k in keep]
                    t_l = [t_l[k] for k in keep]
                    ev_l = [ev_l[k] for k in keep]
                    ns_l = [ns_l[k] for k in keep]
                    exp_l = [exp_l[k] for k in keep]
                    draw_l = [draw_l[k] for k in keep]
                else:
                    ids = []

        return EnsembleResult(sample_times, samples,
                              self.network.species_names, events_out,
                              absorbed_out,
                              {"t_start": t_start, "t_final": t_final})

"""Differential oracles: engines checking each other.

Unlike the metamorphic invariants (one engine against algebra), these
run *different* engines on the same network and require statistical or
numerical agreement:

``diff.ode-solvers``
    scipy LSODA vs BDF vs the in-house Dormand-Prince RK45, all at
    tight tolerances, must agree on the full sampled trajectory.  The
    explicit RK45 is skipped for stiff targets where it would crawl.
``diff.ssa-vs-ode``
    In the large-copy-number limit the SSA ensemble mean converges to
    the deterministic solution.  Initial counts are scaled by
    :data:`VOLUME` (and the simulation volume with them), an ensemble
    of seeded realisations is fanned over
    :class:`~repro.crn.simulation.sweep.ParallelSweepRunner`, and the
    rescaled mean final state must sit inside a CLT acceptance band
    around the ODE final state (plus an O(1/V) discreteness allowance).
``diff.tau-vs-ssa``
    Tau-leaping is an approximation of exact SSA: ensemble mean final
    states on matched seed lists must agree within the combined CLT
    bands plus a leaping-bias allowance.
``diff.batch-vs-reference``
    The structure-of-arrays SSA backend is not an approximation at all:
    on matched per-trial seeds every sampled trajectory (and event
    count) must equal the reference engine's **bitwise** -- the
    strongest oracle in the battery, and the contract that keeps seeded
    corpora and cached baselines valid across backends.
``diff.native-vs-numpy``
    The compiled mass-action kernel and its NumPy twin must return the
    same RHS and Jacobian **bitwise** at every sampled state of the
    target's ODE trajectory and at a seeded copy of each state with
    entries zeroed and negated (the clamp path).  Skipped when the
    kernel is unavailable on the machine.
``diff.native-ssa-vs-python``
    The compiled SSA event loop and its Python twin must leave a seeded
    realisation **bitwise** identical: the sampled trajectory, the event
    count, the counts, propensities and gather buffer, and the
    generator's next draw.  Skipped when the kernel is unavailable.

Every ensemble member's seed is spawned from one root
:class:`numpy.random.SeedSequence` and reductions are payload-ordered,
so results are identical serial or parallel, whatever the worker count.
"""

from __future__ import annotations

import numpy as np

from repro.conformance.metamorphic import CheckResult, _guarded, _Skip
from repro.crn.simulation import SimulationOptions, simulate
from repro.crn.simulation.sweep import ParallelSweepRunner
from repro.errors import SimulationError

#: Copy-number scaling for the SSA-vs-ODE limit oracle.
VOLUME = 20.0

#: z-score of the CLT acceptance band (per-species, two-sided).  5
#: standard errors keeps the per-run false-positive rate negligible
#: across the whole corpus while still catching any systematic bias.
Z_BAND = 5.0

#: Event budget per ensemble member; a member exceeding it marks the
#: whole oracle cell as skipped (too expensive), never as passed.
MAX_EVENTS = 1_000_000

#: Tight tolerances for the cross-solver oracle.
TIGHT_RTOL = 1e-9
TIGHT_ATOL = 1e-11

#: Cross-solver acceptance: relative to the trajectory's magnitude.
SOLVER_RTOL = 1e-5
SOLVER_ATOL = 1e-8


def _final_state_worker(payload: tuple) -> np.ndarray:
    """One ensemble member's final state vector (process-pool worker)."""
    network, method, rates, volume, seed, t_final, initial = payload
    options = SimulationOptions(
        seed=np.random.default_rng(seed), rates=rates, volume=volume,
        initial=initial, n_samples=2, max_events=MAX_EVENTS)
    trajectory = simulate(network, t_final, method, scheme=None,
                          options=options)
    return trajectory.states[-1]


def _ensemble_finals(network, method: str, rates: np.ndarray,
                     volume: float, seeds, t_final: float, initial,
                     n_workers: int | None) -> np.ndarray:
    """Stacked final states over one seeded ensemble (payload order)."""
    payloads = [(network, method, rates, volume, seed, t_final, initial)
                for seed in seeds]
    runner = ParallelSweepRunner(n_workers)
    return np.vstack(runner.map(_final_state_worker, payloads))


def check_batch_vs_reference(target, seed: int,
                             n_workers: int | None = None,
                             n_runs: int = 8) -> CheckResult:
    """Batch-backend realisations must match the reference bitwise."""
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        from repro.crn.simulation import BatchStochasticSimulator

        network = target.network
        t_final = min(target.t_final, 1.0)
        rates = network.rate_vector(target.scheme)
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        try:
            reference = []
            for member in seeds:
                options = SimulationOptions(
                    seed=np.random.default_rng(member), rates=rates,
                    n_samples=17, max_events=MAX_EVENTS)
                reference.append(simulate(network, t_final, "ssa",
                                          scheme=None, options=options))
            ensemble = BatchStochasticSimulator(
                network, rates=rates).simulate_ensemble(
                    t_final, seeds=list(seeds), n_samples=17,
                    max_events=MAX_EVENTS)
        except SimulationError as exc:
            raise _Skip(f"ensemble over event budget: {exc}") from exc
        for i, run in enumerate(reference):
            batch_run = ensemble.trial(i)
            if not np.array_equal(run.states, batch_run.states):
                row = int(np.argmax(np.any(
                    run.states != batch_run.states, axis=1)))
                return (f"trial {i}: batch states diverge from the "
                        f"reference engine at sample {row} "
                        f"(t={run.times[row]:g}); seeded realisations "
                        f"must match bitwise")
            if run.meta["events"] != batch_run.meta["events"]:
                return (f"trial {i}: batch fired "
                        f"{batch_run.meta['events']} events vs "
                        f"reference {run.meta['events']}")
        return None
    return _guarded("diff.batch-vs-reference", target.name, "ssa-batch",
                    body)


def check_ode_solvers(target, seed: int,
                      n_workers: int | None = None) -> CheckResult:
    def body():
        network = target.network
        t_final = target.t_final

        def run(solver):
            options = SimulationOptions(solver=solver, n_samples=33,
                                        rtol=TIGHT_RTOL, atol=TIGHT_ATOL)
            return simulate(network, t_final, "ode",
                            scheme=target.scheme, options=options)

        solvers = ["LSODA", "BDF"]
        if not target.stiff:
            solvers.append("internal-rk45")
        trajectories = {name: run(name) for name in solvers}
        reference = trajectories["LSODA"]
        scale = max(1.0, float(np.max(np.abs(reference.states))))
        tolerance = SOLVER_ATOL + SOLVER_RTOL * scale
        worst = None
        for name in solvers[1:]:
            deviation = float(np.max(np.abs(
                reference.states - trajectories[name].states)))
            if deviation > tolerance:
                worst = (f"LSODA vs {name}: max deviation "
                         f"{deviation:.3e} exceeds {tolerance:.3e}")
        return worst
    return _guarded("diff.ode-solvers", target.name, "ode", body)


def check_ssa_vs_ode(target, seed: int,
                     n_workers: int | None = None,
                     n_runs: int = 16) -> CheckResult:
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        network = target.network
        t_final = min(target.t_final, 0.5)
        rates = network.rate_vector(target.scheme)
        scaled_initial = {name: value * VOLUME
                          for name, value in network.initial.items()}
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        try:
            finals = _ensemble_finals(network, "ssa", rates, VOLUME,
                                      seeds, t_final, scaled_initial,
                                      n_workers)
        except SimulationError as exc:
            raise _Skip(f"ensemble over event budget: {exc}") from exc
        mean = finals.mean(axis=0) / VOLUME
        sem = finals.std(axis=0, ddof=1) / np.sqrt(n_runs) / VOLUME
        options = SimulationOptions(n_samples=2, rates=rates)
        ode = simulate(network, t_final, "ode", scheme=None,
                       options=options).states[-1]
        scale = np.maximum(1.0, np.abs(ode))
        band = Z_BAND * sem + 0.02 * scale + 2.0 / VOLUME
        deviation = np.abs(mean - ode)
        worst = int(np.argmax(deviation - band))
        if deviation[worst] > band[worst]:
            name = network.species_names[worst]
            return (f"species {name!r}: SSA ensemble mean "
                    f"{mean[worst]:.4f} vs ODE {ode[worst]:.4f} "
                    f"outside CLT band {band[worst]:.4f} "
                    f"({n_runs} runs, volume {VOLUME:g})")
        return None
    return _guarded("diff.ssa-vs-ode", target.name, "ssa", body)


def check_tau_vs_ssa(target, seed: int,
                     n_workers: int | None = None,
                     n_runs: int = 16) -> CheckResult:
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        network = target.network
        t_final = min(target.t_final, 1.0)
        rates = network.rate_vector(target.scheme)
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        try:
            ssa = _ensemble_finals(network, "ssa", rates, 1.0, seeds,
                                   t_final, None, n_workers)
            tau = _ensemble_finals(network, "tau", rates, 1.0, seeds,
                                   t_final, None, n_workers)
        except SimulationError as exc:
            raise _Skip(f"ensemble over event budget: {exc}") from exc
        mean_ssa = ssa.mean(axis=0)
        mean_tau = tau.mean(axis=0)
        sem = (ssa.std(axis=0, ddof=1)
               + tau.std(axis=0, ddof=1)) / np.sqrt(n_runs)
        scale = np.maximum(1.0, np.abs(mean_ssa))
        band = Z_BAND * sem + 0.05 * scale + 2.0
        deviation = np.abs(mean_tau - mean_ssa)
        worst = int(np.argmax(deviation - band))
        if deviation[worst] > band[worst]:
            name = network.species_names[worst]
            return (f"species {name!r}: tau-leaping mean "
                    f"{mean_tau[worst]:.3f} vs SSA mean "
                    f"{mean_ssa[worst]:.3f} outside band "
                    f"{band[worst]:.3f} ({n_runs} matched seeds)")
        return None
    return _guarded("diff.tau-vs-ssa", target.name, "tau", body)


def _first_difference(native: np.ndarray, numpy: np.ndarray) -> str | None:
    """Where two results differ bitwise (NaNs compare by bits), if anywhere."""
    if native.tobytes() == numpy.tobytes():
        return None
    index = np.unravel_index(int(np.argmax(
        native.view(np.uint64) != numpy.view(np.uint64))), native.shape)
    return (f"entry {tuple(int(i) for i in index)}: "
            f"{native[index]!r} vs {numpy[index]!r}")


def check_native_vs_numpy(target, seed: int,
                          n_workers: int | None = None) -> CheckResult:
    """Compiled kernel and NumPy twin must agree bitwise."""
    def body():
        from repro.crn import native
        from repro.crn.kinetics import build_kinetics

        if native.load() is None:
            raise _Skip("compiled kinetics kernel unavailable")
        network = target.network
        options = SimulationOptions(n_samples=17)
        trajectory = simulate(network, target.t_final, "ode",
                              scheme=target.scheme, options=options)
        kinetics = build_kinetics(network, target.scheme)
        rng = np.random.default_rng(seed)
        signs = rng.choice([-1.0, 0.0, 1.0], size=trajectory.states.shape)
        for states in (trajectory.states, trajectory.states * signs):
            for row, x in enumerate(states):
                for name in ("rhs", "jacobian"):
                    where = _first_difference(
                        getattr(kinetics, name)(0.0, x),
                        getattr(kinetics, f"{name}_numpy")(0.0, x))
                    if where is not None:
                        return (f"{name} at sample {row} "
                                f"(t={trajectory.times[row]:g}): compiled "
                                f"vs NumPy differ at {where}")
        if not kinetics._kernel:
            return "sampled states never reached the compiled kernel"
        return None
    return _guarded("diff.native-vs-numpy", target.name, "ode", body)


def check_native_ssa_vs_python(target, seed: int,
                               n_workers: int | None = None) -> CheckResult:
    """Compiled SSA loop and Python twin must agree bitwise."""
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        from repro.crn import native
        from repro.crn.simulation.ssa import StochasticSimulator

        if native.load() is None:
            raise _Skip("compiled SSA kernel unavailable")
        network = target.network
        rates = network.rate_vector(target.scheme)
        runs = []
        for compiled in (True, False):
            simulator = StochasticSimulator(network, rates=rates, seed=seed)
            state = simulator.propensity_state
            if not compiled:
                state._native = False  # bound as unavailable: the twin
            try:
                trajectory = simulator.simulate(
                    min(target.t_final, 1.0), n_samples=17,
                    max_events=MAX_EVENTS)
            except SimulationError as exc:
                raise _Skip(f"realisation over event budget: {exc}") \
                    from exc
            if compiled and not state._native:
                return "the realisation never reached the compiled loop"
            runs.append({"states": trajectory.states,
                         "counts": state.counts,
                         "propensities": state.a,
                         "gather buffer": state._cb,
                         "next draw": np.array([simulator.rng.random()]),
                         "events": trajectory.meta["events"]})
        compiled, twin = runs
        if compiled["events"] != twin["events"]:
            return (f"compiled loop fired {compiled['events']} events vs "
                    f"the Python loop's {twin['events']}")
        for name in ("states", "counts", "propensities", "gather buffer",
                     "next draw"):
            where = _first_difference(compiled[name], twin[name])
            if where is not None:
                return (f"{name}: compiled vs Python SSA loop differ at "
                        f"{where}")
        return None
    return _guarded("diff.native-ssa-vs-python", target.name, "ssa", body)


#: The differential battery, in report order.
DIFFERENTIAL_CHECKS = (
    check_ode_solvers,
    check_batch_vs_reference,
    check_ssa_vs_ode,
    check_tau_vs_ssa,
    check_native_vs_numpy,
    check_native_ssa_vs_python,
)

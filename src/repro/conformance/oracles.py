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
    :data:`VOLUME` (and the simulation volume with them), a seeded
    ensemble runs in one ``simulate_ensemble`` call, and the rescaled
    mean final state must sit inside a CLT acceptance band around the
    ODE final state (plus an O(1/V) discreteness allowance).
``diff.tau-vs-ssa``
    Tau-leaping is an approximation of exact SSA: ensemble mean final
    states on matched seed lists must agree within the combined CLT
    bands plus a leaping-bias allowance.
``diff.ensemble-vs-trial``
    A seeded SSA ensemble (``StochasticSimulator.simulate_ensemble``, one
    compiled call for every trial) is not an approximation at all: each
    trial's sampled trajectory and event count must equal an
    independent ``simulate`` run on the same seed **bitwise** -- the
    contract that keeps ensemble means, seeded corpora and cached
    baselines valid whichever path ran them.
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
``diff.lsoda-walk-vs-odeint``
    The resumable LSODA walk that locates ODE events and ``odeint``
    must return the same states **bitwise** at every point of a seeded
    sample grid, with the analytic and the finite-difference Jacobian,
    and count the same RHS and Jacobian evaluations.  Skipped when
    scipy lacks the resumable entry point.
``diff.native-ssa-poll-vs-python``
    The compiled SSA poll loop (a machine's poll chunks in one call)
    and its Python twin must end every call alike on a seeded margin
    table: the closing row, the chunks run, the departure flag and the
    time, and leave **bitwise** identical sampled rows, counts,
    propensities and gather buffer, and the generator's next draw.
    Skipped when the kernel is unavailable.
``diff.native-ode-vs-lsoda``
    The compiled BDF (``native-bdf``, the machines' integrator) and
    LSODA, at the ``diff.ode-solvers`` tolerances, must agree on the
    same 33-point sampled trajectory within that oracle's acceptance.
    Skipped when the kernel is unavailable.

Every ensemble member's seed is spawned from one root
:class:`numpy.random.SeedSequence`, and each ensemble row is bitwise the
independent run on its seed (``diff.ensemble-vs-trial``), so a verdict
is a pure function of the cell seed.
"""

from __future__ import annotations

import numpy as np

from repro.conformance.metamorphic import CheckResult, _guarded, _Skip
from repro.crn.simulation import (SimulationOptions, StochasticSimulator,
                                  TauLeapingSimulator, simulate)
from repro.crn.simulation.margins import MarginEvent, MarginTable
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


def _ensemble_finals(network, method: str, rates: np.ndarray,
                     volume: float, seeds, t_final: float,
                     initial) -> np.ndarray:
    """Final states of one seeded ``"ssa"`` or ``"tau"`` ensemble, one
    row per seed, in seed order."""
    engine = StochasticSimulator if method == "ssa" else TauLeapingSimulator
    simulator = engine(network, rates=rates, volume=volume)
    return simulator.simulate_ensemble(
        t_final, seeds, initial=initial, n_samples=2,
        max_events=MAX_EVENTS).states[:, -1]


def check_ensemble_vs_trial(target, seed: int,
                            n_runs: int = 8) -> CheckResult:
    """Ensemble trials must equal independent seeded runs bitwise."""
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        network = target.network
        t_final = min(target.t_final, 1.0)
        rates = network.rate_vector(target.scheme)
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        try:
            runs = [StochasticSimulator(network, rates=rates,
                                        seed=np.random.default_rng(member))
                    .simulate(t_final, n_samples=17, max_events=MAX_EVENTS)
                    for member in seeds]
            ensemble = StochasticSimulator(
                network, rates=rates).simulate_ensemble(
                    t_final, seeds, n_samples=17, max_events=MAX_EVENTS)
        except SimulationError as exc:
            raise _Skip(f"ensemble over event budget: {exc}") from exc
        for i, run in enumerate(runs):
            trial = ensemble.trial(i)
            if not np.array_equal(run.states, trial.states):
                row = int(np.argmax(np.any(run.states != trial.states,
                                           axis=1)))
                return (f"trial {i}: ensemble states diverge from the "
                        f"independent run at sample {row} "
                        f"(t={run.times[row]:g}); seeded realisations "
                        f"must match bitwise")
            if run.meta["events"] != trial.meta["events"]:
                return (f"trial {i}: ensemble fired "
                        f"{trial.meta['events']} events vs "
                        f"{run.meta['events']} in the independent run")
        return None
    return _guarded("diff.ensemble-vs-trial", target.name, "ssa", body)


def _against_lsoda(target, solvers: list[str]) -> str | None:
    """Run LSODA and ``solvers`` at the tight tolerances on the same
    33-point grid; the last solver whose trajectory strays from LSODA's
    by more than the cross-solver acceptance, described, or ``None``."""
    def run(solver):
        options = SimulationOptions(solver=solver, n_samples=33,
                                    rtol=TIGHT_RTOL, atol=TIGHT_ATOL)
        return simulate(target.network, target.t_final, "ode",
                        scheme=target.scheme, options=options)

    reference = run("LSODA")
    scale = max(1.0, float(np.max(np.abs(reference.states))))
    tolerance = SOLVER_ATOL + SOLVER_RTOL * scale
    worst = None
    for name in solvers:
        deviation = float(np.max(np.abs(reference.states
                                        - run(name).states)))
        if deviation > tolerance:
            worst = (f"LSODA vs {name}: max deviation "
                     f"{deviation:.3e} exceeds {tolerance:.3e}")
    return worst


def check_ode_solvers(target, seed: int) -> CheckResult:
    def body():
        solvers = ["BDF"]
        if not target.stiff:
            solvers.append("internal-rk45")
        return _against_lsoda(target, solvers)
    return _guarded("diff.ode-solvers", target.name, "ode", body)


def check_native_ode_vs_lsoda(target, seed: int) -> CheckResult:
    """The compiled BDF must agree with LSODA on the sampled grid."""
    def body():
        from repro.crn import native

        if native.load() is None:
            raise _Skip("compiled kernel unavailable")
        return _against_lsoda(target, ["native-bdf"])
    return _guarded("diff.native-ode-vs-lsoda", target.name, "ode", body)


def check_ssa_vs_ode(target, seed: int, n_runs: int = 16) -> CheckResult:
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
                                      seeds, t_final, scaled_initial)
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


def check_tau_vs_ssa(target, seed: int, n_runs: int = 16) -> CheckResult:
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        network = target.network
        t_final = min(target.t_final, 1.0)
        rates = network.rate_vector(target.scheme)
        seeds = np.random.SeedSequence(seed).spawn(n_runs)
        try:
            ssa = _ensemble_finals(network, "ssa", rates, 1.0, seeds,
                                   t_final, None)
            tau = _ensemble_finals(network, "tau", rates, 1.0, seeds,
                                   t_final, None)
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


def check_native_vs_numpy(target, seed: int) -> CheckResult:
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


def check_native_ssa_vs_python(target, seed: int) -> CheckResult:
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


def check_native_ssa_poll_vs_python(target, seed: int) -> CheckResult:
    """Compiled SSA poll loop and Python twin must agree bitwise."""
    def body():
        if not target.stochastic:
            raise _Skip("stochastic engines disabled for this target")
        from repro.crn import native
        from repro.crn.simulation.margins import MarginTable
        from repro.crn.simulation.ssa import StochasticSimulator

        if native.load() is None:
            raise _Skip("compiled SSA kernel unavailable")
        network = target.network
        rates = network.rate_vector(target.scheme)
        counts = np.rint(network.initial_vector()).astype(np.int64)
        rng = np.random.default_rng(seed)

        def term(sign: int) -> tuple:
            species = np.sort(rng.choice(
                counts.size, size=rng.integers(1, counts.size + 1),
                replace=False))
            weights = rng.integers(1, 3, species.size).astype(float)
            return species, weights, float(weights @ counts[species]), sign

        departure = MarginTable([term(1)])
        closing = MarginTable([term(1), term(-1)])
        interval = min(target.t_final, 1.0) / 4
        grid = np.linspace(0.0, interval, 9)
        runs = []
        for compiled in (True, False):
            simulator = StochasticSimulator(network, rates=rates, seed=seed)
            state = simulator.propensity_state
            if not compiled:
                state._native = False  # bound as unavailable: the twin
            polls, start, departed, t = [], counts, False, 0.0
            try:
                # Unless a row closes the cycle, the first call ends on
                # its budget of two chunks and the second on the limit,
                # one chunk into its budget of three.
                for chunks in (2, 3):
                    poll = simulator.poll(
                        start, grid, departure, closing, t=t,
                        departed=departed, chunks=chunks, keep=True,
                        until=((0.0, 2.5 * interval),),
                        max_events=MAX_EVENTS)
                    polls.append(poll)
                    if poll.row is not None:
                        break
                    start, departed, t = poll.counts, poll.departed, poll.t
            except SimulationError as exc:
                raise _Skip(f"poll over event budget: {exc}") from exc
            if compiled and not state._native:
                return "the poll never reached the compiled loop"
            runs.append({"calls": [(p.row, p.chunks, p.departed, p.t)
                                   for p in polls],
                         "rows": np.concatenate([p.rows for p in polls]),
                         "counts": np.concatenate([p.counts for p in polls]),
                         "propensities": state.a,
                         "gather buffer": state._cb,
                         "next draw": np.array([simulator.rng.random()])})
        compiled, twin = runs
        if compiled["calls"] != twin["calls"]:
            return (f"compiled poll ended its calls at (row, chunks, "
                    f"departed, t) {compiled['calls']} vs the Python "
                    f"loop's {twin['calls']}")
        for name in ("rows", "counts", "propensities", "gather buffer",
                     "next draw"):
            where = _first_difference(compiled[name], twin[name])
            if where is not None:
                return (f"{name}: compiled vs Python SSA poll differ at "
                        f"{where}")
        return None
    return _guarded("diff.native-ssa-poll-vs-python", target.name, "ssa",
                    body)


#: An event that never fires (its empty sum less -1 is 1.0 on every
#: state), so a walk covers its whole grid.
_NEVER = MarginEvent(MarginTable([([], [], -1.0, 1)]), -1.0)


def check_lsoda_walk_vs_odeint(target, seed: int) -> CheckResult:
    """Resumable LSODA walk and ``odeint`` must agree bitwise."""
    def body():
        from repro.crn.simulation import ode

        if ode._resumable_lsoda() is None:
            raise _Skip("resumable LSODA entry point unavailable")
        network = target.network
        x0 = network.initial_vector()
        rng = np.random.default_rng(seed)
        grid = np.unique(np.concatenate(
            [[0.0, target.t_final],
             rng.uniform(0.0, target.t_final, size=15)]))
        for jacobian in ("dense", "none"):
            simulator = ode.OdeSimulator(network, target.scheme,
                                         jacobian=jacobian)
            walk_stats = {"nfev": 0, "njev": 0}
            odeint_stats = {"nfev": 0, "njev": 0}
            walked, _, _ = simulator._walk_lsoda(
                x0, grid, _NEVER, -1.0, None, walk_stats)
            states = simulator._odeint_span(x0, grid, odeint_stats)
            where = _first_difference(walked, states)
            if where is not None:
                return (f"jacobian={jacobian}: walk vs odeint states "
                        f"differ at {where}")
            if walk_stats != odeint_stats:
                return (f"jacobian={jacobian}: walk counted {walk_stats}, "
                        f"odeint {odeint_stats}")
        return None
    return _guarded("diff.lsoda-walk-vs-odeint", target.name, "ode", body)


#: The differential battery, in report order.
DIFFERENTIAL_CHECKS = (
    check_ode_solvers,
    check_ensemble_vs_trial,
    check_ssa_vs_ode,
    check_tau_vs_ssa,
    check_native_vs_numpy,
    check_native_ssa_vs_python,
    check_lsoda_walk_vs_odeint,
    check_native_ssa_poll_vs_python,
    check_native_ode_vs_lsoda,
)

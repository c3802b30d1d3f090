"""E17 -- seeded ensemble throughput: one compiled call vs a per-trial loop.

One seeded ensemble (same network, many independent trials) run two
ways: a per-trial loop that builds a fresh ``StochasticSimulator`` per
seed and sums the sampled states in seed order (what a chunk of
``mean_trajectory`` computed before ensembles ran in one call), and one
:meth:`StochasticSimulator.simulate_ensemble` call, which builds the
kinetics once and runs every trial through the compiled event loop.

The workload is a token-rotation ring (constant total propensity, no
absorption), so every trial runs the full horizon and the comparison
measures steady-state event throughput.  The headline number is the
ensemble path's events/second; the gates are exactness -- the ensemble
must reproduce the per-trial sums and spot-checked trials bitwise --
and a speedup floor over the per-trial loop.
"""

import numpy as np

from repro.crn.network import Network
from repro.crn.simulation.ssa import StochasticSimulator
from repro.reporting import markdown_table

from common import median_iqr, run_interleaved, save_json, save_report

N_TRIALS = 1024
N_SPECIES = 6
TOKENS_PER_SPECIES = 20
T_FINAL = 8.0
N_SAMPLES = 50
N_SPOT_CHECKS = 3
#: Timed rounds after one warm-up (which also builds the kernel);
#: each round runs both paths.
ROUNDS = 5

#: Conservative floor asserted by the benchmark.  The ensemble call
#: measures ~6x the per-trial loop on this workload (see
#: results/E17_batch.json); the floor leaves headroom for slower CI
#: machines while the committed record plus check_regression.py's 30%
#: gate track the actual throughput.
SPEEDUP_FLOOR = 3.0


def _rotation_network():
    network = Network("rotation")
    names = [f"S{i}" for i in range(N_SPECIES)]
    for i, name in enumerate(names):
        network.add(name, names[(i + 1) % N_SPECIES], 1.0)
        network.set_initial(name, TOKENS_PER_SPECIES)
    return network


def _per_trial(network, seeds):
    """Sum of independent runs, one fresh simulator per seed."""
    total, events = None, 0
    for seed in seeds:
        run = StochasticSimulator(
            network, seed=np.random.default_rng(seed)).simulate(
                T_FINAL, n_samples=N_SAMPLES)
        if total is None:
            total = run.states.copy()
        else:
            total += run.states
        events += run.meta["events"]
    return run.times, total, events


def _ensemble(network, seeds):
    return StochasticSimulator(network).simulate_ensemble(
        T_FINAL, seeds, n_samples=N_SAMPLES)


def test_bench_batch_ensemble(benchmark, bench_seed, bench_json):
    network = _rotation_network()
    seeds = np.random.SeedSequence(bench_seed).spawn(N_TRIALS)
    walls, results = run_interleaved(
        benchmark, {"per_trial": lambda: _per_trial(network, seeds),
                    "ensemble": lambda: _ensemble(network, seeds)},
        rounds=ROUNDS)
    per_trial_wall, per_trial_iqr = median_iqr(walls["per_trial"])
    ensemble_wall, ensemble_iqr = median_iqr(walls["ensemble"])
    ref_times, ref_sum, ref_events = results["per_trial"]
    ensemble = results["ensemble"]

    events = int(ensemble.events.sum())
    sums_bitwise = (np.array_equal(ensemble.times, ref_times)
                    and np.array_equal(ensemble.summed_states(), ref_sum)
                    and events == ref_events)
    trials_bitwise = True
    for i in range(0, N_TRIALS, N_TRIALS // N_SPOT_CHECKS):
        run = StochasticSimulator(
            network, seed=np.random.default_rng(seeds[i])).simulate(
                T_FINAL, n_samples=N_SAMPLES)
        trial = ensemble.trial(i)
        trials_bitwise &= (np.array_equal(trial.states, run.states)
                           and trial.meta["events"]
                           == run.meta["events"])
    result = {
        "trials": N_TRIALS,
        "events": events,
        "rounds": len(walls["ensemble"]),
        "reference_wall_seconds": per_trial_wall,
        "reference_wall_seconds_iqr": per_trial_iqr,
        "ensemble_wall_seconds": ensemble_wall,
        "ensemble_wall_seconds_iqr": ensemble_iqr,
        "reference_events_per_second": ref_events / per_trial_wall,
        "events_per_second": events / ensemble_wall,
        "speedup": per_trial_wall / ensemble_wall,
        "sums_bitwise": sums_bitwise,
        "trials_bitwise": trials_bitwise,
    }

    body = markdown_table(
        ["path", "wall seconds (median)", "IQR", "events/second"],
        [["per-trial loop (fresh simulator per seed)",
          f"{per_trial_wall:.3f}", f"{per_trial_iqr:.3f}",
          f"{result['reference_events_per_second']:,.0f}"],
         ["simulate_ensemble (one compiled call)",
          f"{ensemble_wall:.3f}", f"{ensemble_iqr:.3f}",
          f"{result['events_per_second']:,.0f}"]])
    body += (f"\n\n{N_TRIALS} trials x rotation ring "
             f"({N_SPECIES} species, {TOKENS_PER_SPECIES} tokens each), "
             f"t_final={T_FINAL:g}, {events:,} events total; "
             f"median of {result['rounds']} interleaved rounds after one "
             f"warm-up; speedup {result['speedup']:.2f}x.\n\n"
             f"Bitwise equivalence on matched seeds: ensemble sums "
             f"{'OK' if sums_bitwise else 'FAILED'}, "
             f"spot-checked trials "
             f"{'OK' if trials_bitwise else 'FAILED'}.\n")
    save_report("E17_batch",
                "E17 -- seeded ensemble throughput (one call vs per-trial)",
                body)
    save_json("E17_batch", result, seed=bench_seed, enabled=bench_json)

    assert sums_bitwise
    assert trials_bitwise
    assert result["speedup"] >= SPEEDUP_FLOOR

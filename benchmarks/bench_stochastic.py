"""E14 -- discrete (single-molecule) exactness of the machine.

The synthesized moving-average network driven by the exact stochastic
simulator: integer molecule counts, absence = literally zero molecules,
no quantisation step.  Expected shape: outputs match the discrete-time
reference to within a couple of molecules; occasional single-molecule
straggler wedges are recovered by the driver's degradation flush and
cost at most the flushed molecules.

Also the quantified rate-sensitivity claim: every reaction of the
phase-ordered transfer has |d ln(value) / d ln(k)| << 1.

SSA throughput is timed over five rounds after one warm-up, so no round
times the first-use kernel build; each round has its own metrics
registry, and the record keeps the median and IQR.
"""

import numpy as np

from repro.core.dfg import SignalFlowGraph
from repro.core.stochastic_machine import StochasticMachine
from repro.crn.simulation.sensitivity import (observable_final,
                                              rate_sensitivities)
from repro.core.memory import build_delay_chain
from repro.obs import MetricsRegistry
from repro.reporting import markdown_table

from common import median_iqr, run_timed, save_json, save_metrics, save_report

SAMPLES = [40, 80, 20, 60]
N_SEEDS = 4

#: Timed rounds after one warm-up; the record keeps their median and IQR.
ROUNDS = 5


def _design():
    from fractions import Fraction

    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x)
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d)))
    return sfg


def _run(base_seed=0):
    metrics = MetricsRegistry()
    rows = []
    for seed in range(base_seed, base_seed + N_SEEDS):
        machine = StochasticMachine(_design(), seed=seed,
                                    metrics=metrics)
        run = machine.run({"x": SAMPLES})
        rows.append([seed,
                     [int(v) for v in run.outputs["y"][:len(SAMPLES)]],
                     [int(v) for v in run.reference["y"]],
                     run.max_error(), machine.flush_events])

    network, _, _ = build_delay_chain(n=1, initial=20.0)
    sensitivities = rate_sensitivities(
        network, observable_final("Y", t_final=30.0))
    return rows, float(np.max(np.abs(sensitivities))), metrics


def _ssa_wall(metrics) -> float:
    return metrics.histogram("ssa.wall_seconds").summary().get("sum", 0.0)


def test_bench_stochastic_exactness(benchmark, bench_seed, bench_json):
    timed = run_timed(benchmark, lambda: _run(bench_seed), rounds=ROUNDS,
                      warmup_rounds=1)
    rows, worst_sensitivity, metrics = timed[-1]
    assert all(round_rows == rows for round_rows, *_ in timed), \
        "seeded realisations must repeat exactly in every round"
    walls = [_ssa_wall(m) for *_, m in timed]
    ssa_wall, ssa_wall_iqr = median_iqr(walls)
    events_per_sec, events_per_sec_iqr = median_iqr(
        [m.counter("ssa.events").value / wall
         for (*_, m), wall in zip(timed, walls)])

    body = markdown_table(
        ["seed", "measured y[n]", "reference y[n]", "max |error|",
         "straggler flushes"], rows)
    body += (f"\n\nworst |d ln(Y)/d ln(k)| over all reactions of the "
             f"phase-ordered transfer: {worst_sensitivity:.4f}\n")
    save_report("E14_stochastic",
                "E14 -- single-molecule exactness + rate sensitivity",
                body)
    save_metrics("E14_stochastic", metrics)
    errors = [row[3] for row in rows]
    save_json("E14_stochastic",
              {"max_error": max(errors),
               "exact_runs": sum(1 for e in errors if e == 0.0),
               "worst_sensitivity": worst_sensitivity,
               "ssa_events": metrics.counter("ssa.events").value,
               "rounds": len(timed),
               "ssa_wall_seconds": ssa_wall,
               "ssa_wall_seconds_iqr": ssa_wall_iqr,
               "events_per_sec": events_per_sec,
               "events_per_sec_iqr": events_per_sec_iqr},
              seed=bench_seed, enabled=bench_json)

    assert max(errors) <= 4.0
    assert sum(1 for e in errors if e == 0.0) >= N_SEEDS // 2
    assert worst_sensitivity < 0.05

"""E14 -- discrete (single-molecule) exactness of the machine.

The synthesized moving-average network driven by the exact stochastic
simulator: integer molecule counts, absence = literally zero molecules,
no quantisation step.  Expected shape: outputs match the discrete-time
reference to within a couple of molecules; occasional single-molecule
straggler wedges are recovered by the driver's degradation flush and
cost at most the flushed molecules.

Also the quantified rate-sensitivity claim: every reaction of the
phase-ordered transfer has |d ln(value) / d ln(k)| << 1.
"""

import numpy as np

from repro.core.dfg import SignalFlowGraph
from repro.core.stochastic_machine import StochasticMachine
from repro.crn.simulation.sensitivity import (observable_final,
                                              rate_sensitivities)
from repro.core.memory import build_delay_chain
from repro.reporting import markdown_table

from common import run_timed, save_json, save_metrics, save_report

SAMPLES = [40, 80, 20, 60]
N_SEEDS = 4


def _design():
    from fractions import Fraction

    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x)
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d)))
    return sfg


def _run(base_seed=0, metrics=None):
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
    return rows, float(np.max(np.abs(sensitivities)))


def test_bench_stochastic_exactness(benchmark, bench_seed, bench_json):
    from repro.obs import MetricsRegistry

    metrics = MetricsRegistry()
    rows, worst_sensitivity = run_timed(
        benchmark, lambda: _run(bench_seed, metrics))[-1]

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
    ssa_events = metrics.counter("ssa.events").value
    ssa_wall = metrics.histogram("ssa.wall_seconds").summary().get(
        "sum", 0.0)
    save_json("E14_stochastic",
              {"max_error": max(errors),
               "exact_runs": sum(1 for e in errors if e == 0.0),
               "worst_sensitivity": worst_sensitivity,
               "ssa_events": ssa_events,
               "ssa_wall_seconds": ssa_wall,
               "events_per_sec": ssa_events / ssa_wall if ssa_wall
               else 0.0},
              seed=bench_seed, enabled=bench_json)

    assert max(errors) <= 4.0
    assert sum(1 for e in errors if e == 0.0) >= N_SEEDS // 2
    assert worst_sensitivity < 0.05

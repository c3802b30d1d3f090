"""E1 -- the molecular clock figure.

Regenerates the clock waveform: sustained three-phase oscillation of the
RGB clock types, with measured period, jitter, and amplitude.  Paper
claim: a molecular clock is "reactions that produce sustained oscillations
in the chemical concentrations", with low concentration = logical 0 and
high = logical 1.
"""

import numpy as np

from repro import simulate
from repro.obs import MetricsRegistry
from repro.reporting import markdown_table, plot_trajectory
from repro.scenarios import get_scenario

from common import (median_iqr, ode_wall_seconds, run_timed, save_json,
                    save_metrics, save_report)

MASS = 20.0
T_FINAL = 40.0
#: Timed rounds after one warm-up; the record keeps their median and IQR.
ROUNDS = 5


def _run():
    metrics = MetricsRegistry()
    network, clock, _ = get_scenario("clock").driver(mass=MASS)
    trajectory = simulate(network, T_FINAL, metrics=metrics,
                          n_samples=2000)
    return clock, trajectory, metrics


def test_bench_clock_figure(benchmark, bench_json):
    timed = run_timed(benchmark, _run, rounds=ROUNDS, warmup_rounds=1)
    clock, trajectory, metrics = timed[-1]
    ode_wall, ode_wall_iqr = median_iqr(
        [ode_wall_seconds(m) for *_, m in timed])

    period = clock.period(trajectory)
    jitter = clock.period_jitter(trajectory)
    low, high = clock.amplitude(trajectory)
    rows = [
        ["period (slow time units)", period],
        ["period jitter (relative)", jitter],
        ["amplitude low", low],
        ["amplitude high", high],
        ["high/low logical contrast", high / max(low, 1e-9)],
        ["rotations observed", len(clock.rising_edges(trajectory))],
    ]
    figure = plot_trajectory(
        trajectory.window(0.0, 12.0),
        [clock.red.name, clock.green.name, clock.blue.name],
        title="Molecular clock: C_red / C_green / C_blue")
    save_report("E1_clock", "E1 -- molecular clock oscillation",
                markdown_table(["metric", "value"], rows)
                + "\n\n```\n" + figure + "\n```")
    save_metrics("E1_clock", metrics)
    save_json("E1_clock",
              {"period": period, "jitter": jitter,
               "amplitude": [low, high],
               "rotations": len(clock.rising_edges(trajectory)),
               "ode_nfev": metrics.counter("ode.nfev").value,
               "rounds": len(timed),
               "ode_wall_seconds": ode_wall,
               "ode_wall_seconds_iqr": ode_wall_iqr},
              enabled=bench_json)

    # Shape assertions: sustained, regular, full-swing oscillation.
    assert len(clock.rising_edges(trajectory)) >= 10
    assert jitter < 0.05
    assert high > 0.85 * MASS
    assert low < 0.05 * MASS

"""E2 -- the companion abstract's Figure 1(c): two-delay-element chain.

A quantity X = 50 transfers through two delay elements to Y via the
published reactions (consuming indicators + dimer accelerator), showing
"the expected alternation of the phases of the transfer, from X to Y
through red, green and blue" and "a very crisp transfer of signal values
across delay elements".
"""

import numpy as np

from repro import simulate
from repro.core.analysis import (effective_series, effective_value,
                                 rise_time, transfer_fidelity)
from repro.core.memory import build_delay_chain
from repro.reporting import markdown_table, plot_series

from common import run_timed, save_report

INITIAL = 50.0


def _run():
    network, line, _ = build_delay_chain(n=2, initial=INITIAL)
    trajectory = simulate(network, 40.0, n_samples=1200)
    return line, trajectory


def test_bench_delay_chain_figure(benchmark):
    line, trajectory = run_timed(benchmark, _run)[-1]

    stages = line.signal_species()
    rows = []
    for name in stages:
        series = effective_series(trajectory, name)
        peak_index = int(np.argmax(series))
        rows.append([name, float(series.max()),
                     float(trajectory.times[peak_index]),
                     float(series[-1])])
    table = markdown_table(["type", "peak quantity", "peak time",
                            "final quantity"], rows)
    figure = plot_series(
        trajectory.times,
        {name: effective_series(trajectory, name)
         for name in ["X", "R_d1", "B_d1", "R_d2", "B_d2", "Y"]},
        title="Delay chain transfer X -> ... -> Y (companion Fig 1c)")
    save_report("E2_delay_chain",
                "E2 -- two-delay-element chain (one-shot transfer)",
                table + "\n\n```\n" + figure + "\n```")

    # Shape assertions from the companion text.
    assert transfer_fidelity(trajectory, "X", "Y") > 0.999
    peaks = [float(np.max(effective_series(trajectory, n)))
             for n in stages]
    assert all(p > 0.8 * INITIAL for p in peaks), "crisp staircase"
    peak_times = [trajectory.times[int(np.argmax(
        effective_series(trajectory, n)))] for n in stages]
    assert all(b > a for a, b in zip(peak_times, peak_times[1:])), \
        "phases alternate in order"
    assert rise_time(trajectory, "Y") < 5.0

"""E12 -- cost scaling of the synchronous methodology.

Species/reaction counts and simulated cycle time as the design grows:
delay lines of increasing length and FIR filters of increasing order.
Expected shape: network size grows linearly in the number of design
elements (the three shared indicators do NOT multiply), and the cycle
time stays roughly constant -- synchronisation cost is global, not
per-element.
"""

from fractions import Fraction

import numpy as np

from repro.apps import fir
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import SynchronousMachine
from repro.core.synthesis import synthesize
from repro.reporting import markdown_table

from common import run_timed, save_report

LINE_LENGTHS = (1, 2, 4, 8, 16)
FIR_ORDERS = (1, 2, 4)


def _delay_line(n):
    sfg = SignalFlowGraph(f"line{n}")
    node = sfg.input("x")
    for i in range(n):
        node = sfg.delay(f"d{i}", source=node)
    sfg.output("y", node)
    return sfg


def _run():
    size_rows = []
    for n in LINE_LENGTHS:
        circuit = synthesize(_delay_line(n))
        size_rows.append([f"delay line {n}",
                          circuit.network.n_species,
                          circuit.network.n_reactions])
    for order in FIR_ORDERS:
        coefficients = [Fraction(1, order + 1)] * (order + 1)
        circuit = synthesize(fir(coefficients))
        size_rows.append([f"FIR order {order}",
                          circuit.network.n_species,
                          circuit.network.n_reactions])

    time_rows = []
    for n in (1, 4):
        machine = SynchronousMachine(_delay_line(n))
        run = machine.run({"x": [10.0, 5.0]}, extra_cycles=n + 1)
        time_rows.append([f"delay line {n}", run.mean_cycle_time,
                          run.max_error()])
    return size_rows, time_rows


def test_bench_scaling_table(benchmark):
    size_rows, time_rows = run_timed(benchmark, _run)[-1]

    body = markdown_table(["design", "# species", "# reactions"],
                          size_rows)
    body += "\n\n" + markdown_table(
        ["design", "cycle time", "max |error|"], time_rows)
    save_report("E12_scaling", "E12 -- cost scaling", body)

    # Linear growth: fit reactions vs line length, check the residual of
    # a linear model is small and the increments are constant.
    line_rows = size_rows[:len(LINE_LENGTHS)]
    reactions = np.array([row[2] for row in line_rows], dtype=float)
    lengths = np.array(LINE_LENGTHS, dtype=float)
    slope = np.diff(reactions) / np.diff(lengths)
    assert np.allclose(slope, slope[0], rtol=0.05), \
        "reaction count must grow linearly with design size"
    # Cycle time roughly constant across sizes (global synchronisation).
    times = [row[1] for row in time_rows]
    assert max(times) / min(times) < 2.5
    for row in time_rows:
        assert row[2] < 0.3

"""E5 -- the molecular binary counter figure.

A 3-bit ripple counter driven by increment pulses: the state sequence
must be 0,1,2,...,7,0,... with the wrap observable in the overflow
accumulator.  Run under the exact stochastic semantics (single-molecule
digital logic).
"""

from repro.reporting import markdown_table, plot_samples
from repro.scenarios import get_scenario

from common import run_timed, save_report

N_PULSES = 20


def _run():
    counter = get_scenario("counter").driver(bits=3)
    return counter.count(N_PULSES, seed=0)


def test_bench_counter_figure(benchmark):
    run = run_timed(benchmark, _run)[-1]

    rows = [[i, value, i % 8] for i, value in enumerate(run.values)]
    table = markdown_table(["pulse #", "counter value", "expected"], rows)
    figure = plot_samples({"counter": run.values},
                          title="3-bit molecular binary counter")
    save_report("E5_counter", "E5 -- binary counter", table
                + f"\n\noverflow events: {run.overflow}\n\n```\n"
                + figure + "\n```")

    run.check(8)
    assert run.overflow == N_PULSES // 8

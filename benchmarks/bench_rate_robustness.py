"""E6 -- the rate-robustness table (the paper's central claim).

"The computation is exact and independent of the specific reaction
rates ... only that 'fast' reactions are fast relative to 'slow'
reactions."  We stream the same samples through the same IIR design under

1. a sweep of k_fast/k_slow separations, and
2. independent per-reaction rate jitter (x U[0.5, 2)) within categories,

and report the output error against the exact reference.  Expected shape:
errors stay flat and small for separations >= ~100 and grow (or the
machine fails) as the separation collapses toward 1.
"""

import numpy as np

from repro.apps import iir_first_order
from repro.crn.rates import RateScheme, jittered_rates
from repro.crn.simulation import ParallelSweepRunner
from repro.core.machine import SynchronousMachine
from repro.errors import SimulationError
from repro.reporting import markdown_table

from common import run_timed, save_report

SAMPLES = [16.0, 0.0, 8.0, 4.0]
SEPARATIONS = (10.0, 30.0, 100.0, 300.0, 1000.0, 3000.0)


def _sweep_case(separation: float) -> list:
    """One separation-sweep row (top-level so process pools can pickle)."""
    scheme = RateScheme.with_separation(separation)
    try:
        machine = SynchronousMachine(iir_first_order(), scheme=scheme,
                                     max_cycle_time=200.0)
        run = machine.run({"x": SAMPLES})
        return [separation, run.max_error(), run.mean_cycle_time, "ok"]
    except SimulationError:
        return [separation, float("nan"), float("nan"),
                "FAILED (separation too small)"]


def _jitter_case(payload: tuple) -> list:
    """One jitter-trial row; the rates were drawn serially so results do
    not depend on worker scheduling."""
    trial, rates = payload
    machine = SynchronousMachine(iir_first_order(), rates=rates)
    run = machine.run({"x": SAMPLES})
    return [trial, run.max_error(), run.mean_cycle_time]


def _run():
    runner = ParallelSweepRunner()
    sweep_rows = runner.map(_sweep_case, list(SEPARATIONS))

    # Draw all jitter vectors from one serial rng stream first (the
    # draws stay identical to the serial implementation), then fan the
    # expensive machine runs out over the pool.
    network = SynchronousMachine(iir_first_order()).network
    rng = np.random.default_rng(0)
    payloads = [(trial, jittered_rates(network, RateScheme(), rng))
                for trial in range(4)]
    jitter_rows = runner.map(_jitter_case, payloads)
    return sweep_rows, jitter_rows


def test_bench_rate_robustness_table(benchmark):
    sweep_rows, jitter_rows = run_timed(benchmark, _run)[-1]

    body = markdown_table(
        ["k_fast/k_slow", "max |error|", "cycle time", "status"],
        sweep_rows)
    body += "\n\nPer-reaction jitter x U[0.5, 2) at separation 1000:\n\n"
    body += markdown_table(["trial", "max |error|", "cycle time"],
                           jitter_rows)
    save_report("E6_rate_robustness",
                "E6 -- rate robustness (separation sweep + jitter)", body)

    by_sep = {row[0]: row for row in sweep_rows}
    # Values independent of rates for adequate separation:
    for separation in (300.0, 1000.0, 3000.0):
        assert by_sep[separation][3] == "ok"
        assert by_sep[separation][1] < 0.4
    # Errors grow (at least x3) or the machine fails as separation -> 10.
    worst_ok = max(row[1] for row in sweep_rows
                   if row[3] == "ok" and row[0] <= 30.0) \
        if any(row[3] == "ok" and row[0] <= 30.0 for row in sweep_rows) \
        else float("inf")
    best_high = min(row[1] for row in sweep_rows
                    if row[3] == "ok" and row[0] >= 300.0)
    assert worst_ok > 3.0 * best_high or worst_ok == float("inf")
    # Jitter within categories does not move the answers materially.
    errors = [row[1] for row in jitter_rows]
    assert max(errors) < 0.5

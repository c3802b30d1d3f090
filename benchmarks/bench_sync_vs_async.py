"""E8 -- synchronous (clocked) vs asynchronous (self-timed) comparison.

The DAC paper advocates the clocked approach; the companion abstract
develops the self-timed alternative.  We move the same sample stream
through two-element pipelines of both kinds and compare fidelity and
timing.  Expected shape: both deliver the values; the synchronous machine
has a constant cycle time set by the clock, while the self-timed pipeline
is data-driven (and, in the companion-faithful consuming mode, its
per-sample latency is throughput-capped by indicator generation, making
it slower than both the catalytic variant and the clocked machine).
"""

import numpy as np

from repro.asynchronous import SelfTimedPipeline
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import SynchronousMachine
from repro.reporting import markdown_table

from common import run_timed, save_report

SAMPLES = [20.0, 10.0, 30.0]


def _sync_design():
    sfg = SignalFlowGraph("pipe2")
    x = sfg.input("x")
    d1 = sfg.delay("d1", source=x)
    d2 = sfg.delay("d2", source=d1)
    sfg.output("y", d2)
    return sfg


def _run():
    machine = SynchronousMachine(_sync_design())
    sync_run = machine.run({"x": SAMPLES}, extra_cycles=3)

    rows = [["synchronous (clocked)",
             float(np.max(np.abs(sync_run.outputs["y"][:3]
                                 - sync_run.reference["y"][:3]))),
             sync_run.mean_cycle_time,
             3 * sync_run.mean_cycle_time]]
    for gating in ("consuming", "catalytic"):
        pipeline = SelfTimedPipeline(n=2, gating=gating)
        run = pipeline.run(SAMPLES)
        rows.append([f"self-timed ({gating})", run.max_error(),
                     float("nan"), run.mean_latency])
    return sync_run, rows


def test_bench_sync_vs_async_table(benchmark):
    sync_run, rows = run_timed(benchmark, _run)[-1]

    save_report(
        "E8_sync_vs_async",
        "E8 -- synchronous vs self-timed pipelines (2 delay elements)",
        markdown_table(["scheme", "max |error|", "cycle time",
                        "per-sample latency"], rows))

    sync_error, consuming, catalytic = rows[0][1], rows[1], rows[2]
    assert sync_error < 0.3
    assert consuming[1] < 1.5 and catalytic[1] < 1.5
    # The consuming-mode handshake is the slowest (throughput capped by
    # indicator generation); catalytic self-timing is faster.
    assert consuming[3] > catalytic[3]

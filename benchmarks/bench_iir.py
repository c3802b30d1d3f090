"""E4 -- recursive (IIR) filters: first-order low-pass and biquad.

Feedback through delay elements is what makes the computation genuinely
sequential: the output of cycle n is an operand of cycle n+1.  Measured
impulse/step responses must match the exact discrete-time reference.
"""

import numpy as np

from repro.apps import biquad, iir_first_order
from repro.core.machine import SynchronousMachine
from repro.reporting import markdown_table, plot_samples

from common import run_timed, save_report


def _run():
    iir = SynchronousMachine(iir_first_order())
    impulse_run = iir.run({"x": [16.0, 0.0, 0.0, 0.0, 0.0]})
    step_run = iir.run({"x": [8.0] * 6})

    bq = SynchronousMachine(biquad(0.25, 0.5, 0.25, -0.5, 0.25))
    bq_run = bq.run({"x": [8.0, 0.0, 0.0, 4.0, 0.0, 0.0]})
    return impulse_run, step_run, bq_run


def test_bench_iir_figure(benchmark):
    impulse_run, step_run, bq_run = run_timed(benchmark, _run)[-1]

    rows = [
        ["iir1 impulse", impulse_run.max_error(),
         impulse_run.rms_error("y")],
        ["iir1 step", step_run.max_error(), step_run.rms_error("y")],
        ["biquad mixed", bq_run.max_error(), bq_run.rms_error("y")],
    ]
    table = markdown_table(["experiment", "max |error|", "rms error"],
                           rows)
    n = len(impulse_run.reference["y"])
    figure = plot_samples(
        {"measured": list(impulse_run.outputs["y"][:n]),
         "reference": list(impulse_run.reference["y"])},
        title="First-order IIR impulse response (geometric decay)")
    save_report("E4_iir", "E4 -- recursive filters", table
                + "\n\n```\n" + figure + "\n```")

    assert impulse_run.max_error() < 0.3
    assert step_run.max_error() < 0.3
    assert bq_run.max_error() < 0.4
    # Geometric decay shape: each impulse-response sample half the last.
    measured = impulse_run.outputs["y"][:4]
    ratios = measured[1:] / np.maximum(measured[:-1], 1e-9)
    assert np.allclose(ratios, 0.5, atol=0.08)
    # Step response converges to DC gain 1 (y -> 8).
    assert step_run.outputs["y"][5] == np.float64(
        step_run.outputs["y"][5])
    assert abs(step_run.outputs["y"][5] - 8.0) < 0.5

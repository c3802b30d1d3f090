"""E3 -- the moving-average filter figure.

The paper's flagship synchronous example: a two-tap moving average
``y[n] = (x[n] + x[n-1]) / 2`` realised as a clocked reaction network,
streamed with a step and a sampled tone, compared point by point against
the exact discrete-time reference.
"""

import numpy as np

from repro.apps import tone
from repro.obs import MetricsRegistry
from repro.reporting import markdown_table, plot_samples
from repro.scenarios import get_scenario

from common import (median_iqr, ode_wall_seconds, run_timed, save_json,
                    save_metrics, save_report)

#: Timed rounds after one warm-up; the record keeps their median and IQR.
ROUNDS = 5


def _run():
    metrics = MetricsRegistry()
    machine = get_scenario("ma").driver(taps=2, metrics=metrics)
    step = [0.0, 0.0, 20.0, 20.0, 20.0, 20.0]
    step_run = machine.run({"x": step})
    wave = [round(v, 1) for v in tone(10, period=5, amplitude=8.0)]
    tone_run = machine.run({"x": wave})
    return step_run, wave, tone_run, metrics


def test_bench_moving_average_figure(benchmark, bench_json):
    timed = run_timed(benchmark, _run, rounds=ROUNDS, warmup_rounds=1)
    step_run, wave, tone_run, metrics = timed[-1]
    ode_wall, ode_wall_iqr = median_iqr(
        [ode_wall_seconds(m) for *_, m in timed])

    rows = []
    for label, run in (("step", step_run), ("tone", tone_run)):
        rows.append([label, run.max_error(), run.rms_error("y"),
                     run.mean_cycle_time])
    table = markdown_table(
        ["input", "max |error|", "rms error", "cycle time"], rows)
    figure = plot_samples(
        {"x[n]": wave,
         "measured y[n]": list(tone_run.outputs["y"][:len(wave)]),
         "reference y[n]": list(tone_run.reference["y"])},
        title="Two-tap moving average: molecular vs reference")
    save_report("E3_moving_average",
                "E3 -- moving-average filter tracking",
                table + "\n\n```\n" + figure + "\n```")
    save_metrics("E3_moving_average", metrics)
    save_json("E3_moving_average",
              {"step_max_error": step_run.max_error(),
               "tone_max_error": tone_run.max_error(),
               "mean_cycle_time": tone_run.mean_cycle_time,
               "cycles": int(metrics.counter("machine.cycles").value),
               "ode_nfev": metrics.counter("ode.nfev").value,
               "rounds": len(timed),
               "ode_wall_seconds": ode_wall,
               "ode_wall_seconds_iqr": ode_wall_iqr},
              enabled=bench_json)

    assert step_run.max_error() < 0.3
    assert tone_run.max_error() < 0.3
    # The filter must actually smooth: measured output swing below the
    # input swing at this tone frequency.
    measured = tone_run.outputs["y"][2:len(wave)]
    assert (measured.max() - measured.min()) < \
        (max(wave) - min(wave)) * 0.95

"""E15 -- fault-injection robustness campaign on the ripple counter.

Monte Carlo campaign over the counter's default fault suite (rate
mismatch, leaks, dilution, copy-number noise) plus a robustness-margin
bisection along the fast/slow separation axis.  Paper claim under test:
the synchronous methodology's only quantitative premise is that fast
reactions are fast *relative to* slow ones, so a correctly synthesized
circuit should absorb substantial parameter abuse at nominal separation
and fail only when the separation itself is compressed away -- and then
with a diagnosable signature (residual transfer mass at readout,
REPRO-R104), not silent corruption.
"""

import time

import numpy as np

from repro.faults import RobustnessCampaign, default_suite

from common import run_timed, save_json, save_report

SEED = 0
TRIALS = 6
MARGIN_TRIALS = 2


def _run():
    campaign = RobustnessCampaign(circuit="counter", trials=TRIALS,
                                  seed=SEED, n_workers=1,
                                  margin_trials=MARGIN_TRIALS)
    start = time.perf_counter()
    result = campaign.run()
    wall = time.perf_counter() - start
    return result, wall


def test_bench_faults_campaign(benchmark, bench_json):
    result, wall = run_timed(benchmark, _run)[-1]

    margin = result.margin
    suite = default_suite("counter")
    body = result.render()
    body += "\n\nfault suite: " + ", ".join(
        repr(model) for model in suite)
    body += (f"\n\ncampaign wall time: {wall:.2f} s "
             f"({TRIALS} trials/model, seed {SEED})")
    save_report("E15_faults",
                "E15 -- robustness campaign + separation margin (counter)",
                body)
    save_json("E15_faults",
              {"trials_per_model": TRIALS,
               "n_trials": len(result.trials),
               "n_models": len(result.stats),
               "failures": result.failures,
               "bit_errors": result.bit_errors,
               "margin_separation": margin.margin if margin else None,
               "margin_failed_at": (margin.failed_at
                                    if margin and
                                    np.isfinite(margin.failed_at)
                                    else None),
               "margin_classification": (margin.classification
                                         if margin else None),
               "margin_evaluations": (margin.n_evaluations
                                      if margin else 0),
               "campaign_wall_seconds": wall},
              seed=SEED, enabled=bench_json)

    # Baseline + every fault model compute perfectly at nominal
    # separation: the methodology absorbs the whole default suite.
    assert result.failures == 0
    assert result.bit_errors == 0
    # The separation margin is finite (the counter does break when
    # fast/slow is compressed far enough) and the dominant failure mode
    # is the paper's predicted one: unfinished carries at readout time.
    assert margin is not None
    assert np.isfinite(margin.margin)
    assert 2.0 < margin.margin < 1000.0
    assert margin.classification == "REPRO-R104"

"""Canned logic-analyzer scenarios for the ``repro waves`` subcommand.

A scenario is one probed run of a built-in circuit -- the binary
counter, an FSM, or a synthesized filter machine -- returning the
waveform, any assertion violations and the cycle profile in one
result object the CLI renders and exports.

Multi-trial mode re-runs a scenario over ``SeedSequence.spawn``-derived
seeds through :class:`~repro.crn.simulation.sweep.ParallelSweepRunner`.
Each trial is pre-seeded and self-contained, so the report (and the
exported VCD of the ``keep_trial`` index) is byte-identical whatever
the worker count -- the property the CI golden-file diff pins.
Assertions travel as *spec dicts* (compiled per trial): compiled
expression code objects do not pickle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ReproError
from repro.obs.monitors import MonitorConfig
from repro.scenarios import get_scenario, scenario_names
from repro.waves.assertions import build_engine
from repro.waves.probe import WaveformProbe
from repro.waves.profiler import CycleProfileReport, profile_cycles
from repro.waves.vcd import render_vcd
from repro.waves.waveform import Waveform

#: What ``--scenario`` accepts: every registered scenario with a probed
#: runner (see :mod:`repro.scenarios.builtin`), in registration order.
SCENARIOS = scenario_names(tag="waves")


@dataclass
class ScenarioResult:
    """One probed scenario run."""

    scenario: str
    seed: int
    waveform: Waveform
    violations: list
    profile: CycleProfileReport
    summary: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def run_scenario(scenario: str, seed: int = 0,
                 assert_specs: list | None = None,
                 monitor: MonitorConfig | None = None,
                 bits: int = 2, pulses: int | None = None,
                 machine: str = "parity", pattern: str = "101",
                 word: str = "110101", taps: int = 2,
                 input_samples=None) -> ScenarioResult:
    """Run one scenario with a live probe and return its result."""
    if scenario not in SCENARIOS:
        raise ReproError(f"unknown waves scenario {scenario!r}; expected "
                         f"one of {SCENARIOS}")
    probe = WaveformProbe(
        build_engine(assert_specs) if assert_specs else None)
    summary = get_scenario(scenario).run_probed(
        probe, seed=seed, monitor=monitor, bits=bits, pulses=pulses,
        machine=machine, pattern=pattern, word=word, taps=taps,
        input_samples=input_samples)
    violations = probe.finish()
    profile = profile_cycles(probe.cycle_records)
    if profile.n_cycles:
        summary["profile"] = profile.to_dict()
    return ScenarioResult(scenario=scenario, seed=seed,
                          waveform=probe.waveform,
                          violations=violations, profile=profile,
                          summary=summary)


# -- multi-trial fan-out ------------------------------------------------------


def _trial_payloads(trials: int, seed: int, kwargs: dict,
                    keep_trial: int) -> list[dict]:
    children = np.random.SeedSequence(seed).spawn(trials)
    return [dict(kwargs, seed=int(child.generate_state(1)[0]),
                 _trial=index, _keep=(index == keep_trial))
            for index, child in enumerate(children)]


def _run_scenario_trial(payload: dict) -> dict:
    """Top-level (picklable) worker: one pre-seeded trial."""
    payload = dict(payload)
    index = payload.pop("_trial")
    keep = payload.pop("_keep")
    result = run_scenario(**payload)
    out = {"trial": index, "seed": result.seed, "ok": result.ok,
           "violations": [v.to_dict() for v in result.violations],
           "summary": result.summary}
    if keep:
        out["vcd"] = render_vcd(result.waveform)
        out["n_signals"] = result.waveform.n_signals
        out["n_changes"] = result.waveform.n_changes
    return out


def run_trials(scenario: str, trials: int = 1, seed: int = 0,
               n_workers: int | None = None, keep_trial: int = 0,
               **kwargs) -> dict:
    """Fan a scenario over ``trials`` pre-seeded runs.

    Returns a deterministic report dict; the ``kept`` entry carries the
    rendered VCD of trial ``keep_trial`` (byte-identical across worker
    counts because every trial is a pure function of its spawned seed).
    """
    from repro.crn.simulation.sweep import ParallelSweepRunner

    if trials < 1:
        raise ReproError("waves needs at least one trial")
    if not 0 <= keep_trial < trials:
        raise ReproError(f"keep trial {keep_trial} out of range for "
                         f"{trials} trial(s)")
    payloads = _trial_payloads(trials, seed, dict(scenario=scenario,
                                                  **kwargs), keep_trial)
    results = ParallelSweepRunner(n_workers).map(_run_scenario_trial,
                                                 payloads)
    kept = next(r for r in results if "vcd" in r)
    rows = [{key: value for key, value in row.items() if key != "vcd"}
            for row in results]
    return {
        "scenario": scenario,
        "root_seed": seed,
        "trials": trials,
        "violations_total": sum(len(r["violations"]) for r in results),
        "failed_trials": [r["trial"] for r in results if not r["ok"]],
        "results": rows,
        "kept": {"trial": kept["trial"], "vcd": kept["vcd"],
                 "n_signals": kept["n_signals"],
                 "n_changes": kept["n_changes"]},
    }

"""E16 -- logic-analyzer layer: probe overhead and cycle profile.

Runs the E3-class moving-average machine twice -- bare, then with a
live :class:`~repro.waves.probe.WaveformProbe` streaming a temporal
assertion -- and records the probe's wall-time overhead alongside the
cycle profile it enables: per-phase settling attribution, the
dead-time fraction (the adaptive-clocking headroom of ROADMAP item 3),
and the critical transfer that sets each cycle's computational length.
Claim under test: full waveform capture plus online assertions cost a
small constant factor, and the profile names ``transfer:blue->red``
(the register write-back) as the critical hand-off.
"""

import time

from repro.apps.filters import moving_average
from repro.core.machine import SynchronousMachine
from repro.waves import (WaveformProbe, build_engine, profile_cycles,
                         render_vcd)

from common import run_timed, save_json, save_report

SEED = 0
SAMPLES = [8.0, 4.0, 6.0, 2.0, 6.0, 4.0]
ASSERT_SPECS = [
    {"type": "invariant", "name": "clock-mass-held",
     "expr": "clock_total >= 19.5"},
    {"type": "eventually_within", "name": "register-moves",
     "when": "cycle >= 0", "holds": "reg_d1 > 0", "cycles": 2},
]


def _run_bare():
    machine = SynchronousMachine(moving_average(2))
    return machine.run({"x": SAMPLES})


def _run_probed():
    probe = WaveformProbe(assertions=build_engine(ASSERT_SPECS))
    machine = SynchronousMachine(moving_average(2), probe=probe)
    run = machine.run({"x": SAMPLES})
    return run, probe


def test_bench_waves_probe(benchmark, bench_json):
    start = time.perf_counter()
    _run_bare()
    bare_wall = time.perf_counter() - start

    start = time.perf_counter()
    run, probe = run_timed(benchmark, _run_probed)[-1]
    probed_wall = time.perf_counter() - start

    profile = profile_cycles(probe.cycle_records)
    violations = probe.finish()
    overhead = probed_wall / bare_wall if bare_wall > 0 else 1.0
    counts = profile.critical_transfer_counts()
    critical = next(iter(counts), "")

    body = profile.render()
    body += (f"\n\nwaveform: {probe.waveform.n_signals} signals, "
             f"{probe.waveform.n_changes} changes, "
             f"{len(render_vcd(probe.waveform))} VCD bytes")
    body += (f"\nassertions: {len(ASSERT_SPECS)} streamed, "
             f"{len(violations)} violation(s)")
    body += (f"\n\nwall time: bare {bare_wall:.3f} s, probed "
             f"{probed_wall:.3f} s ({overhead:.2f}x)")
    save_report("E16_waves",
                "E16 -- waveform probe overhead + cycle profile (ma)",
                body)
    save_json("E16_waves",
              {"n_cycles": profile.n_cycles,
               "dead_time_fraction": profile.dead_time_fraction,
               "critical_transfer": critical,
               "critical_transfer_counts": counts,
               "n_signals": probe.waveform.n_signals,
               "n_changes": probe.waveform.n_changes,
               "n_violations": len(violations),
               "bare_wall_seconds": bare_wall,
               "probe_wall_seconds": probed_wall,
               "probe_overhead_ratio": overhead},
              seed=SEED, enabled=bench_json)

    # The probed run computes the same answer...
    assert run.max_error() < 0.5
    # ...with zero assertion violations on the clean machine...
    assert violations == []
    # ...and the profile names the register write-back as critical.
    assert critical == "transfer:blue->red"
    assert 0.0 < profile.dead_time_fraction < 0.5
    # Waveform capture is a bounded constant factor, not a blow-up.
    assert overhead < 3.0

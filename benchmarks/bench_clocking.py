"""E19 -- adaptive clocking: event-driven cycle advance vs fixed boundary.

Runs the E3-class moving-average machine twice over the same input
stream -- once under the fixed clock boundary, once under the adaptive
settling event -- and records the cycle-throughput gain alongside the
digital-equivalence check.  Claim under test: the settling event ends
each cycle earlier than the fixed boundary (shorter simulated cycles,
more cycles per wall-second) while the quantized outputs stay bitwise
identical and analog accuracy does not degrade.
"""

import time

import numpy as np

from repro.apps.filters import moving_average
from repro.core.machine import MachineOptions, SynchronousMachine

from common import run_timed, save_json, save_report

SEED = 0
SAMPLES = [8.0, 4.0, 6.0, 2.0, 6.0, 4.0]
#: Built-in designs land on the half-integer lattice; both modes stay
#: well inside the half-step, so rounding recovers exact digits.
LATTICE = 0.5


def _drive(clocking: str):
    machine = SynchronousMachine(
        moving_average(2), options=MachineOptions(clocking=clocking))
    return machine.run({"x": SAMPLES})


def test_bench_clocking(benchmark, bench_json):
    start = time.perf_counter()
    fixed = _drive("fixed")
    fixed_wall = time.perf_counter() - start

    start = time.perf_counter()
    adaptive = run_timed(benchmark, lambda: _drive("adaptive"))[-1]
    adaptive_wall = time.perf_counter() - start

    stats = {}
    for label, run, wall in (("fixed", fixed, fixed_wall),
                             ("adaptive", adaptive, adaptive_wall)):
        stats[label] = {
            "n_cycles": run.n_cycles,
            "mean_cycle_time": run.mean_cycle_time,
            "wall_seconds": wall,
            "cycles_per_second": run.n_cycles / wall,
            "max_error": run.max_error(),
        }
    speedup = (stats["adaptive"]["cycles_per_second"]
               / stats["fixed"]["cycles_per_second"])

    n = len(fixed.reference["y"])
    fixed_q = np.round(fixed.outputs["y"][:n] / LATTICE)
    adaptive_q = np.round(adaptive.outputs["y"][:n] / LATTICE)
    identical = bool(np.array_equal(fixed_q, adaptive_q))

    lines = [f"{label}: {s['n_cycles']} cycles, mean cycle "
             f"{s['mean_cycle_time']:.4f} t.u., {s['wall_seconds']:.3f} s "
             f"wall ({s['cycles_per_second']:.1f} cycles/s), "
             f"max error {s['max_error']:.4f}"
             for label, s in stats.items()]
    lines.append(f"\nadaptive throughput: {speedup:.2f}x fixed; "
                 f"quantized outputs identical: {identical}")
    save_report("E19_clocking",
                "E19 -- adaptive vs fixed clocking (ma machine)",
                "\n".join(lines))
    save_json("E19_clocking",
              {"fixed": stats["fixed"], "adaptive": stats["adaptive"],
               "cycles_per_second": stats["adaptive"]["cycles_per_second"],
               "throughput_ratio": speedup,
               "quantized_identical": identical},
              seed=SEED, enabled=bench_json)

    # Digital equivalence is the gate for everything else.
    assert identical
    # The settling event must actually end cycles earlier...
    assert stats["adaptive"]["mean_cycle_time"] \
        < stats["fixed"]["mean_cycle_time"]
    # ...without hurting analog accuracy.
    assert stats["adaptive"]["max_error"] \
        <= stats["fixed"]["max_error"] + 1e-6

"""Ablation -- acceleration/gating modes of the phase protocol.

A reproduction finding documented in :mod:`repro.core.phases`: the
companion's dimer accelerator is ideal for one-shot transfers but fires
through closed gates when products hold standing mass, and removing
acceleration leaves power-law tails.  This ablation measures:

1. one-shot transfer crispness per mode (dimer is the sharpest), and
2. free-running machine viability per gating mode (catalytic gating
   works; the companion-faithful consuming mode wedges within a few
   cycles).
"""

from repro import simulate
from repro.core.analysis import effective_value, rise_time, settling_time
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import SynchronousMachine
from repro.core.memory import build_delay_chain
from repro.errors import SimulationError
from repro.reporting import markdown_table

from common import run_timed, save_report


def _one_shot(mode_args):
    network, _, _ = build_delay_chain(n=1, initial=30.0, **mode_args)
    trajectory = simulate(network, 120.0, n_samples=1500)
    arrived = effective_value(trajectory, "Y")
    metrics = {"arrived": arrived}
    if arrived > 15.0:
        metrics["rise"] = rise_time(trajectory, "Y")
        metrics["settle"] = settling_time(trajectory, "Y",
                                          tolerance=0.02)
    return metrics


def _machine_viability(gating):
    sfg = SignalFlowGraph(f"viab_{gating}")
    x = sfg.input("x")
    d = sfg.delay("d", source=x)
    sfg.output("y", d)
    try:
        machine = SynchronousMachine(sfg, gating=gating,
                                     max_cycle_time=150.0)
        run = machine.run({"x": [10.0, 20.0, 15.0, 5.0]})
        return f"ok (err {run.max_error():.3f})"
    except SimulationError:
        return "WEDGED"


def _run():
    one_shot_rows = []
    for label, args in [
            ("consuming + dimer (companion)",
             {"acceleration": "dimer"}),
            ("consuming, no acceleration",
             {"acceleration": "none"}),
            ("catalytic gating",
             {"protocol": None}),
    ]:
        if label.startswith("catalytic"):
            from repro.core.phases import PhaseProtocol

            args = {"protocol": PhaseProtocol(gating="catalytic")}
        metrics = _one_shot(args)
        one_shot_rows.append([label, metrics["arrived"],
                              metrics.get("rise", float("nan")),
                              metrics.get("settle", float("nan"))])

    machine_rows = [[gating, _machine_viability(gating)]
                    for gating in ("catalytic", "consuming")]
    return one_shot_rows, machine_rows


def test_bench_acceleration_ablation(benchmark):
    one_shot_rows, machine_rows = run_timed(benchmark, _run)[-1]

    body = markdown_table(["protocol", "arrived (of 30)", "10-90% rise",
                           "settling time"], one_shot_rows)
    body += "\n\nFree-running machine viability:\n\n"
    body += markdown_table(["gating", "status"], machine_rows)
    save_report("E13_acceleration",
                "Ablation -- acceleration and gating modes", body)

    dimer, none, catalytic = one_shot_rows
    # Dimer acceleration delivers fully and crisply in one shot.
    assert dimer[1] > 29.9 and dimer[2] < 3.0
    # Without acceleration the transfer is slower / incomplete within the
    # window (power-law tails).
    assert none[1] < dimer[1] or none[3] > dimer[3] * 2
    # Catalytic gating also completes one-shot transfers.
    assert catalytic[1] > 29.0
    # Free-running: catalytic works, consuming wedges.
    status = dict(machine_rows)
    assert status["catalytic"].startswith("ok")
    assert status["consuming"] == "WEDGED"

"""The repo benchmark: closed-loop workloads, end-to-end and per-layer.

    python3 benchmarks/e2e/run.py --workload NAME --seed N \\
        [--seconds S] [--trace 0|1] [--json FILE] [--spans DIR]

Run from the root of a checkout; the program is imported from its
``src`` tree.  Every measurement happens in a fresh child process, one
at a time.  With ``--trace 0`` the run times the set-up in
``SETUP_ROUNDS`` fresh processes, then runs the workload's ops for
``--seconds`` after a warm-up and reports the end-to-end metrics, with
times scaled to the reference host speed (``calibration.py``).  With
``--trace 1`` it runs the workload's first ``trace_ops`` ops on two
copies of the workload, one untraced and one with every layer wrapped,
and reports the per-layer metrics plus the tracing overhead; ``--spans
DIR`` also writes the spans to ``DIR/<workload>.jsonl``.

Human-readable lines go first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_PYTHON_S, kernel_time, python_kernel
from harness import (OpTimer, Window, median, percentile,
                     percentile_label, run_ops, samples_beyond, tail_rule,
                     use_source_tree)

#: ``(name, unit)`` of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

WORKLOAD_NAMES = ("ode-machine", "ode-observed", "ssa-machine", "serve-mix")

#: Fresh processes whose set-up time is measured per run; the reported
#: ``setup_s`` is their median.
SETUP_ROUNDS = 3

#: Every child has finished within this many seconds of the run's start.
DEADLINE_S = 170.0

#: Math libraries stay single-threaded: the workloads are one client in
#: one process, and idle worker threads only add scheduling noise.
_CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


# -- child side -----------------------------------------------------------


def _set_up(name: str, seed: int):
    """Import the program and build the workload.  Returns the workload,
    the seconds that took, and the seconds scaled to reference speed by
    the pure-Python kernel timed just before and just after."""
    before = kernel_time(python_kernel)
    started = perf_counter()
    use_source_tree()
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    setup_s = perf_counter() - started
    after = kernel_time(python_kernel)
    return workload, setup_s, setup_s * REFERENCE_PYTHON_S * 2 / (
        before + after)


def _child_setup(args) -> dict:
    workload, raw, scaled = _set_up(args.workload, args.seed)
    workload.close()
    return {"setup_raw_s": raw, "setup_s": scaled}


def _child_measure(args) -> dict:
    workload, setup_raw, setup_scaled = _set_up(args.workload, args.seed)
    try:
        warm = run_ops(workload, 0, count=workload.warmup_ops)
        window = run_ops(workload, workload.warmup_ops,
                         seconds=args.seconds, calibrate=True)
    finally:
        workload.close()
    scales = window.scales()
    raw = window.latencies
    scaled = [latency * scale for latency, scale in zip(raw, scales)]
    q = workload.tail_q
    levels = sorted({0.5, 0.9, 0.99, 0.999, q})
    return {
        "setup_raw_s": setup_raw,
        "setup_s": setup_scaled,
        "attempted": warm.attempted + window.attempted,
        "failed": warm.failed + window.failed,
        "ops": window.attempted,
        "wall_raw_s": window.wall,
        "wall_s": sum(slot * scale
                      for slot, scale in zip(window.slots, scales)),
        "raw_percentiles": [percentile(raw, p) for p in levels],
        "percentiles": [percentile(scaled, p) for p in levels],
        "levels": levels,
        "tail_q": q,
        "tail_beyond": samples_beyond(scaled, q),
        "observed": window.observed,
        "head": window.head,
        "digest": window.digest(),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _child_trace(args) -> dict:
    from layers import layer_metrics, patches
    from tracing import Recorder, op_accounting, totals, traced

    plain_workload, _, _ = _set_up(args.workload, args.seed)
    traced_workload, _, _ = _set_up(args.workload, args.seed)
    recorder = Recorder()
    layer_patches = patches()
    first, n = plain_workload.warmup_ops, plain_workload.trace_ops
    plain, traced_window = Window(n), Window(n)
    plain_timer, traced_timer = OpTimer(), OpTimer(recorder)
    try:
        warm = [run_ops(w, 0, count=first)
                for w in (plain_workload, traced_workload)]
        # Op i runs on the untraced copy, then on the traced copy, so a
        # change in host speed reaches both sides of the tracing
        # overhead alike.
        for i in range(first, first + n):
            plain.run(plain_workload, i, plain_timer)
            with traced(recorder, layer_patches):
                traced_window.run(traced_workload, i, traced_timer)
    finally:
        plain_workload.close()
        traced_workload.close()

    overhead = sum(traced_window.latencies) / sum(plain.latencies) - 1.0
    values = layer_metrics(totals(recorder.spans), n,
                           traced_window.head.get("abs_error", 0.0),
                           overhead)
    if args.spans:
        spans_dir = Path(args.spans)
        spans_dir.mkdir(parents=True, exist_ok=True)
        recorder.write_jsonl(spans_dir / f"{args.workload}.jsonl")
    accounting = op_accounting(recorder.spans)
    worst_gap = max(abs(accounting[first + k][1] - latency) / latency
                    for k, latency in enumerate(traced_window.latencies))
    windows = (*warm, plain, traced_window)
    return {
        "attempted": sum(w.attempted for w in windows),
        "failed": sum(w.failed for w in windows),
        "ops": n,
        "values": values,
        "digest": traced_window.digest(),
        "digest_matches": plain.digest() == traced_window.digest(),
        "self_time_gap": worst_gap,
    }


def _child_main(args) -> None:
    role = {"setup": _child_setup, "measure": _child_measure,
            "trace": _child_trace}[args.child]
    print(json.dumps(role(args)))


# -- parent side ----------------------------------------------------------


def _spawn(args, role: str, started: float) -> dict:
    """Run one child to completion; its last stdout line is its JSON."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--child", role, "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.spans:
        command += ["--spans", args.spans]
    remaining = DEADLINE_S - (perf_counter() - started)
    if remaining <= 0:
        raise SystemExit(f"benchmark: out of time before the {role} "
                         f"child started")
    try:
        completed = subprocess.run(
            command, stdout=subprocess.PIPE, text=True,
            env={**os.environ, **_CHILD_ENV}, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"benchmark: {role} child ran past the "
                         f"{DEADLINE_S:g} s deadline") from None
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"benchmark: {role} child exited with code "
                         f"{completed.returncode}")
    return json.loads(lines[-1])


def _report(args, result: dict) -> None:
    line = json.dumps(result)
    if args.json:
        Path(args.json).write_text(line + "\n", encoding="utf-8")
    print(line)


def _run_measure(args, started: float) -> None:
    setups = [_spawn(args, "setup", started)
              for _ in range(SETUP_ROUNDS - 1)]
    child = _spawn(args, "measure", started)
    setups.append(child)
    name, ops = args.workload, child["ops"]
    levels, q = child["levels"], child["tail_q"]
    scaled = dict(zip(levels, child["percentiles"]))
    measured = dict(zip(levels, child["raw_percentiles"]))
    values = {
        "setup_s": median([s["setup_s"] for s in setups]),
        "ops_per_s": ops / child["wall_s"],
        "op_p50_ms": 1e3 * scaled[0.5],
        "op_tail_ms": 1e3 * scaled[q],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    raw = {
        "setup_s": median([s["setup_raw_s"] for s in setups]),
        "ops_per_s": ops / child["wall_raw_s"],
        "op_p50_ms": 1e3 * measured[0.5],
        "op_tail_ms": 1e3 * measured[q],
        "peak_rss_mb": child["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"; median of {len(setups)} fresh processes",
        "op_p50_ms": f"; n={ops}",
        "op_tail_ms": f"; {percentile_label(q)}, n={ops}, "
                      f"{child['tail_beyond']} beyond",
    }
    for metric, unit in END_TO_END:
        print(f"{name} {metric} {values[metric]:.6g} {unit}  (as measured "
              f"{raw[metric]:.6g}{notes.get(metric, '')})")
    ladder = ", ".join(f"{percentile_label(p)} {1e3 * v:.4g}"
                       for p, v in scaled.items())
    rule = tail_rule(ops)
    print(f"{name} latency ms at reference speed: {ladder}; {ops} samples,"
          f" so the tail rule gives "
          f"{percentile_label(rule) if rule else 'none'}")
    print(f"{name} host speed: reference-speed wall / measured wall = "
          f"{child['wall_s'] / child['wall_raw_s']:.4f}")
    observed, head = child["observed"], child["head"]
    if "cycles" in observed:
        print(f"{name} cycles_per_s {observed['cycles'] / child['wall_s']:.6g}"
              f" cycles/s")
        print(f"{name} sim_cycle_time {head['sim_time'] / head['cycles']:.9g}"
              f" and max_abs_error {head['abs_error']:.9g} over the first"
              f" {child['digest'][0]} ops")
    if "hit" in observed:
        print(f"{name} hit_ratio {observed['hit'] / ops:.4f}")
    print(f"{name} failed {child['failed']}/{child['attempted']}")
    print(f"{name} digest %d ops %s" % tuple(child["digest"]))
    _report(args, {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit in END_TO_END},
    })


def _run_trace(args, started: float) -> None:
    from layers import PER_LAYER

    child = _spawn(args, "trace", started)
    name = args.workload
    values = child["values"]
    for metric, unit, _ in PER_LAYER:
        print(f"{name} {metric} {values[metric]:.6g} {unit}")
    print(f"{name} traced ops {child['ops']}; largest gap between an op's"
          f" latency and its self times: {100 * child['self_time_gap']:.3f}%")
    matches = "matches" if child["digest_matches"] else "DIFFERS"
    print(f"{name} digest %d ops %s" % tuple(child["digest"])
          + f" (untraced run {matches})")
    _report(args, {
        "correct": child["failed"] == 0 and child["digest_matches"],
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {metric: {"value": values[metric], "unit": unit}
                    for metric, unit, _ in PER_LAYER},
    })


def main() -> None:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", metavar="FILE",
                        help="also write the result object to FILE")
    parser.add_argument("--spans", metavar="DIR",
                        help="with --trace 1, write the spans to "
                             "DIR/<workload>.jsonl")
    parser.add_argument("--child", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        _child_main(args)
        return
    started = perf_counter()
    use_source_tree()
    if args.trace:
        _run_trace(args, started)
    else:
        _run_measure(args, started)


if __name__ == "__main__":
    main()

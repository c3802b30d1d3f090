"""Command-line interface: ``python -m repro <command>``.

Commands
--------
simulate    integrate a ``.crn`` file and print final quantities / a plot
clock       run the molecular clock and report period/jitter
filter      stream samples through a synthesized filter
counter     run the binary counter
fsm         drive a built-in molecular FSM over a symbol word
robustness  run a fault-injection robustness campaign
conformance cross-check every engine against invariants and each other
waves       run a logic-analyzer scenario (waveforms + assertions)
dsd         compile a ``.crn`` file to strand displacement (+ FASTA)
lint        static analysis of ``.crn`` files and built-in circuits
certify     static composition certificates (ISS error bounds)
report      summarise a recorded JSONL trace
serve       run job batches through the async simulation service

The simulation commands accept ``--trace FILE`` (``.jsonl`` for the
canonical line format, ``.json`` for a Chrome trace-event file) and
``--metrics FILE`` (a schema-versioned metrics snapshot); see
``docs/observability.md``.  The digital drivers additionally accept
``--vcd FILE`` (a GTKWave-loadable waveform dump) and
``--assert-file FILE`` (temporal assertions, REPRO-A901..A905 on
violation); see ``docs/waves.md``.

:func:`main` owns every command's run lifecycle: the option groups a
command declares are opened before it runs (:func:`_open`) and finished
after it returns normally (:func:`_finish`).
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from repro.crn.parser import load_network
from repro.crn.rates import RateScheme
from repro.crn.simulation import SimulationOptions, simulate
from repro.errors import ReproError


class _UsageError(Exception):
    """A command-line mistake :func:`main` reports with exit status 2."""


def _finite_float(text: str) -> float:
    """argparse type: a finite float (``nan``/``inf`` are usage errors)."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(
            f"must be a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type: a non-negative integer seed."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _samples(text: str) -> list[float] | None:
    """argparse type: comma-separated finite floats; ``None`` for an
    empty argument (the command's default samples)."""
    if not text:
        return None
    return [_finite_float(v) for v in text.split(",") if v.strip()]


# argparse words a text the converter rejects "invalid <name> value".
_finite_float.__name__ = "float"
_seed.__name__ = "int"
_samples.__name__ = "float list"


def _add_telemetry_options(parser) -> None:
    parser.add_argument("--trace", default="", metavar="FILE",
                        help="record a trace (.jsonl = line records, "
                             ".json = Chrome trace events)")
    parser.add_argument("--metrics", default="", metavar="FILE",
                        help="write a metrics snapshot (JSON)")
    parser.set_defaults(telemetry=True)


def _add_waves_options(parser, live: bool) -> None:
    """``--vcd``/``--assert-file``; a ``live`` command (counter, fsm)
    samples its run through ``args.probe``."""
    parser.add_argument("--vcd", default="", metavar="FILE",
                        help="dump the digital waveform as a "
                             "GTKWave-loadable VCD file")
    parser.add_argument("--assert-file", default="", metavar="FILE",
                        dest="assert_file",
                        help="JSON temporal-assertion spec evaluated "
                             "online (REPRO-A9xx on violation, exit 1)")
    parser.set_defaults(live_waves=live)


def _open(args) -> None:
    """Open the option groups the command declared, before it runs.

    ``--trace``/``--metrics`` become ``args.tracer``/``args.registry``
    (the trace file is opened eagerly, so an unwritable path fails
    before the simulation runs); a live command's ``--vcd``/
    ``--assert-file`` become ``args.probe``.
    """
    args.tracer = args.registry = args.probe = None
    if getattr(args, "telemetry", False):
        from repro.obs import (ChromeTraceSink, JsonlSink,
                               MetricsRegistry, Tracer)

        if args.trace:
            args.tracer = Tracer(
                ChromeTraceSink(args.trace) if args.trace.endswith(".json")
                else JsonlSink(args.trace))
        if args.metrics or args.trace:
            args.registry = MetricsRegistry()
    if getattr(args, "live_waves", False) and (args.vcd or args.assert_file):
        from repro.waves import WaveformProbe, load_assertions

        args.probe = WaveformProbe(assertions=load_assertions(
            args.assert_file) if args.assert_file else None)


def _finish(args) -> int:
    """Finish what :func:`_open` opened; exit-status contribution."""
    status = 0
    if args.probe is not None:
        violations = args.probe.finish()
        status = _report_waves(args, args.probe.waveform, violations,
                               args.command)
    if args.tracer is not None:
        args.tracer.emit_metrics(args.registry)
        args.tracer.close()
        print(f"wrote trace to {args.trace}")
    if args.registry is not None and args.metrics:
        args.registry.write_json(args.metrics)
        print(f"wrote metrics to {args.metrics}")
    return status


def _report_waves(args, waveform, violations, target) -> int:
    """Write ``--vcd``, print ``--assert-file`` violations; exit status."""
    from repro.waves import write_vcd
    from repro.waves.output import render_violations

    if args.vcd:
        write_vcd(waveform, args.vcd)
        print(f"wrote VCD waveform to {args.vcd} "
              f"({waveform.n_signals} signals, "
              f"{waveform.n_changes} changes)")
    if args.assert_file:
        print(render_violations(violations, f"waves:{target}"),
              file=sys.stderr)
    return 1 if violations else 0


def _write_json(path, document, what, sort_keys=True) -> None:
    """Write a ``--json`` report and say so."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=sort_keys)
        handle.write("\n")
    print(f"wrote {what} to {path}")


def _print_diagnostics(diagnostics) -> None:
    for diagnostic in diagnostics:
        print(diagnostic.format(), file=sys.stderr)


def _add_monitor_config_option(parser) -> None:
    parser.add_argument("--monitor-config", default="", metavar="FILE",
                        dest="monitor_config",
                        help="JSON file overriding MonitorConfig "
                             "thresholds (jitter, residual, crispness)")


def _load_monitor_config(args):
    if not getattr(args, "monitor_config", ""):
        return None
    from repro.obs.monitors import load_monitor_config

    return load_monitor_config(args.monitor_config)


def _add_simulate(subparsers) -> None:
    parser = subparsers.add_parser(
        "simulate", help="integrate a .crn file")
    parser.add_argument("file", help="path to a .crn network file")
    parser.add_argument("--t", type=_finite_float, default=10.0,
                        help="final time (default 10)")
    parser.add_argument("--method", default="LSODA",
                        help="ODE method (LSODA/BDF/Radau/RK45/"
                             "internal-rk45/native-bdf)")
    parser.add_argument("--engine", default="ode",
                        choices=["ode", "ssa", "tau"],
                        help="simulation engine (default ode)")
    parser.add_argument("--seed", type=_seed, default=None,
                        help="RNG seed for stochastic engines")
    parser.add_argument("--plot", default="",
                        help="comma-separated species to plot as ASCII")
    parser.add_argument("--fast", type=_finite_float, default=1000.0)
    parser.add_argument("--slow", type=_finite_float, default=1.0)
    _add_telemetry_options(parser)
    _add_waves_options(parser, live=False)
    parser.set_defaults(run=_run_simulate)


def _run_simulate(args) -> int:
    network = load_network(args.file)
    scheme = RateScheme({"fast": args.fast, "slow": args.slow})
    seed = None
    if args.engine != "ode":
        import numpy as np

        seed = np.random.default_rng(args.seed)
    options = SimulationOptions(solver=args.method, n_samples=400,
                                seed=seed, tracer=args.tracer,
                                metrics=args.registry)
    trajectory = simulate(network, args.t, args.engine, scheme=scheme,
                          options=options)
    print(network.summary())
    if args.plot:
        from repro.reporting import plot_trajectory

        species = [s.strip() for s in args.plot.split(",") if s.strip()]
        print(plot_trajectory(trajectory, species))
    print("final quantities:")
    for name, value in trajectory.final_state().items():
        if abs(value) > 1e-9:
            print(f"  {name:20s} {value:12.4f}")
    if not (args.vcd or args.assert_file):
        return 0
    from repro.waves import load_assertions, waveform_from_trajectory
    from repro.waves.probe import signal_key

    # A plain network has no cycle boundaries, so assertions are judged
    # per sampled row (``invariant`` is the natural type here; the
    # boundary index is the row index and every species is a name in
    # the expression namespace).
    violations = []
    if args.assert_file:
        engine = load_assertions(args.assert_file)
        keys = [signal_key(name) for name in trajectory.names]
        for row, t in enumerate(trajectory.times.tolist()):
            values = dict(zip(keys, trajectory.states[row].tolist()),
                          t=t, cycle=row)
            engine.on_boundary(row, t, values)
        violations = engine.finish()
    return _report_waves(args, waveform_from_trajectory(trajectory),
                         violations, args.file)


def _add_clock(subparsers) -> None:
    parser = subparsers.add_parser("clock", help="run a clock "
                                                 "oscillator")
    parser.add_argument("--mass", type=_finite_float, default=20.0)
    parser.add_argument("--t", type=_finite_float, default=40.0)
    parser.add_argument("--oscillator", default="molecular",
                        help="registered clock chemistry "
                             "(molecular, relaxation, ...)")
    _add_telemetry_options(parser)
    parser.set_defaults(run=_run_clock)


def _run_clock(args) -> int:
    from repro.core.clock import build_clock
    from repro.obs import clock_diagnostics
    from repro.reporting import plot_trajectory

    network, clock, protocol = build_clock(mass=args.mass,
                                           oscillator=args.oscillator)
    trajectory = simulate(network, args.t, n_samples=2000,
                          tracer=args.tracer, metrics=args.registry)
    print(plot_trajectory(trajectory.window(0.0, min(args.t, 12.0)),
                          clock.species_names(),
                          title=f"{args.oscillator} clock"))
    print(f"period  {clock.period(trajectory):.4f} slow time units")
    print(f"jitter  {clock.period_jitter(trajectory):.5f} (relative)")
    low, high = clock.amplitude(trajectory)
    print(f"swing   {low:.3f} .. {high:.3f}")
    diagnostics = clock_diagnostics(
        clock, trajectory,
        indicator_names={color: protocol.indicator_name(color)
                         for color in ("red", "green", "blue")})
    _print_diagnostics(diagnostics)
    if args.tracer is not None:
        clock.emit_trace(trajectory, args.tracer)
        for diagnostic in diagnostics:
            args.tracer.emit_diagnostic(diagnostic)
    return 0


def _add_filter(subparsers) -> None:
    parser = subparsers.add_parser(
        "filter", help="stream samples through a molecular filter")
    parser.add_argument("kind", choices=["ma", "iir"],
                        help="ma = moving average, iir = first-order "
                             "low-pass")
    parser.add_argument("--taps", type=int, default=2,
                        help="taps for the moving average")
    parser.add_argument("--input", required=True, type=_samples,
                        help="comma-separated samples, e.g. 10,20,40")
    parser.add_argument("--clocking", default="fixed",
                        choices=["fixed", "adaptive"],
                        help="cycle-advance strategy (adaptive ends "
                             "cycles at digital settling)")
    parser.add_argument("--oscillator", default="molecular",
                        help="registered clock chemistry "
                             "(molecular, relaxation, ...)")
    _add_telemetry_options(parser)
    _add_monitor_config_option(parser)
    parser.set_defaults(run=_run_filter)


def _run_filter(args) -> int:
    from repro.apps import iir_first_order, moving_average
    from repro.core.machine import MachineOptions, SynchronousMachine
    from repro.reporting import markdown_table

    samples = args.input or []
    design = (moving_average(args.taps) if args.kind == "ma"
              else iir_first_order())
    machine = SynchronousMachine(design, tracer=args.tracer,
                                 metrics=args.registry,
                                 monitor=_load_monitor_config(args),
                                 options=MachineOptions(
                                     clocking=args.clocking,
                                     oscillator=args.oscillator))
    run = machine.run({"x": samples})
    rows = [[i, x, float(m), float(r)]
            for i, (x, m, r) in enumerate(zip(
                samples, run.outputs["y"], run.reference["y"]))]
    print(machine.network.summary())
    print(markdown_table(["n", "x[n]", "measured y[n]",
                          "reference y[n]"], rows))
    print(f"max |error| = {run.max_error():.4f}")
    _print_diagnostics(run.diagnostics)
    return 0


def _add_counter(subparsers) -> None:
    parser = subparsers.add_parser("counter",
                                   help="run the binary counter")
    parser.add_argument("--bits", type=int, default=3)
    parser.add_argument("--pulses", type=int, default=10)
    parser.add_argument("--seed", type=_seed, default=0)
    _add_telemetry_options(parser)
    _add_waves_options(parser, live=True)
    parser.set_defaults(run=_run_counter)


def _run_counter(args) -> int:
    from repro.digital import BinaryCounter

    counter = BinaryCounter(args.bits)
    run = counter.count(args.pulses, seed=args.seed, tracer=args.tracer,
                        metrics=args.registry, probe=args.probe)
    print(counter.network.summary())
    print("sequence:", run.values)
    print("overflow:", run.overflow)
    run.check(2 ** args.bits)
    print("verified against modulo arithmetic")
    return 0


def _add_fsm(subparsers) -> None:
    parser = subparsers.add_parser(
        "fsm", help="drive a built-in molecular FSM over a symbol word")
    parser.add_argument("--machine", default="parity",
                        choices=["parity", "detector"],
                        help="parity tracker or sequence detector "
                             "(default parity)")
    parser.add_argument("--pattern", default="101",
                        help="binary pattern for the detector "
                             "(default 101)")
    parser.add_argument("--word", default="110101",
                        help="input symbol word (default 110101)")
    parser.add_argument("--seed", type=_seed, default=0)
    _add_waves_options(parser, live=True)
    parser.set_defaults(run=_run_fsm)


def _run_fsm(args) -> int:
    from repro.digital.fsm import parity_machine, sequence_detector

    fsm = (parity_machine() if args.machine == "parity"
           else sequence_detector(args.pattern))
    run = fsm.run(list(args.word), seed=args.seed, probe=args.probe)
    print(fsm.network.summary())
    print("word: ", " ".join(args.word))
    print("trace:", " -> ".join(run.trace))
    for output, counts in run.output_counts.items():
        print(f"output {output!r}: {counts[-1]} emission(s) "
              f"(per step: {run.emissions(output)})")
    return 0


def _add_robustness(subparsers) -> None:
    from repro.scenarios import scenario_names

    parser = subparsers.add_parser(
        "robustness",
        help="run a fault-injection robustness campaign")
    parser.add_argument("--circuit", default="counter",
                        choices=list(scenario_names(tag="faults")),
                        help="circuit under test (default counter)")
    parser.add_argument("--trials", type=int, default=20,
                        help="trials per fault model (default 20)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="campaign root seed (default 0)")
    parser.add_argument("--separation", type=_finite_float, default=None,
                        help="fast/slow separation to run at "
                             "(default: the circuit's nominal scheme)")
    parser.add_argument("--fault", action="append", default=[],
                        metavar="NAME",
                        help="fault model to campaign over (repeatable; "
                             "default: the circuit's default suite); one "
                             "of rate_mismatch, leak, dilution, "
                             "copy_number_noise, species_deletion, "
                             "clock_glitch")
    parser.add_argument("--no-margin", action="store_true",
                        help="skip the robustness-margin bisection")
    parser.add_argument("--margin-trials", type=int, default=4,
                        help="trials per margin probe point (default 4)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size (default: CPU count; "
                             "1 forces serial)")
    parser.add_argument("--json", default="", metavar="FILE",
                        help="write the full campaign report as JSON")
    _add_monitor_config_option(parser)
    parser.set_defaults(run=_run_robustness)


def _run_robustness(args) -> int:
    from repro.faults import RobustnessCampaign
    from repro.faults.models import (ClockGlitch, CopyNumberNoise,
                                     Dilution, Leak, RateMismatch,
                                     SpeciesDeletion)

    factories = {model.kind: model for model in (
        RateMismatch, Leak, Dilution, CopyNumberNoise, SpeciesDeletion,
        ClockGlitch)}
    models = None
    if args.fault:
        unknown = [n for n in args.fault if n not in factories]
        if unknown:
            raise _UsageError(f"unknown fault model(s) {unknown}; choose "
                              f"from {sorted(factories)}")
        models = [factories[name]() for name in args.fault]
    monitor = _load_monitor_config(args)
    campaign = RobustnessCampaign(
        circuit=args.circuit, models=models, trials=args.trials,
        seed=args.seed, separation=args.separation,
        n_workers=args.workers, measure_margin=not args.no_margin,
        margin_trials=args.margin_trials,
        circuit_kwargs={"monitor": monitor} if monitor else None)
    result = campaign.run()
    print(result.render())
    if args.json:
        # Unsorted: the campaign report's field order is part of its format.
        _write_json(args.json, result.to_dict(), "campaign report",
                    sort_keys=False)
    return 0


def _add_waves(subparsers) -> None:
    from repro.waves.runner import SCENARIOS

    parser = subparsers.add_parser(
        "waves",
        help="run a logic-analyzer scenario: waveform capture, "
             "temporal assertions, cycle profile")
    parser.add_argument("--scenario", default="counter",
                        choices=list(SCENARIOS),
                        help="circuit to probe (default counter)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="root seed (default 0)")
    parser.add_argument("--trials", type=int, default=1,
                        help="pre-seeded trials to fan out (default 1)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size for multi-trial runs "
                             "(default: CPU count; 1 forces serial)")
    parser.add_argument("--trial", type=int, default=0, dest="keep_trial",
                        help="trial whose waveform --vcd keeps "
                             "(default 0)")
    parser.add_argument("--json", default="", metavar="FILE",
                        help="write the full trial report as JSON")
    parser.add_argument("--bits", type=int, default=2,
                        help="counter width (default 2)")
    parser.add_argument("--pulses", type=int, default=None,
                        help="counter pulses (default 2**bits + 2)")
    parser.add_argument("--machine", default="parity",
                        choices=["parity", "detector"],
                        help="FSM for the fsm scenario (default parity)")
    parser.add_argument("--pattern", default="101",
                        help="detector pattern (default 101)")
    parser.add_argument("--word", default="110101",
                        help="FSM input word (default 110101)")
    parser.add_argument("--taps", type=int, default=2,
                        help="moving-average taps (default 2)")
    parser.add_argument("--input", default="", type=_samples,
                        help="comma-separated samples for ma/iir "
                             "(default 8,4,6,2)")
    _add_waves_options(parser, live=False)
    _add_monitor_config_option(parser)
    parser.set_defaults(run=_run_waves)


def _run_waves(args) -> int:
    from repro.obs.monitors import RuntimeDiagnostic
    from repro.waves import load_assertion_specs, run_trials
    from repro.waves.output import render_violations
    from repro.waves.profiler import render_profile

    assert_specs = (load_assertion_specs(args.assert_file)
                    if args.assert_file else None)
    report = run_trials(
        args.scenario, trials=args.trials, seed=args.seed,
        n_workers=args.workers, keep_trial=args.keep_trial,
        assert_specs=assert_specs, monitor=_load_monitor_config(args),
        bits=args.bits, pulses=args.pulses, machine=args.machine,
        pattern=args.pattern, word=args.word, taps=args.taps,
        input_samples=args.input)
    print(f"scenario {args.scenario}: {args.trials} trial(s), "
          f"root seed {args.seed}")
    for row in report["results"]:
        status = "ok" if row["ok"] else \
            f"{len(row['violations'])} violation(s)"
        print(f"  trial {row['trial']} (seed {row['seed']}): {status}")
        for line in row["summary"].get("monitor_diagnostics", []):
            print(f"    {line}")
    kept = report["kept"]
    profile = report["results"][kept["trial"]]["summary"].get("profile")
    if profile:
        print()
        print(render_profile(profile))
    if args.vcd:
        with open(args.vcd, "w", encoding="ascii") as handle:
            handle.write(kept["vcd"])
        print(f"wrote VCD waveform of trial {kept['trial']} to "
              f"{args.vcd} ({kept['n_signals']} signals, "
              f"{kept['n_changes']} changes)")
    if args.json:
        _write_json(args.json, report, "waves report")
    if report["violations_total"]:
        violations = [
            RuntimeDiagnostic(**{key: value for key, value in v.items()
                                 if key != "type"})
            for row in report["results"] for v in row["violations"]]
        print(render_violations(violations, f"waves:{args.scenario}"),
              file=sys.stderr)
    return 1 if report["violations_total"] else 0


def _add_conformance(subparsers) -> None:
    parser = subparsers.add_parser(
        "conformance",
        help="cross-check every simulation engine against metamorphic "
             "invariants and differential oracles")
    parser.add_argument("--budget", default="small",
                        choices=["tiny", "small", "medium", "large"],
                        help="generator budget (default small; the "
                             "nightly CI job runs large)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="root seed; (budget, seed) names one "
                             "exact target list forever (default 0)")
    parser.add_argument("--json", default="", metavar="FILE",
                        help="write the deterministic JSON report")
    parser.add_argument("--corpus", default="", metavar="DIR",
                        help="replay-corpus directory for shrunk "
                             "reproducers (default "
                             "tests/conformance/corpus when it exists)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report failures without shrinking or "
                             "writing reproducers")
    parser.add_argument("--replay", default="", metavar="FILE",
                        help="replay the invariant battery against one "
                             ".crn file (corpus reproducer) and exit")
    parser.set_defaults(run=_run_conformance)


def _run_conformance(args) -> int:
    from pathlib import Path

    from repro.conformance import replay_network, run_conformance
    from repro.conformance.runner import DEFAULT_CORPUS_DIR

    if args.replay:
        corpus = DEFAULT_CORPUS_DIR
        path = Path(args.replay)
        if not path.exists() and (corpus / path.name).exists():
            path = corpus / path.name
        network = load_network(path)
        results = replay_network(network, name=path.name,
                                 seed=args.seed)
        failures = [r for r in results if r.failed]
        for result in results:
            line = f"{result.status:5s} {result.check} [{result.engine}]"
            if result.detail:
                line += f": {result.detail}"
            print(line)
        print(f"{len(results) - len(failures)}/{len(results)} checks "
              f"passed on {path}")
        return 1 if failures else 0

    corpus_dir = args.corpus or (
        str(DEFAULT_CORPUS_DIR) if DEFAULT_CORPUS_DIR.is_dir() else None)
    report = run_conformance(
        args.budget, args.seed,
        corpus_dir=None if args.no_shrink else corpus_dir,
        shrink=not args.no_shrink)
    print(report.render())
    if args.json:
        _write_json(args.json, report.to_dict(), "conformance report")
    return 0 if report.ok else 1


def _add_dsd(subparsers) -> None:
    parser = subparsers.add_parser(
        "dsd", help="compile a .crn file to strand displacement")
    parser.add_argument("file")
    parser.add_argument("--c-max", type=_finite_float, default=10_000.0)
    parser.add_argument("--fasta", default="",
                        help="write a FASTA order sheet to this path")
    parser.set_defaults(run=_run_dsd)


def _run_dsd(args) -> int:
    from repro.dsd import compile_network
    from repro.dsd.sequences import SequenceDesigner

    network = load_network(args.file)
    compilation = compile_network(network, c_max=args.c_max)
    print(compilation.summary())
    if args.fasta:
        designer = SequenceDesigner()
        with open(args.fasta, "w", encoding="utf-8") as handle:
            handle.write(designer.to_fasta(compilation.inventory))
        print(f"wrote sequences to {args.fasta}")
    return 0


def _add_target_options(parser, verb: str) -> None:
    parser.add_argument("files", nargs="*",
                        help="paths to .crn network files")
    parser.add_argument("--circuit", action="append", default=[],
                        metavar="NAME",
                        help=f"{verb} a built-in target by name "
                             f"('all' for every one); repeatable")


def _add_report_options(parser) -> None:
    parser.add_argument("--format", choices=["text", "json", "sarif"],
                        default="text", dest="fmt")
    parser.add_argument("--output", default="",
                        help="write the report to this path instead of "
                             "stdout")


def _add_fail_on_option(parser, default: str) -> None:
    parser.add_argument("--fail-on", choices=["error", "warning", "note"],
                        default=None, dest="fail_on",
                        help=f"lowest severity that fails the run "
                             f"(default: {default})")


def _targets(args, nothing: str | None):
    """``(display, network, circuit or None)`` for every lint/certify
    target: the files first, then the built-ins (``all`` expanded).

    An empty target list is a usage error worded ``nothing`` (``None``
    accepts it), raised now; each target is loaded as the command
    reaches it, an unreadable file being a usage error too.
    """
    from repro.crn.network import Network
    from repro.lint.builtins import BUILTIN_CIRCUITS, build_target

    names = [builtin for name in args.circuit
             for builtin in (BUILTIN_CIRCUITS if name == "all" else [name])]
    if nothing and not args.files and not names:
        raise _UsageError(nothing)

    def load():
        for path in args.files:
            try:
                network = load_network(path)
            except OSError as exc:
                raise _UsageError(f"cannot read {path}: "
                                  f"{exc.strerror or exc}") from None
            yield path, network, None
        for name in names:
            target = build_target(name)
            if isinstance(target, Network):
                yield f"circuit:{name}", target, None
            else:
                yield f"circuit:{name}", target.network, target

    return load()


def _print_report(args, rendered: str):
    """Write a rendered report to ``--output`` or stdout; returns the
    ``--fail-on`` threshold (``None`` = the command's default)."""
    from repro.lint.engine import Severity

    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.fmt} report to {args.output}")
    else:
        print(rendered)
    return Severity.from_name(args.fail_on) if args.fail_on else None


def _add_lint(subparsers) -> None:
    parser = subparsers.add_parser(
        "lint", help="statically analyse .crn files / built-in circuits")
    _add_target_options(parser, "lint")
    _add_report_options(parser)
    parser.add_argument("--strict", action="store_true",
                        help="exit non-zero on warnings, not just errors")
    _add_fail_on_option(parser, "error; --strict = warning")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE", help="disable a rule by name; "
                                             "repeatable")
    parser.add_argument("--verbose", action="store_true",
                        help="show notes, clean targets and skipped rules")
    parser.add_argument("--list-rules", action="store_true",
                        help="list registered rules and codes, then exit")
    parser.set_defaults(run=_run_lint)


def _run_lint(args) -> int:
    from repro.lint import LintConfig, lint_circuit, lint_network
    from repro.lint.engine import RULE_REGISTRY
    from repro.lint.output import render_json, render_sarif, render_text

    if args.list_rules:
        for registered in RULE_REGISTRY.values():
            codes = ", ".join(registered.codes)
            print(f"{registered.name:25s} {codes}")
            print(f"{'':25s} {registered.description}")
        return 0
    targets = _targets(args, "nothing to lint; pass .crn files and/or "
                             "--circuit")
    config = LintConfig(disable=frozenset(args.disable))
    results = [(display, lint_network(network, config, path=display)
                if circuit is None
                else lint_circuit(circuit, config, path=display))
               for display, network, circuit in targets]
    renderer = {"text": lambda r: render_text(r, verbose=args.verbose),
                "json": render_json, "sarif": render_sarif}[args.fmt]
    fail_on = _print_report(args, renderer(results))
    return max(report.exit_code(strict=args.strict, fail_on=fail_on)
               for _, report in results)


def _add_certify(subparsers) -> None:
    parser = subparsers.add_parser(
        "certify",
        help="derive static composition certificates (ISS error "
             "bounds) for .crn files, built-in circuits or cascades")
    _add_target_options(parser, "certify")
    parser.add_argument("--cascade", default="", metavar="SPECS",
                        help="certify a composed cascade of named "
                             "designs, e.g. 'ma,iir' or 'amp:4,amp:4' "
                             "(specs: ma[:taps], iir[:feedback], "
                             "biquad, amp[:gain])")
    _add_report_options(parser)
    parser.add_argument("--noise-margin", type=_finite_float, default=None,
                        help="digital noise margin (default 0.5)")
    parser.add_argument("--signal-scale", type=_finite_float, default=None,
                        help="worst-case input amplitude (default 8)")
    parser.add_argument("--headroom", type=_finite_float, default=None,
                        help="W803 headroom factor over the certified "
                             "minimum separation (default 1.1)")
    _add_fail_on_option(parser, "error")
    parser.set_defaults(run=_run_certify)


def _run_certify(args) -> int:
    from repro.certify.certificate import CertifyConfig
    from repro.certify.output import (certify_target, exit_code,
                                      render_json, render_sarif,
                                      render_text)
    from repro.certify.targets import build_cascade
    from repro.core.synthesis import synthesize

    overrides = {key: value for key, value in (
        ("noise_margin", args.noise_margin),
        ("signal_scale", args.signal_scale),
        ("headroom", args.headroom)) if value is not None}
    config = CertifyConfig(**overrides)
    targets = _targets(args, None if args.cascade else (
        "nothing to certify; pass .crn files, --circuit and/or "
        "--cascade"))
    results = [certify_target(display, network, circuit=circuit,
                              config=config)
               for display, network, circuit in targets]
    if args.cascade:
        specs = [s for s in args.cascade.split(",") if s.strip()]
        circuit = synthesize(build_cascade(specs))
        results.append(certify_target(f"cascade:{args.cascade}",
                                      circuit.network, circuit=circuit,
                                      config=config))
    renderer = {"text": render_text, "json": render_json,
                "sarif": render_sarif}[args.fmt]
    return exit_code(results, fail_on=_print_report(args,
                                                    renderer(results)))


def _add_report(subparsers) -> None:
    parser = subparsers.add_parser(
        "report", help="summarise a recorded JSONL trace")
    parser.add_argument("trace", help="path to a .jsonl trace file")
    parser.add_argument("--chrome", default="", metavar="FILE",
                        help="also export the Chrome trace-event view")
    parser.set_defaults(run=_run_report)


def _run_report(args) -> int:
    from repro.obs.report import load_records, summarize, write_chrome

    records = load_records(args.trace)
    print(summarize(records))
    if args.chrome:
        write_chrome(records, args.chrome)
        print(f"\nwrote Chrome trace to {args.chrome} "
              f"(open in chrome://tracing or ui.perfetto.dev)")
    return 0


def _add_serve(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run a batch of jobs through the async simulation "
             "service with content-addressed result caching")
    parser.add_argument("--jobs", default="", metavar="FILE",
                        help="JSON file holding a list of job specs "
                             "(see docs/serving.md for the schema)")
    parser.add_argument("--demo", action="store_true",
                        help="run a built-in duplicate-job batch and "
                             "verify the cache serves byte-identical "
                             "responses (exit 1 on any mismatch)")
    parser.add_argument("--cache-dir", default="", metavar="DIR",
                        help="persist results to an on-disk store "
                             "(default: in-memory LRU)")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size for robustness jobs "
                             "(default: CPU count)")
    parser.add_argument("--seed", type=_seed, default=0,
                        help="root seed for the --demo job mix "
                             "(default 0)")
    parser.add_argument("--json", default="", metavar="FILE",
                        help="write a machine-readable run summary "
                             "(cache keys + result digests, no "
                             "timings)")
    parser.set_defaults(run=_run_serve)


def _run_serve(args) -> int:
    import asyncio
    import hashlib

    from repro.errors import ServeError
    from repro.serve import (DiskResultStore, JobSpec,
                             SimulationService, build_job_mix,
                             canonical_result_bytes)

    if bool(args.jobs) == bool(args.demo):
        raise _UsageError("serve takes exactly one of --jobs FILE or "
                          "--demo")
    if args.jobs:
        with open(args.jobs, encoding="utf-8") as handle:
            try:
                payload = json.load(handle)
            except json.JSONDecodeError as exc:
                raise ServeError(f"{args.jobs}: not valid JSON "
                                 f"({exc.msg})") from None
        if not isinstance(payload, list):
            raise _UsageError(f"{args.jobs} must hold a JSON list of job "
                              f"specs")
        specs = [JobSpec.from_dict(entry) for entry in payload]
    else:
        # Two distinct specs, each submitted twice: the second pass
        # must be served from the store, byte-for-byte.
        mix = build_job_mix(2, seed=args.seed, sweep_runs=4)
        specs = mix + mix
    store = DiskResultStore(args.cache_dir) if args.cache_dir else None

    async def drive():
        rows = []
        async with SimulationService(store,
                                     n_workers=args.workers) \
                as service:
            for spec in specs:
                handle = await service.submit(spec)
                row = {"kind": spec.kind, "key": handle.cache_key,
                       "cached": handle.cached}
                try:
                    result = await handle.result()
                except Exception as error:  # counted in stats["failed"]
                    row["error"] = str(error)
                else:
                    row["sha256"] = hashlib.sha256(
                        canonical_result_bytes(result)).hexdigest()
                rows.append(row)
            return rows, dict(service.stats)

    rows, stats = asyncio.run(drive())
    for row in rows:
        if "error" in row:
            print(f"fail {row['kind']:<12s} key={row['key'][:12]} "
                  f"error={row['error']}")
            continue
        state = "hit " if row["cached"] else "cold"
        print(f"{state} {row['kind']:<12s} key={row['key'][:12]} "
              f"sha256={row['sha256'][:12]}")
    print(f"jobs={stats['submitted']} hits={stats['cache_hits']} "
          f"failed={stats['failed']}")
    if args.json:
        _write_json(args.json, {"schema": "repro.serve-run/1",
                                "results": rows, "stats": stats},
                    "run summary")
    if not args.demo:
        return 1 if stats["failed"] else 0
    digests: dict[str, set[str | None]] = {}
    for row in rows:
        digests.setdefault(row["key"], set()).add(row.get("sha256"))
    repeats_hit = all(row["cached"] for row in rows[len(specs) // 2:])
    identical = all(len(values) == 1 for values in digests.values())
    if repeats_hit and identical:
        print("demo: duplicate jobs hit the cache with "
              "byte-identical responses")
        return 0
    print("demo: FAILED -- duplicate jobs were not served "
          "byte-identically from the cache", file=sys.stderr)
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Synchronous sequential computation with molecular "
                    "reactions (DAC 2011 reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for add in (_add_simulate, _add_clock, _add_filter, _add_counter,
                _add_fsm, _add_robustness, _add_waves, _add_conformance,
                _add_dsd, _add_lint, _add_certify, _add_report,
                _add_serve):
        add(subparsers)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _open(args)
        status = args.run(args)
        return max(status, _finish(args))
    except _UsageError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream consumer closed the pipe (e.g. ``| head``).
        return 0
    except OSError as error:
        # A path named on the command line cannot be read or written.
        where = f"cannot access {error.filename}: " if error.filename \
            else ""
        print(f"error: {where}{error.strerror or error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())

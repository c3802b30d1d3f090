"""Tests for the waveform probe and its wiring through the drivers."""

import tracemalloc

import numpy as np
import pytest

from repro.apps.filters import moving_average
from repro.core.machine import SynchronousMachine
from repro.core.stochastic_machine import StochasticMachine
from repro.digital.counter import BinaryCounter
from repro.digital.fsm import parity_machine
from repro.faults.models import ClockGlitch, FaultPlan
from repro.obs import MemorySink, Tracer
from repro.obs.records import CycleSpan
from repro.waves import (NULL_PROBE, WaveformProbe, build_engine,
                         ensure_probe, profile_cycles, signal_key)


class TestSignalKey:
    def test_identifiers_pass_through(self):
        assert signal_key("ctr_b0") == "ctr_b0"

    def test_punctuation_mapped(self):
        assert signal_key("transfer:red->green") == \
            "transfer_red__green"

    def test_leading_digit_prefixed(self):
        assert signal_key("0bit") == "_0bit"
        assert signal_key("") == "_"


class TestProbe:
    def test_record_feeds_engine_on_changes_only(self):
        engine = build_engine([{"type": "stable_during",
                                "signal": "reg", "phase": "green"}])
        probe = WaveformProbe(assertions=engine)
        probe.record("phase", 0.0, "green", kind="state")
        probe.record("reg", 0.1, 1.0, kind="real")
        probe.record("reg", 0.2, 1.0)  # repeat: not a change
        probe.record("reg", 0.3, 2.0)  # second change: violation
        [violation] = probe.finish()
        assert violation.code == "REPRO-A902"

    def test_observe_cycle_charts_phase_channel(self):
        probe = WaveformProbe()
        span = CycleSpan(0, 0.0, 3.0)
        phases = [("red", 0.0, 1.0), ("green", 1.0, 2.0),
                  ("blue", 2.0, 3.0)]
        probe.observe_cycle(span, phases, [], boundary_wait=0.25)
        assert probe.waveform["phase"].values == ["red", "green",
                                                 "blue"]
        assert probe.cycle_records == [(span, phases, [], 0.25)]

    def test_observe_cycle_streams_changes_in_time_order(self):
        seen = []

        class Recorder:
            def on_change(self, t, signal, value):
                seen.append((t, signal, value))

        probe = WaveformProbe(assertions=Recorder())
        span = CycleSpan(0, 0.0, 2.0)
        phases = [("red", 0.0, 1.0), ("green", 1.0, 2.0)]
        probe.observe_cycle(span, phases, [], 0.0,
                            np.array([0.0, 1.0, 2.0]),
                            {"a": np.array([1.0, 2.0, 2.0]),
                             "b": np.array([5.0, 5.0, 6.0])})
        # A phase change first at a tie; then row by row, in column
        # order; repeated values are not changes.
        assert seen == [(0.0, "phase", "red"), (0.0, "a", 1.0),
                        (0.0, "b", 5.0), (1.0, "phase", "green"),
                        (1.0, "a", 2.0), (2.0, "b", 6.0)]
        assert probe.waveform["a"].times == [0.0, 1.0]
        assert probe.waveform["b"].values == [5.0, 6.0]

    def test_finish_without_engine(self):
        probe = WaveformProbe()
        assert probe.finish() == []
        assert probe.diagnostics() == []

    def test_ensure_probe(self):
        probe = WaveformProbe()
        assert ensure_probe(probe) is probe
        assert ensure_probe(None) is NULL_PROBE


class TestNullProbe:
    def test_disabled_and_inert(self):
        assert NULL_PROBE.enabled is False
        NULL_PROBE.declare("b", "bit")
        NULL_PROBE.record("b", 0.0, 1)
        NULL_PROBE.boundary(0, 0.0, {})
        NULL_PROBE.observe_cycle(None, [], [])
        assert NULL_PROBE.finish() == []
        assert NULL_PROBE.diagnostics() == []
        assert NULL_PROBE.cycle_records == ()

    def test_no_allocation_when_disabled(self):
        """The disabled probe path must not allocate (PR 2 standard)."""
        probe = NULL_PROBE
        span = CycleSpan(0, 0.0, 1.0)

        def hot_loop():
            for i in range(200):
                if probe.enabled:
                    probe.record("b", float(i), 1)
                    probe.boundary(i, float(i), {})
                    probe.observe_cycle(span, (), ())

        hot_loop()  # warm up any lazy interpreter state
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            hot_loop()
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before == 0


class TestMachineWiring:
    @pytest.fixture(scope="class")
    def probed_run(self):
        probe = WaveformProbe()
        tracer = Tracer(MemorySink())
        machine = SynchronousMachine(moving_average(2), probe=probe,
                                     tracer=tracer)
        run = machine.run({"x": [8.0, 4.0, 6.0]})
        return probe, tracer, run

    def test_register_and_clock_lanes_recorded(self, probed_run):
        probe, _tracer, run = probed_run
        wave = probe.waveform
        assert "clock_total" in wave
        assert any(name.startswith("reg_") for name in wave.signals)
        assert "phase" in wave
        assert wave["phase"].values[:3] == ["red", "green", "blue"]
        assert len(probe.cycle_records) == run.n_cycles

    def test_profiler_attribution_matches_trace_spans(self, probed_run):
        """The critical transfer per cycle must be the transfer span
        with the latest end time in the trace -- the probe and the
        tracer consume the same decomposition, so they can never
        disagree."""
        probe, tracer, _run = probed_run
        report = profile_cycles(probe.cycle_records)
        spans = [d for d in tracer.sink.dicts()
                 if d["type"] == "span" and
                 d["name"].startswith("transfer:")]
        assert report.n_cycles > 0
        for row in report.cycles:
            cycle_spans = [s for s in spans
                           if s["args"].get("cycle") == row.cycle]
            assert cycle_spans, f"no transfer spans for cycle {row.cycle}"
            latest = max(cycle_spans,
                         key=lambda s: (s["t1"], s["name"]))
            assert row.critical_transfer == latest["name"]

    def test_dead_time_fraction_in_unit_interval(self, probed_run):
        probe, _tracer, _run = probed_run
        report = profile_cycles(probe.cycle_records)
        assert 0.0 < report.dead_time_fraction < 1.0

    def test_assertion_violations_join_diagnostics(self):
        engine = build_engine([{"type": "invariant",
                                "expr": "clock_total < 0",
                                "name": "impossible"}])
        machine = SynchronousMachine(moving_average(2),
                                     probe=WaveformProbe(
                                         assertions=engine))
        run = machine.run({"x": [8.0, 4.0]})
        codes = {d.code for d in run.diagnostics}
        assert "REPRO-A901" in codes


class TestGlitchDetection:
    def test_assertion_fires_the_cycle_after_the_glitch(self):
        """A clock glitch surfaces as a REPRO-A9xx violation *during*
        the run -- at the first boundary sampled after the fault --
        long before any end-of-run scorer compares outputs."""
        # Clean boundaries read clock_total >= 19.86 (mass 20 minus
        # in-flight transfer mass); a recoverable 5% glitch dips the
        # post-fault boundary to ~18.9, so 19.5 separates cleanly.
        engine = build_engine([{"type": "invariant",
                                "expr": "clock_total >= 19.5",
                                "name": "clock-mass-held"}])
        plan = FaultPlan([ClockGlitch(cycle=1, fraction=0.05)], seed=3)
        machine = SynchronousMachine(moving_average(2), faults=plan,
                                     probe=WaveformProbe(
                                         assertions=engine))
        run = machine.run({"x": [8.0, 4.0, 6.0, 2.0]})
        violations = [d for d in run.diagnostics
                      if d.code == "REPRO-A901"]
        assert violations, "glitch did not trip the clock invariant"
        # The probe samples the pre-replenishment state, so the glitch
        # injected at boundary 1 is seen at boundary 2's sample --
        # strictly before the last cycle (where output scoring lives).
        assert violations[0].cycle == 2
        assert violations[0].cycle < run.n_cycles - 1

    def test_clean_run_passes_the_same_invariant(self):
        engine = build_engine([{"type": "invariant",
                                "expr": "clock_total >= 19.5"}])
        machine = SynchronousMachine(moving_average(2),
                                     probe=WaveformProbe(
                                         assertions=engine))
        run = machine.run({"x": [8.0, 4.0, 6.0, 2.0]})
        assert not [d for d in run.diagnostics
                    if d.code.startswith("REPRO-A")]


class TestCounterWiring:
    def test_bit_value_and_residual_lanes(self):
        probe = WaveformProbe()
        counter = BinaryCounter(2)
        run = counter.count(5, seed=0, probe=probe)
        wave = probe.waveform
        assert "ctr_value" in wave and "ctr_residual" in wave
        bit_lanes = [n for n in wave.signals
                     if wave[n].kind == "bit"]
        assert len(bit_lanes) == 2
        assert wave["ctr_value"].width == 2
        # The value lane replays the counted sequence.
        values = [wave["ctr_value"].value_at(i * (100.0 / 1000.0))
                  for i in range(len(run.values))]
        assert values == run.values

    def test_counter_assertions_see_value_and_overflow(self):
        engine = build_engine([{"type": "eventually_within",
                                "when": "cycle >= 1",
                                "holds": "overflow >= 1",
                                "cycles": 8}])
        counter = BinaryCounter(2)
        counter.count(6, seed=0,
                      probe=WaveformProbe(assertions=engine))
        assert engine.finish() == []


class TestFsmWiring:
    def test_state_lane_mirrors_trace(self):
        probe = WaveformProbe()
        fsm = parity_machine()
        run = fsm.run(list("1101"), seed=0, probe=probe)
        track = probe.waveform["parity_state"]
        assert track.kind == "state"
        # The change-list compresses repeats; the dense trace replayed
        # through value_at matches the recorded run.
        settle = 100.0 / 1000.0
        replay = [track.value_at(i * settle)
                  for i in range(len(run.trace))]
        assert replay == list(run.trace)


class TestStochasticWiring:
    def test_boundary_lanes_recorded(self):
        probe = WaveformProbe()
        machine = StochasticMachine(moving_average(2), seed=7,
                                    probe=probe)
        run = machine.run({"x": [8.0, 4.0]})
        assert "clock_total" in probe.waveform
        assert len(probe.cycle_records) == run.n_cycles
        assert any(name.startswith("reg_")
                   for name in probe.waveform.signals)

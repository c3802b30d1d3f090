"""Cycle telemetry pinned bitwise, on the kernel and without it.

A machine with a metrics registry, a tracer, a waveform probe carrying
assertions and the default protocol monitor reads every cycle's segment
for its trace spans, metrics, waveform tracks, cycle records, monitor
diagnostics and assertion verdicts.  These tests pin all of it:

* one digest per ODE design and clocking mode (and per SSA seed) over
  the outputs, every waveform track, every trace record but its
  ``wall`` argument, the metrics snapshot but its wall-clock
  histograms, the diagnostics and the probe's cycle records;
* the assertion engine sees a cycle's changes in time order, so a
  ``stable_during`` assertion judges each sample in the phase it was
  taken in, as a replay of the recorded waveform does;
* the register, readout and clock terms a machine template evaluates
  give the bits of the getter formulas they replace, on single states
  and on row blocks.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.apps.filters import iir_first_order, moving_average
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import MachineOptions, SynchronousMachine
from repro.core.stochastic_machine import StochasticMachine
from repro.crn import native
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.waves.assertions import (AssertionEngine, EventuallyWithin,
                                    Invariant, StableDuring,
                                    TemporalAssertion)
from repro.waves.probe import WaveformProbe

STREAM = [8, 4, 6, 2]
DESIGNS = {"ma2": lambda: moving_average(2), "iir": iir_first_order}

#: Histograms named with this suffix time the host (the machine's
#: ``machine.cycle_wall_seconds``, the engines' ``ode.wall_seconds`` and
#: ``ssa.wall_seconds``) and are left out of every digest.
WALL_SUFFIX = "wall_seconds"


@pytest.fixture(params=["kernel", "no-kernel"])
def kernel_path(request, monkeypatch):
    """Run on the compiled kernel, and with the kernel reported missing
    (the ODE machine then runs LSODA on the NumPy twins, the SSA machine
    its Python poll loop)."""
    if request.param == "no-kernel":
        monkeypatch.setattr(native, "_kernel", None)
    elif native.load() is None:
        pytest.skip("compiled kernel unavailable")
    return request.param


def observed(machine_type, design, **kwargs):
    """A machine with every observer on, its probe asserting on its one
    register: an invariant that fails while the register holds 5 or
    more, and an obligation to fall below 3 within one cycle of holding
    more than 5."""
    tracer, metrics = Tracer(MemorySink()), MetricsRegistry()
    [register] = (design.to_matrix() if isinstance(design, SignalFlowGraph)
                  else design).delays
    key = f"reg_{register}"
    probe = WaveformProbe(AssertionEngine([
        Invariant(f"{key} < 5"),
        EventuallyWithin(f"{key} > 5", f"{key} < 3", 1)]))
    machine = machine_type(design, tracer=tracer, metrics=metrics,
                           probe=probe, **kwargs)
    return machine, tracer, metrics, probe


def telemetry_digest(run, tracer, metrics, probe) -> str:
    """First 16 hex digits of a sha256 over the outputs, the waveform,
    the trace (``wall`` arguments dropped), the metrics (wall-clock
    histograms dropped), the diagnostics and the cycle records (span
    walls dropped)."""
    h = hashlib.sha256()

    def put(value) -> None:
        h.update(repr(value).encode())
        h.update(b"\0")

    for name in sorted(run.outputs):
        h.update(np.asarray(run.outputs[name], dtype=np.float64).tobytes())
    for track in probe.waveform.signals.values():
        put((track.name, track.kind, track.width, track.times,
             track.values))
    for record in tracer.sink.records:
        payload = record.to_dict()
        if "args" in payload:
            payload["args"] = {key: value for key, value
                               in payload["args"].items() if key != "wall"}
        put(payload)
    snapshot = metrics.to_dict()
    snapshot["histograms"] = {
        name: summary for name, summary in snapshot["histograms"].items()
        if not name.endswith(WALL_SUFFIX)}
    put(snapshot)
    put([diagnostic.to_dict() for diagnostic in run.diagnostics])
    put([((span.index, span.t0, span.t1), phases, transfers, wait)
         for span, phases, transfers, wait in probe.cycle_records])
    return h.hexdigest()[:16]


class TestOdeTelemetryPins:
    """``SynchronousMachine`` on its ``native-bdf`` default; without a
    kernel it runs LSODA, so each case has a second digest."""

    @pytest.mark.parametrize("design,clocking,kernel,fallback", [
        ("ma2", "fixed", "5a80823725507384", "cc022b552f528c4e"),
        ("ma2", "adaptive", "4a9c1926d6cefab4", "4f3882a185cc965d"),
        ("iir", "fixed", "0df34dd9157f09b9", "03015e2d809eb4b7"),
        ("iir", "adaptive", "0408ee52c60e6ddb", "e073b53440dca520"),
    ])
    def test_observed_run(self, kernel_path, design, clocking, kernel,
                          fallback):
        machine, tracer, metrics, probe = observed(
            SynchronousMachine, DESIGNS[design](),
            options=MachineOptions(clocking=clocking))
        run = machine.run({"x": STREAM})
        assert telemetry_digest(run, tracer, metrics, probe) == \
            (kernel if kernel_path == "kernel" else fallback)


class TestSsaTelemetryPins:
    """``StochasticMachine``: the compiled poll loop and its Python twin
    give one realisation, so one digest per seed."""

    @pytest.mark.parametrize("seed,expected", [
        (0, "ea9c16c44f7fa2e7"),
        (1, "22949b758035a4ec"),
        (2, "8a53ea71eb95c80e"),
    ])
    def test_observed_run(self, kernel_path, seed, expected):
        machine, tracer, metrics, probe = observed(
            StochasticMachine, moving_average(2), seed=seed)
        run = machine.run({"x": STREAM})
        assert telemetry_digest(run, tracer, metrics, probe) == expected


class _ChangeTimes(TemporalAssertion):
    """Records the time of every change the engine streams."""

    def __init__(self):
        super().__init__("change-times")
        self.times: list[float] = []

    def on_change(self, t, signal, value):
        self.times.append(t)


def _stable_during_each_phase():
    return [StableDuring("reg_d1", color) for color in ("red", "green",
                                                        "blue")]


MACHINES = {
    "ode": lambda probe: SynchronousMachine(moving_average(2), probe=probe),
    "ssa": lambda probe: StochasticMachine(moving_average(2), seed=3,
                                           probe=probe),
}


class TestTimeOrderedChanges:
    """REPRO-A902: a machine streams a cycle's phase changes and its
    sampled rows merged in time order, a phase change first at a tie."""

    @pytest.mark.parametrize("engine", sorted(MACHINES))
    def test_change_times_never_decrease(self, engine):
        recorder = _ChangeTimes()
        MACHINES[engine](WaveformProbe(AssertionEngine([recorder]))).run(
            {"x": STREAM})
        assert len(recorder.times) > 20
        assert all(b >= a for a, b in zip(recorder.times,
                                          recorder.times[1:]))

    @pytest.mark.parametrize("engine,expected", [
        ("ode", {"red": 8, "green": 8, "blue": 8}),
        ("ssa", {"red": 5, "green": 1, "blue": 0}),
    ])
    def test_stable_during_equals_a_replay(self, engine, expected):
        live = _stable_during_each_phase()
        probe = WaveformProbe(AssertionEngine(live))
        MACHINES[engine](probe).run({"x": STREAM})
        replay = AssertionEngine(_stable_during_each_phase())
        for change in probe.waveform.changes():
            replay.on_change(change.t, change.signal, change.value)
        counts = {assertion.phase: len(assertion.violations)
                  for assertion in live}
        assert counts == {assertion.phase: len(assertion.violations)
                          for assertion in replay.assertions}
        assert counts == expected


# -- register, readout and clock terms ---------------------------------------


def _diff() -> SignalFlowGraph:
    """A signed design: y = x - x[n-1]."""
    sfg = SignalFlowGraph("diff")
    x = sfg.input("x")
    d = sfg.delay("d", source=x)
    sfg.output("y", sfg.subtract(x, d))
    return sfg


#: Designs and gating modes: consuming gating adds the ``I_`` dimers
#: every formula weighs twice, and ``diff`` is dual-rail.
TERM_CASES = {
    "ma2": (lambda: moving_average(2), "catalytic"),
    "iir": (iir_first_order, "catalytic"),
    "diff": (_diff, "catalytic"),
    "ma2-consuming": (lambda: moving_average(2), "consuming"),
    "diff-consuming": (_diff, "consuming"),
}


def _getter_register(circuit, get, name: str) -> float:
    value = 0.0
    for rail, sign in (("p", 1.0), ("n", -1.0)):
        if rail not in circuit.rails():
            continue
        species = circuit.source_species[name][rail]
        value += sign * get(species)
        dimer = f"I_{species}"
        if dimer in circuit.network:
            value += sign * 2.0 * get(dimer)
    return value


def _getter_readout(circuit, get, name: str) -> float:
    value = 0.0
    for rail, sign in (("p", 1.0), ("n", -1.0)):
        if rail not in circuit.rails():
            continue
        value += sign * get(circuit.readout_species[name][rail])
        acc = f"a_{name}_{rail}"
        if acc in circuit.network:
            value += sign * get(acc)
            dimer = f"I_{acc}"
            if dimer in circuit.network:
                value += sign * 2.0 * get(dimer)
    return value


def _getter_clock(circuit, get) -> float:
    total = 0.0
    for name in circuit.clock.species_names():
        total += get(name)
    dimer = f"I_{circuit.clock.red.name}"
    if dimer in circuit.network:
        total += 2.0 * get(dimer)
    return total


def _random_states(rng, n_rows: int, n_species: int) -> np.ndarray:
    """Rows spanning 15 decades, both signs, exact and negative zeros,
    and a third of the blocks whole counts (an SSA machine's)."""
    if rng.random() < 1 / 3:
        return rng.integers(0, 200, (n_rows, n_species))
    states = rng.standard_normal((n_rows, n_species)) \
        * 10.0 ** rng.uniform(-12, 3, (n_rows, n_species))
    states[rng.random(states.shape) < 0.1] = 0.0
    states[rng.random(states.shape) < 0.05] = -0.0
    return states


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestTerms:
    @pytest.mark.parametrize("case", sorted(TERM_CASES))
    def test_terms_equal_the_getter_formulas(self, case):
        build, gating = TERM_CASES[case]
        machine = SynchronousMachine(build(), gating=gating)
        template, circuit = machine.template, machine.circuit
        index = machine.network.species_index
        quantities = [
            *((template.registers[name],
               lambda get, name=name: _getter_register(circuit, get, name))
              for name in machine.design.delays),
            *((template.readouts[name],
               lambda get, name=name: _getter_readout(circuit, get, name))
              for name in machine.design.outputs),
            (template.clock, lambda get: _getter_clock(circuit, get)),
        ]
        rng = np.random.default_rng(sum(map(ord, case)))
        rows = 0
        while rows < 2_000:
            block = _random_states(rng, int(rng.integers(1, 80)),
                                   machine.network.n_species)
            rows += block.shape[0]
            for terms, formula in quantities:
                expected = [formula(lambda s, row=row: float(row[index(s)]))
                            for row in block]
                assert _bits(terms.rows(block)) == _bits(expected)
                assert _bits([terms.value(row) for row in block]) == \
                    _bits(expected)

"""The compiled SSA event loop against its Python twin.

``IncrementalPropensities.advance`` runs the Gillespie loop of
``StochasticSimulator.simulate`` in C (:mod:`repro.crn.native`), drawing
from numpy's own bit generator; ``advance_python`` is the Python loop it
replaces.  The contract is **bitwise** equality of everything a run
leaves behind: the sampled trajectory and its meta (or the error it
raised), the counts, the propensities, the gather buffer, the rebuild
counter, the firing counters and the generator's next draw.  The
fallback test checks that a missing compiler costs one
``RuntimeWarning`` and nothing else.  ``IncrementalPropensities.ensemble``
runs a seeded ensemble through the same loop in one call, against
``ensemble_python``: the same contract per trial, every generator's next
draw included.  ``IncrementalPropensities.poll`` runs a machine's poll
chunks in one call, against ``poll_python``: the same contract, plus
where each call ended and every kept row.
"""

import json
import os
import pickle
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.filters import moving_average
from repro.conformance.generator import BUDGETS, generate_targets
from repro.core.machine import MachineOptions
from repro.core.stochastic_machine import StochasticMachine
from repro.core.synthesis import synthesize
from repro.crn import native
from repro.crn.network import Network
from repro.crn.parser import parse_network
from repro.crn.simulation.margins import MarginTable
from repro.crn.simulation.sampling import NO_POSITIVE_PROPENSITY
from repro.crn.simulation.ssa import (IncrementalPropensities,
                                      StochasticSimulator, _bitgen,
                                      _CompiledLoop)
from repro.errors import SimulationError
from repro.obs import MetricsRegistry
from repro.scenarios import get_scenario, scenario_names

ROOT = Path(__file__).resolve().parents[2]
CORPUS = sorted((ROOT / "tests" / "conformance" / "corpus").glob("*.crn"))
EXAMPLES = sorted((ROOT / "examples").glob("*.crn"))


def _higher_order():
    """Order >= 3 rows, which take the loop's generic propensity path."""
    network = Network("higher_order")
    network.add({"A": 3}, {"B": 1}, 0.5)
    network.add({"A": 1, "B": 2}, {"C": 1}, 2.0)
    network.add({"A": 1, "B": 1, "C": 1}, {"D": 2}, 1.5)
    network.add({"A": 2, "D": 2}, {"A": 1}, 0.25)
    network.add({"C": 1}, {"A": 1, "B": 1}, 1.0)
    network.add(None, {"A": 1}, 20.0)
    for name, count in (("A", 40), ("B", 30), ("C", 10), ("D", 8)):
        network.set_initial(name, count)
    return network


def _networks():
    found = [(path.stem, parse_network(path.read_text(), path.stem))
             for path in EXAMPLES + CORPUS]
    found += [(f"scenario:{name}", get_scenario(name).network())
              for name in scenario_names(tag="network")]
    for budget in ("tiny", "small"):
        found += [(f"{budget}:{target.name}", target.network)
                  for target in generate_targets(BUDGETS[budget], seed=0)]
    found.append(("higher_order", _higher_order()))
    return found


NETWORKS = _networks()


def _machine_chunk():
    """The E14 machine's network at its rates (indicator generation at
    the slow rate, as ``StochasticMachine`` sets it), with 40 input
    molecules injected: a few thousand events per time unit."""
    machine = StochasticMachine(moving_average(2), seed=0)
    network = machine.network
    initial = network.initial_vector()
    initial[network.species_index(
        machine.circuit.source_species["x"]["p"])] += 40
    return network, {"rates": machine.simulator.kinetics.rates,
                     "initial": initial}


MACHINE, MACHINE_KW = _machine_chunk()


@pytest.fixture(scope="module")
def kernel():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        module = native.load()
    if module is None:
        pytest.skip("compiled kernel unavailable; the Python loop runs")
    return module


def _realise(network, compiled, *, bit_generator=np.random.PCG64, seed=0,
             rates=None, constants=None, rebuild_interval=None,
             metrics=False, t_final=2.0, **kwargs):
    """One seeded realisation and everything it leaves behind.
    ``constants`` overwrites the stochastic constants before the run,
    to reach values no valid rate gives."""
    rng = np.random.Generator(bit_generator(seed))
    registry = MetricsRegistry() if metrics else None
    simulator = StochasticSimulator(network, rates=rates, seed=rng,
                                    metrics=registry)
    state = simulator.propensity_state
    if constants is not None:
        state.constants[:] = constants
    if rebuild_interval is not None:
        state.rebuild_interval = rebuild_interval
    if not compiled:
        state._native = False  # bound as unavailable: the twin runs
    kwargs.setdefault("max_events", 20_000)
    try:
        trajectory = simulator.simulate(t_final, **kwargs)
        outcome = (trajectory.times, trajectory.states, trajectory.meta)
    except SimulationError as exc:
        outcome = str(exc)
    assert bool(state._native) == compiled
    return {"outcome": outcome, "counts": state.counts.copy(),
            "a": state.a.copy(), "cb": state._cb.copy(),
            "since": state._events_since_rebuild, "next": rng.random(),
            "counters": registry.to_dict()["counters"] if metrics else None}


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _assert_same(compiled: dict, twin: dict) -> None:
    if isinstance(compiled["outcome"], tuple):
        assert isinstance(twin["outcome"], tuple), twin["outcome"]
        for got, want in zip(compiled["outcome"][:2], twin["outcome"][:2]):
            assert _same_bits(got, want)
        assert compiled["outcome"][2] == twin["outcome"][2]
    else:
        assert compiled["outcome"] == twin["outcome"]
    for key in ("counts", "a", "cb", "next"):
        assert _same_bits(compiled[key], twin[key]), key
    assert compiled["since"] == twin["since"]
    assert compiled["counters"] == twin["counters"]


def _both(network, **kwargs):
    return _realise(network, True, **kwargs), _realise(network, False,
                                                       **kwargs)


@pytest.mark.parametrize(("name", "network"), NETWORKS,
                         ids=[name for name, _ in NETWORKS])
def test_compiled_loop_matches_the_twin_bitwise(kernel, name, network):
    _assert_same(*_both(network, seed=sum(name.encode())))


CONDITIONS = {
    "t_start": {"t_start": 2.5, "t_final": 4.0},
    "two_samples": {"n_samples": 2},
    "rebuild_every_event": {"rebuild_interval": 1},
    "rebuild_every_7": {"rebuild_interval": 7},
    "rebuild_every_4096": {"rebuild_interval": 4096},
    "max_events": {"max_events": 37},
    "firing_metrics": {"metrics": True},
}


@pytest.mark.parametrize("condition", list(CONDITIONS))
@pytest.mark.parametrize(("network", "setup"),
                         [(MACHINE, MACHINE_KW), (_higher_order(), {})],
                         ids=["machine", "higher_order"])
def test_run_conditions(kernel, condition, network, setup):
    compiled, twin = _both(network, seed=5, **setup, **CONDITIONS[condition])
    _assert_same(compiled, twin)
    if condition == "max_events":
        assert compiled["outcome"].startswith("SSA exceeded 37 events")
    else:
        assert compiled["outcome"][2]["events"] > 37


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_every_bit_generator(kernel, bit_generator):
    _assert_same(*_both(MACHINE, bit_generator=bit_generator, seed=9,
                        **MACHINE_KW))


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_the_capsule_gives_the_ctypes_bitgen(kernel, bit_generator):
    rng = np.random.Generator(bit_generator(2))
    pointer = int(kernel.ffi.cast("uintptr_t", _bitgen(kernel.ffi, rng)))
    assert pointer == rng.bit_generator.ctypes.bit_generator.value != 0


def test_absorbing_start_draws_nothing(kernel):
    network = Network("decay")
    network.add("A", "B", 0.5)
    compiled, twin = _both(network)
    _assert_same(compiled, twin)
    assert compiled["outcome"][2] == {"events": 0}
    assert compiled["next"] == \
        np.random.Generator(np.random.PCG64(0)).random()


def test_absorbing_draw_raises_the_same_error(kernel):
    """An infinite constant on an empty reactant makes a = inf * 0 =
    NaN: the total is not <= 0, so both paths draw, find no positive
    propensity and raise the selection error.  (An infinite rate is
    refused, so the constant is set after construction.)"""
    network = Network("nan")
    network.add("A", "B", 1.0)
    with np.errstate(invalid="ignore"):
        compiled, twin = _both(network, constants=np.array([np.inf]))
    _assert_same(compiled, twin)
    assert compiled["outcome"] == NO_POSITIVE_PROPENSITY


def test_clamp_normalises_negative_zero(kernel):
    """Firing 2A -> B from two molecules leaves a = c * 0 * (-0.5) =
    -0.0; the clamp stores +0.0, while the unclamped rebuild keeps -0.0,
    on both paths."""
    network = Network("pair")
    network.add({"A": 2}, "B", 1.0)
    network.set_initial("A", 2)
    for interval, negative in ((4096, False), (1, True)):
        compiled, twin = _both(network, rebuild_interval=interval)
        _assert_same(compiled, twin)
        assert compiled["outcome"][2] == {"events": 1}
        assert compiled["a"][0] == 0.0
        assert bool(np.signbit(compiled["a"][0])) is negative


def test_generator_subclass_takes_the_twin(kernel, monkeypatch):
    class Subclass(np.random.Generator):
        pass

    calls = []
    twin = IncrementalPropensities.advance_python

    def counting(self, *args):
        calls.append(args[0])
        return twin(self, *args)

    monkeypatch.setattr(IncrementalPropensities, "advance_python", counting)
    results = []
    for cls in (Subclass, np.random.Generator):
        simulator = StochasticSimulator(MACHINE, rates=MACHINE_KW["rates"],
                                        seed=cls(np.random.PCG64(4)))
        results.append(simulator.simulate(
            2.0, initial=MACHINE_KW["initial"]).states)
    assert len(calls) == 1 and type(calls[0]) is Subclass
    assert _same_bits(*results)


def _machine_simulator(seed):
    return StochasticSimulator(MACHINE, rates=MACHINE_KW["rates"], seed=seed)


def test_the_twin_fire_plan_is_built_lazily(kernel):
    simulator = _machine_simulator(1)
    simulator.simulate(1.0, initial=MACHINE_KW["initial"])
    assert simulator.propensity_state._fire_plan is None


def test_pickle_round_trip_after_the_loop_ran(kernel):
    simulator = _machine_simulator(5)
    simulator.simulate(1.0, initial=MACHINE_KW["initial"])
    assert simulator.propensity_state._native
    clone = pickle.loads(pickle.dumps(simulator))
    assert clone.propensity_state._native is None
    first, second = (s.simulate(1.0, initial=MACHINE_KW["initial"])
                     for s in (simulator, clone))
    assert _same_bits(first.states, second.states)
    assert first.meta["events"] > 0
    assert clone.propensity_state._native


#: The first 20 ops of the ``ssa-machine`` benchmark pool after its
#: screening (ops 0, 5, 8 and 15 are screened out).
POOL_OPS = [1, 2, 3, 4, 6, 7, 9, 10, 11, 12, 13, 14, 16, 17, 18, 19, 20,
            21, 22, 23]


def _pool_op(k: int) -> tuple[list[int], int]:
    """Two even molecule counts in [0, 80] and the machine seed ``k``."""
    rng = np.random.default_rng((14, k))
    return [int(v) for v in 2 * rng.integers(0, 41, 2)], k


@pytest.mark.parametrize("clocking", ["fixed", "adaptive"])
def test_machine_runs_are_bitwise_equal_on_both_paths(kernel, monkeypatch,
                                                      ma2_sfg, clocking):
    """Each cycle of a run without a straggler flush is one compiled
    poll call; with the kernel missing, none is, and the runs agree."""
    options = MachineOptions(clocking=clocking)
    calls = []
    compiled_poll = _CompiledLoop.poll

    def counting(self, *args):
        calls.append(args[0])
        return compiled_poll(self, *args)

    monkeypatch.setattr(_CompiledLoop, "poll", counting)

    def runs():
        out = []
        for k in POOL_OPS:
            stream, seed = _pool_op(k)
            machine = StochasticMachine(ma2_sfg, seed=seed, options=options)
            run = machine.run({"x": stream})
            out.append((run.outputs["y"].tobytes(),
                        [(span.t0, span.t1) for span in run.cycles],
                        machine.flush_events))
        return out

    compiled = runs()
    assert all(flush_events == 0 for _, _, flush_events in compiled)
    assert len(calls) == sum(len(spans) for _, spans, _ in compiled)
    calls.clear()
    monkeypatch.setattr(native, "_kernel", None)  # kernel unavailable
    assert runs() == compiled
    assert not calls


# -- a machine's poll chunks in one call ---------------------------------------

def _tables(network, seed):
    """A seeded one-term departure and two-term closing table over
    ``network``'s species, thresholds from its initial counts (as the
    conformance cell draws them)."""
    rng = np.random.default_rng(seed)
    counts = np.rint(network.initial_vector()).astype(np.int64)

    def term(sign):
        species = np.sort(rng.choice(counts.size, replace=False,
                                     size=rng.integers(1, counts.size + 1)))
        weights = rng.integers(1, 3, species.size).astype(float)
        return species, weights, float(weights @ counts[species]), sign

    return MarginTable([term(1)]), MarginTable([term(1), term(-1)])


def _machine_tables(clocking):
    """The E14 machine's own tables, closing for a 40-molecule cycle."""
    machine = StochasticMachine(moving_average(2), seed=0,
                                options=MachineOptions(clocking=clocking))
    return machine.template.departure, machine._closing_table(40.0)


POLL_TABLES = {
    "fixed": (MACHINE, MACHINE_KW, _machine_tables("fixed")),
    "adaptive": (MACHINE, MACHINE_KW, _machine_tables("adaptive")),
    "higher_order": (_higher_order(), {}, _tables(_higher_order(), 3)),
}

GRID = np.linspace(0.0, 0.25, 16)


def _realise_poll(case, compiled, *, bit_generator=np.random.PCG64, seed=0,
                  rebuild_interval=None, metrics=False, calls=1, **kwargs):
    """``calls`` seeded poll calls, each from where the last ended, and
    everything they leave behind."""
    network, setup, (departure, closing) = POLL_TABLES[case]
    rng = np.random.Generator(bit_generator(seed))
    registry = MetricsRegistry() if metrics else None
    simulator = StochasticSimulator(network, rates=setup.get("rates"),
                                    seed=rng, metrics=registry)
    state = simulator.propensity_state
    if rebuild_interval is not None:
        state.rebuild_interval = rebuild_interval
    if not compiled:
        state._native = False
    kwargs.setdefault("max_events", 20_000)
    counts = np.rint(setup.get("initial", network.initial_vector()))
    t, departed, outcome = kwargs.pop("t", 0.0), \
        kwargs.pop("departed", False), []
    try:
        for _ in range(calls):
            poll = simulator.poll(counts, GRID, departure, closing, t=t,
                                  departed=departed, **kwargs)
            outcome.append(poll)
            counts, t, departed = poll.counts, poll.t, poll.departed
    except SimulationError as exc:
        outcome.append(str(exc))
    assert bool(state._native) == compiled
    return {"outcome": outcome, "counts": state.counts.copy(),
            "a": state.a.copy(), "cb": state._cb.copy(),
            "since": state._events_since_rebuild, "next": rng.random(),
            "counters": registry.to_dict()["counters"] if metrics else None}


def _assert_same_poll(compiled: dict, twin: dict) -> None:
    assert len(compiled["outcome"]) == len(twin["outcome"])
    for got, want in zip(compiled["outcome"], twin["outcome"]):
        if isinstance(got, str):
            assert got == want
            continue
        assert got[:4] == want[:4]
        assert type(got.t) is float and type(want.t) is float
        assert _same_bits(got.counts, want.counts)
        assert (got.rows is None) == (want.rows is None)
        if got.rows is not None:
            assert _same_bits(got.rows, want.rows)
    for key in ("counts", "a", "cb", "next"):
        assert _same_bits(compiled[key], twin[key]), key
    assert compiled["since"] == twin["since"]
    assert compiled["counters"] == twin["counters"]


def _both_polls(case, **kwargs):
    return (_realise_poll(case, True, **kwargs),
            _realise_poll(case, False, **kwargs))


POLL_CONDITIONS = {
    "one_chunk": {"chunks": 1, "calls": 6},
    "window": {"chunks": 81, "calls": 3},
    "kept_rows": {"chunks": 5, "calls": 4, "keep": True},
    "limits": {"chunks": 81, "calls": 3, "t": 13.75,
               "until": ((13.75, 0.6), (0.0, 20.0))},
    "departed": {"chunks": 81, "departed": True},
    "rebuild_every_7": {"chunks": 4, "calls": 3, "rebuild_interval": 7},
    "max_events": {"chunks": 81, "max_events": 37},
    "firing_metrics": {"chunks": 81, "calls": 4, "metrics": True},
}


@pytest.mark.parametrize("condition", list(POLL_CONDITIONS))
@pytest.mark.parametrize("case", list(POLL_TABLES))
def test_poll_matches_the_twin_bitwise(kernel, case, condition):
    compiled, twin = _both_polls(case, seed=5, **POLL_CONDITIONS[condition])
    _assert_same_poll(compiled, twin)
    first = compiled["outcome"][0]
    if condition == "max_events":
        assert first.startswith("SSA exceeded 37 events at t=")
    elif condition == "limits":
        # 0.6 past 13.75 is three chunks, and the first call runs them.
        assert first.row is not None or first.chunks == 3
    elif condition == "firing_metrics":
        assert all(poll.chunks == 1 for poll in compiled["outcome"])
        assert compiled["counters"]["ssa.batches"] == 4


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_poll_on_every_bit_generator(kernel, bit_generator):
    _assert_same_poll(*_both_polls("fixed", bit_generator=bit_generator,
                                   seed=9, chunks=81, calls=2, keep=True))


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "twin"])
def test_the_chunk_budget_cannot_move_a_realisation(kernel, compiled):
    """One chunk per call, or the machine's window per call: the same
    closing row after the same chunks, and the same generator state."""
    single = _realise_poll("fixed", compiled, seed=2, chunks=1, calls=200)
    window = _realise_poll("fixed", compiled, seed=2, chunks=81)
    closing = next(i for i, poll in enumerate(single["outcome"])
                   if poll.row is not None)
    ended = single["outcome"][closing]
    whole = window["outcome"][0]
    assert whole.row == ended.row and whole.chunks == closing + 1 > 1
    assert whole.departed and whole.t == ended.t
    assert _same_bits(whole.counts, ended.counts)
    rerun = _realise_poll("fixed", compiled, seed=2, chunks=1,
                          calls=closing + 1)
    for key in ("counts", "a", "cb", "next"):
        assert _same_bits(rerun[key], window[key]), key


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "twin"])
def test_poll_refuses_what_does_not_fit(kernel, compiled):
    """A table index past the state, or negative counts, never reach
    either executor."""
    departure, closing = POLL_TABLES["fixed"][2]
    simulator = _machine_simulator(0)
    if not compiled:
        simulator.propensity_state._native = False
    counts = np.rint(MACHINE_KW["initial"])
    outside = MarginTable([([MACHINE.n_species], [1.0], 0.0, 1)])
    with pytest.raises(ValueError, match="outside the state"):
        simulator.poll(counts, GRID, departure, outside)
    counts[0] = -1
    with pytest.raises(SimulationError, match="negative initial counts"):
        simulator.poll(counts, GRID, departure, closing)


def test_generator_subclass_polls_on_the_twin(kernel, monkeypatch):
    class Subclass(np.random.Generator):
        pass

    calls = []
    twin = IncrementalPropensities.poll_python

    def counting(self, *args):
        calls.append(args[0])
        return twin(self, *args)

    monkeypatch.setattr(IncrementalPropensities, "poll_python", counting)
    departure, closing = POLL_TABLES["fixed"][2]
    polls = [StochasticSimulator(MACHINE, rates=MACHINE_KW["rates"],
                                 seed=cls(np.random.PCG64(4))).poll(
        np.rint(MACHINE_KW["initial"]), GRID, departure, closing,
        chunks=81, keep=True) for cls in (Subclass, np.random.Generator)]
    assert len(calls) == 1 and type(calls[0]) is Subclass
    assert polls[0][:4] == polls[1][:4]
    assert _same_bits(polls[0].rows, polls[1].rows)


def test_poll_draws_from_its_own_generator_after_an_ensemble(kernel):
    """An ensemble leaves the compiled loop pointing at a trial's
    generator; the next poll must draw from the simulator's own."""
    departure, closing = POLL_TABLES["fixed"][2]
    simulator = _machine_simulator(3)
    fresh = _machine_simulator(3)
    counts = np.rint(MACHINE_KW["initial"])
    simulator.simulate_ensemble(1.0, [np.random.default_rng(8)],
                                initial=counts)
    polls = [s.poll(counts, GRID, departure, closing, chunks=81)
             for s in (simulator, fresh)]
    assert polls[0][:4] == polls[1][:4]
    assert simulator.rng.random() == fresh.rng.random()


# -- fallback without a compiler, in a fresh process --------------------------

_CHILD = """
import json, warnings
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    from repro.apps.filters import moving_average
    from repro.core.stochastic_machine import StochasticMachine
    machine = StochasticMachine(moving_average(2), seed=11)
    run = machine.run({"x": [40, 80, 20]})
print(json.dumps({
    "compiled": bool(machine.simulator.propensity_state._native),
    "warnings": [str(w.message) for w in caught],
    "outputs": run.outputs["y"].tobytes().hex(),
    "cycles": [[span.t0, span.t1] for span in run.cycles]}))
"""


def test_missing_compiler_falls_back_with_one_warning(kernel, tmp_path):
    machine = StochasticMachine(moving_average(2), seed=11)
    expected = machine.run({"x": [40, 80, 20]})
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True,
        timeout=300, env={**os.environ, "PYTHONPATH": path, "CC": "false",
                          "XDG_CACHE_HOME": str(tmp_path / "cache")})
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert outcome["compiled"] is False
    assert len(outcome["warnings"]) == 1
    assert "SSA" in outcome["warnings"][0]
    assert "NumPy kinetics" in outcome["warnings"][0]
    assert outcome["outputs"] == expected.outputs["y"].tobytes().hex()
    assert outcome["cycles"] == [[span.t0, span.t1]
                                 for span in expected.cycles]


def test_synthesized_machine_network_matches(kernel, ma2_sfg):
    """The synthesized E14 network, from a state with an input injected."""
    circuit = synthesize(ma2_sfg)
    network = circuit.network
    initial = network.initial_vector()
    initial[network.species_index(circuit.source_species["x"]["p"])] += 40
    _assert_same(*_both(network, initial=initial, t_final=3.0))


# -- seeded ensembles in one call ----------------------------------------------

def _realise_ensemble(network, compiled, *, seeds=(0, 1, 2),
                      bit_generator=np.random.PCG64, rates=None,
                      rebuild_interval=None, metrics=False, t_final=2.0,
                      **kwargs):
    """One seeded ensemble, everything it leaves behind, and each
    trial's generator's next draw; a repeated seed repeats one
    generator."""
    generators = {seed: np.random.Generator(bit_generator(seed))
                  for seed in seeds}
    rngs = [generators[seed] for seed in seeds]
    registry = MetricsRegistry() if metrics else None
    simulator = StochasticSimulator(network, rates=rates, metrics=registry)
    state = simulator.propensity_state
    if rebuild_interval is not None:
        state.rebuild_interval = rebuild_interval
    if not compiled:
        state._native = False
    kwargs.setdefault("max_events", 20_000)
    try:
        result = simulator.simulate_ensemble(t_final, rngs, **kwargs)
        outcome = (result.times, result.states, result.events)
    except SimulationError as exc:
        outcome = str(exc)
    assert bool(state._native) == compiled
    return {"outcome": outcome, "counts": state.counts.copy(),
            "a": state.a.copy(), "cb": state._cb.copy(),
            "since": state._events_since_rebuild,
            "next": [rng.random() for rng in rngs],
            "counters": registry.to_dict()["counters"] if metrics else None}


def _assert_same_ensemble(compiled: dict, twin: dict) -> None:
    if isinstance(compiled["outcome"], tuple):
        assert isinstance(twin["outcome"], tuple), twin["outcome"]
        for got, want in zip(compiled["outcome"], twin["outcome"]):
            assert _same_bits(got, want)
    else:
        assert compiled["outcome"] == twin["outcome"]
    for key in ("counts", "a", "cb", "next"):
        assert _same_bits(compiled[key], twin[key]), key
    assert compiled["since"] == twin["since"]
    assert compiled["counters"] == twin["counters"]


def _both_ensembles(network, **kwargs):
    return (_realise_ensemble(network, True, **kwargs),
            _realise_ensemble(network, False, **kwargs))


ENSEMBLE_CONDITIONS = dict(CONDITIONS, repeated_generator={"seeds": (4, 4)})


@pytest.mark.parametrize("condition", list(ENSEMBLE_CONDITIONS))
@pytest.mark.parametrize(("network", "setup"),
                         [(MACHINE, MACHINE_KW), (_higher_order(), {})],
                         ids=["machine", "higher_order"])
def test_ensemble_matches_the_twin_bitwise(kernel, condition, network,
                                           setup):
    compiled, twin = _both_ensembles(network, **setup,
                                     **ENSEMBLE_CONDITIONS[condition])
    _assert_same_ensemble(compiled, twin)
    if condition == "max_events":
        assert compiled["outcome"].startswith("SSA exceeded 37 events")
        assert compiled["outcome"].endswith("(ensemble trial 0)")
    else:
        assert compiled["outcome"][2].min() > 37


@pytest.mark.parametrize("bit_generator", [
    np.random.PCG64, np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_ensemble_on_every_bit_generator(kernel, bit_generator):
    _assert_same_ensemble(*_both_ensembles(
        MACHINE, bit_generator=bit_generator, **MACHINE_KW))


def test_ensemble_trials_are_the_independent_runs(kernel):
    """Each trial is bitwise ``simulate`` on its generator, and leaves
    that generator where ``simulate`` leaves it."""
    ensemble = _realise_ensemble(MACHINE, True, seeds=(5, 6, 7),
                                 **MACHINE_KW)
    for trial, seed in enumerate((5, 6, 7)):
        run = _realise(MACHINE, True, seed=seed, **MACHINE_KW)
        times, states, meta = run["outcome"]
        assert _same_bits(ensemble["outcome"][0], times)
        assert _same_bits(ensemble["outcome"][1][trial], states)
        assert ensemble["outcome"][2][trial] == meta["events"]
        assert ensemble["next"][trial] == run["next"]


def test_simulate_after_an_ensemble_draws_from_its_own_generator(kernel):
    """The ensemble points the compiled loop at its trials' generators;
    the simulator's next ``simulate`` must draw from its own again."""
    simulator = _machine_simulator(3)
    fresh = _machine_simulator(3)
    trials = [np.random.default_rng(seed) for seed in (8, 9)]
    kw = {"initial": MACHINE_KW["initial"]}
    before = simulator.simulate(1.0, **kw)
    simulator.simulate_ensemble(1.0, trials, **kw)
    after = simulator.simulate(1.0, **kw)
    assert _same_bits(before.states, fresh.simulate(1.0, **kw).states)
    assert _same_bits(after.states, fresh.simulate(1.0, **kw).states)
    assert simulator.rng.random() == fresh.rng.random()


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "twin"])
def test_repeated_generator_runs_its_trials_in_order(kernel, compiled):
    """``seeds=[g, g]`` is two sequential runs on ``g`` and does not
    deadlock on the generator's lock, which need not be re-entrant."""
    g = np.random.default_rng(12)
    simulator = _machine_simulator(0)
    if not compiled:
        simulator.propensity_state._native = False
    kw = {"initial": MACHINE_KW["initial"]}
    done = []
    worker = threading.Thread(daemon=True, target=lambda: done.append(
        simulator.simulate_ensemble(1.0, [g, g], **kw)))
    worker.start()
    worker.join(120)
    assert done, "an ensemble over a repeated generator deadlocked"
    reference = _machine_simulator(np.random.default_rng(12))
    for trial in range(2):
        run = reference.simulate(1.0, **kw)
        assert _same_bits(done[0].states[trial], run.states)
        assert done[0].events[trial] == run.meta["events"]
    assert g.random() == reference.rng.random()


def _overrun_in_trial_3():
    """Seeds whose trial 3 fires more events than any earlier trial on a
    decay chain, and the budget that only trial 3 exceeds."""
    network = Network("decay")
    network.add("A", "B", 1.0)
    network.set_initial("A", 60)
    for root in range(100):
        seeds = np.random.SeedSequence(root).spawn(4)
        events = [StochasticSimulator(network, seed=np.random.default_rng(
            seed)).simulate(1.0).meta["events"] for seed in seeds]
        if events[3] > max(events[:3]):
            return network, seeds, max(events[:3])
    raise AssertionError("no seed root overruns in trial 3")


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "twin"])
def test_budget_overrun_names_its_trial(kernel, compiled):
    network, seeds, budget = _overrun_in_trial_3()
    with pytest.raises(SimulationError) as expected:
        StochasticSimulator(network, seed=np.random.default_rng(
            seeds[3])).simulate(1.0, max_events=budget)
    simulator = StochasticSimulator(network)
    if not compiled:
        simulator.propensity_state._native = False
    with pytest.raises(SimulationError) as raised:
        simulator.simulate_ensemble(1.0, seeds, max_events=budget)
    assert str(raised.value) == \
        f"{expected.value} (ensemble trial 3)"
    assert bool(simulator.propensity_state._native) == compiled


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "twin"])
def test_absorbing_draw_in_an_ensemble_names_its_trial(kernel, compiled):
    network = Network("nan")
    network.add("A", "B", 1.0)
    simulator = StochasticSimulator(network)
    simulator.constants[:] = np.inf
    if not compiled:
        simulator.propensity_state._native = False
    with np.errstate(invalid="ignore"), \
            pytest.raises(SimulationError) as raised:
        simulator.simulate_ensemble(1.0, [0, 1])
    assert str(raised.value) == \
        f"{NO_POSITIVE_PROPENSITY} (ensemble trial 0)"

"""The compiled SSA event loop against its Python twin.

``IncrementalPropensities.advance`` runs the Gillespie loop of
``StochasticSimulator.simulate`` in C (:mod:`repro.crn.native`), drawing
from numpy's own bit generator; ``advance_python`` is the Python loop it
replaces.  The contract is **bitwise** equality of everything a run
leaves behind: the sampled trajectory and its meta (or the error it
raised), the counts, the propensities, the gather buffer, the rebuild
counter, the firing counters and the generator's next draw.  The
fallback test checks that a missing compiler costs one
``RuntimeWarning`` and nothing else.
"""

import json
import os
import pickle
import subprocess
import sys
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
from repro.crn.simulation.sampling import NO_POSITIVE_PROPENSITY
from repro.crn.simulation.ssa import (IncrementalPropensities,
                                      StochasticSimulator)
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
             rates=None, rebuild_interval=None, metrics=False, t_final=2.0,
             **kwargs):
    """One seeded realisation and everything it leaves behind."""
    rng = np.random.Generator(bit_generator(seed))
    registry = MetricsRegistry() if metrics else None
    simulator = StochasticSimulator(network, rates=rates, seed=rng,
                                    metrics=registry)
    state = simulator.propensity_state
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


def test_absorbing_start_draws_nothing(kernel):
    network = Network("decay")
    network.add("A", "B", 0.5)
    compiled, twin = _both(network)
    _assert_same(compiled, twin)
    assert compiled["outcome"][2] == {"events": 0}
    assert compiled["next"] == \
        np.random.Generator(np.random.PCG64(0)).random()


def test_absorbing_draw_raises_the_same_error(kernel):
    """An infinite rate on an empty reactant makes a = inf * 0 = NaN:
    the total is not <= 0, so both paths draw, find no positive
    propensity and raise the selection error."""
    network = Network("nan")
    network.add("A", "B", 1.0)
    with np.errstate(invalid="ignore"):
        compiled, twin = _both(network, rates=np.array([np.inf]))
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
    options = MachineOptions(clocking=clocking)

    def runs():
        out = []
        for k in POOL_OPS:
            stream, seed = _pool_op(k)
            machine = StochasticMachine(ma2_sfg, seed=seed, options=options)
            run = machine.run({"x": stream})
            out.append((run.outputs["y"].tobytes(),
                        [(span.t0, span.t1) for span in run.cycles],
                        machine.flush_events,
                        bool(machine.simulator.propensity_state._native)))
        return out

    compiled = runs()
    assert all(row[3] for row in compiled)
    monkeypatch.setattr(native, "_kernel", None)  # kernel unavailable
    fallback = runs()
    assert [row[:3] for row in fallback] == [row[:3] for row in compiled]
    assert not any(row[3] for row in fallback)


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

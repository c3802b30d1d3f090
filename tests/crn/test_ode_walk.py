"""The resumable LSODA walk against its ``odeint`` twin.

``OdeSimulator._locate_event`` walks each chunk of its event search
through one resumable LSODA run (``_walk_lsoda``), stopping at the first
sample pair that brackets the event.  Its twin (``_walk_odeint``)
integrates the whole chunk with ``odeint`` and then scans it.  The
contract is **bitwise**: every row the walk returns is the row
``odeint`` returns for that grid point, so event times, event states and
every machine output are the same on both walks.  The twin runs only on
a scipy without the resumable entry point, after one ``RuntimeWarning``.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.apps.filters import iir_first_order, moving_average
from repro.core.machine import MachineOptions, SynchronousMachine
from repro.crn.network import Network
from repro.crn.parser import parse_network
from repro.crn.simulation import ode
from repro.crn.simulation.events import species_above, species_below
from repro.crn.simulation.ode import OdeSimulator
from repro.errors import SimulationError
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.scenarios import get_scenario, scenario_names

ROOT = Path(__file__).resolve().parents[2]
CORPUS = sorted((ROOT / "tests" / "conformance" / "corpus").glob("*.crn"))
EXAMPLES = sorted((ROOT / "examples").glob("*.crn"))
DESIGNS = {"ma2": lambda: moving_average(2), "iir": iir_first_order}


def _networks():
    found = [(path.stem, parse_network(path.read_text(), path.stem))
             for path in EXAMPLES + CORPUS]
    found += [(f"scenario:{name}", get_scenario(name).network())
              for name in scenario_names(tag="network")]
    found += [(f"machine:{name}", SynchronousMachine(build()).network)
              for name, build in DESIGNS.items()]
    return found


NETWORKS = _networks()


@pytest.fixture(scope="module", autouse=True)
def walk_available():
    if ode._resumable_lsoda() is None:
        pytest.skip("resumable LSODA unavailable; the odeint twin runs")


@pytest.fixture
def twin(monkeypatch):
    """Route event location through the ``odeint`` twin."""
    def use_twin():
        monkeypatch.setattr(ode, "_lsoda_entry", None)
    return use_twin


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _never(t, x) -> float:
    return 1.0


def _decay(k=1.0, x0=10.0):
    network = Network("decay")
    network.add("A", "B", k)
    network.set_initial("A", x0)
    return network


# -- rows ---------------------------------------------------------------------


@pytest.mark.parametrize("jacobian", ["dense", "none"])
@pytest.mark.parametrize(("name", "network"), NETWORKS,
                         ids=[name for name, _ in NETWORKS])
def test_every_row_is_odeints(name, network, jacobian):
    simulator = OdeSimulator(network, jacobian=jacobian)
    x0 = network.initial_vector()
    grid = np.linspace(0.0, 10.0, 41)
    walk_stats = {"nfev": 0, "njev": 0}
    odeint_stats = {"nfev": 0, "njev": 0}
    walked, g, k = simulator._walk_lsoda(x0, grid, _never, -1.0, None,
                                         walk_stats)
    assert k is None and g.size == grid.size
    assert _same_bits(walked, simulator._odeint_span(x0, grid,
                                                     odeint_stats))
    assert walk_stats == odeint_stats


def test_walk_stops_at_the_first_bracketing_pair():
    network = _decay()
    simulator = OdeSimulator(network)
    event = species_below(network, "A", 5.0)
    grid = np.linspace(0.0, 5.0, 51)
    walked, g, k = simulator._walk_lsoda(network.initial_vector(), grid,
                                         event, -1.0, None, {"nfev": 0,
                                                             "njev": 0})
    assert k == 6 and walked.shape[0] == g.size == 8  # ln 2 in (0.6, 0.7]
    assert g[k] > 0.0 >= g[k + 1]
    twin = simulator._walk_odeint(network.initial_vector(), grid, event,
                                  -1.0, None, {"nfev": 0, "njev": 0})
    assert twin[2] == k
    assert _same_bits(walked, twin[0]) and _same_bits(g, twin[1])


# -- event location -----------------------------------------------------------


def _rise():
    network = Network("rise")
    network.add("A", "B", 1.0)
    network.set_initial("A", 10.0)
    return network


CASES = {
    "falling": (_decay, lambda n: species_below(n, "A", 5.0), 20.0, {}),
    "rising": (_rise, lambda n: species_above(n, "B", 5.0), 20.0, {}),
    "first-pair": (lambda: _decay(x0=5.000001),
                   lambda n: species_below(n, "A", 5.0), 20.0, {}),
    "none-in-span": (_decay, lambda n: species_below(n, "A", 5.0), 0.5,
                     {}),
    "hinted": (_decay, lambda n: species_below(n, "A", 5.0), 20.0,
               {"event_hint": 0.2}),
    "vanishing-hint": (_decay, lambda n: species_below(n, "A", 5.0),
                       20.0, {"event_hint": 1e-300}),
}


def _locate(case, n_samples, jacobian="auto"):
    build, make_event, t_final, kwargs = CASES[case]
    network = build()
    return OdeSimulator(network, jacobian=jacobian).simulate(
        t_final, n_samples=n_samples, events=[make_event(network)],
        **kwargs)


@pytest.mark.parametrize("n_samples", [7, 100, 4001])
@pytest.mark.parametrize("case", sorted(CASES))
def test_locate_event_is_the_same_on_both_walks(twin, case, n_samples):
    walked = _locate(case, n_samples)
    twin()
    scanned = _locate(case, n_samples)
    assert _same_bits(walked.times, scanned.times)
    assert _same_bits(walked.states, scanned.states)
    assert walked.meta == scanned.meta
    if case == "none-in-span":
        assert "event" not in walked.meta
    else:
        assert walked.meta["event"] == 0


def test_finite_difference_jacobian_locates_the_same_event(twin):
    walked = _locate("falling", 100, jacobian="none")
    twin()
    scanned = _locate("falling", 100, jacobian="none")
    assert _same_bits(walked.states, scanned.states)
    assert walked.meta == scanned.meta


def test_first_pair_event_fires_in_the_first_pair():
    trajectory = _locate("first-pair", 100)
    assert trajectory.meta["event_time"] < 1e-5


# -- machines -----------------------------------------------------------------


def _machine(name, clocking, telemetry):
    kwargs = {}
    if telemetry:
        kwargs = {"metrics": MetricsRegistry(),
                  "tracer": Tracer(MemorySink())}
    return SynchronousMachine(DESIGNS[name](),
                              options=MachineOptions(clocking=clocking),
                              method="LSODA", **kwargs)


def _spans(spans):
    return [(span.index, span.t0, span.t1) for span in spans]


def _drive(name, clocking, telemetry):
    samples = [8.0, 4.0, 6.0, 2.0]
    run = _machine(name, clocking, telemetry).run({"x": samples})
    stepper = _machine(name, clocking, telemetry).stepper()
    stepped = [stepper.step({"x": value}) for value in samples]
    stepped.append(stepper.flush())
    return {"outputs": {k: v.tobytes() for k, v in run.outputs.items()},
            "history": run.state_history,
            "spans": _spans(run.cycles),
            "stepped": stepped,
            "stepper spans": _spans(stepper.spans),
            "stepper state": stepper.state.tobytes()}


@pytest.mark.parametrize("telemetry", [False, True],
                         ids=["bare", "telemetry"])
@pytest.mark.parametrize("clocking", ["fixed", "adaptive"])
@pytest.mark.parametrize("name", sorted(DESIGNS))
def test_machine_runs_are_the_same_on_both_walks(twin, name, clocking,
                                                 telemetry):
    walked = _drive(name, clocking, telemetry)
    twin()
    assert _drive(name, clocking, telemetry) == walked


# -- ownership, memory and failures -------------------------------------------


def test_caller_arrays_are_never_handed_to_lsoda():
    network = _decay()
    simulator = OdeSimulator(network)
    event = species_below(network, "A", 5.0)
    rows = np.tile(network.initial_vector(), (3, 1))
    before = rows.copy()
    simulator._walk_lsoda(rows[1], np.linspace(0.0, 2.0, 9), event, -1.0,
                          None, {"nfev": 0, "njev": 0})
    initial = network.initial_vector()
    simulator.simulate(20.0, initial=initial, events=[event])
    assert _same_bits(rows, before)
    assert _same_bits(initial, network.initial_vector())


def test_fresh_simulators_leave_traced_memory_flat():
    network = _decay()
    event = species_below(network, "A", 5.0)

    def evented_simulate():
        OdeSimulator(network).simulate(20.0, n_samples=8, events=[event],
                                       event_hint=0.5)

    for _ in range(20):  # kernel, work arrays, interpreter caches
        evented_simulate()
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(20):
            evented_simulate()
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(500):
            evented_simulate()
        gc.collect()
        after, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # Work arrays leaked per walk would add ~4 kB per simulate.
    assert after - before < 64 * 1024


def _failure(walk):
    network = _decay()
    simulator = OdeSimulator(network, rtol=0.0, atol=0.0)
    with pytest.raises(SimulationError) as raised:
        simulator.simulate(20.0, events=[species_below(network, "A", 5.0)])
    single = OdeSimulator(network)
    with pytest.raises(SimulationError) as nothing:
        walk(single)(network.initial_vector(), np.array([0.0]), _never,
                     -1.0, None, {"nfev": 0, "njev": 0})
    return str(raised.value), str(nothing.value)


@pytest.mark.filterwarnings("ignore::scipy.integrate.ODEintWarning")
def test_solver_failures_read_the_same_on_both_walks(twin):
    walked = _failure(lambda simulator: simulator._walk_lsoda)
    twin()
    scanned = _failure(lambda simulator: simulator._walk_odeint)
    assert walked == scanned
    assert walked == (
        "ODE solver failed: Illegal input detected (internal error).",
        "ODE solver failed: Nothing was done; the integration time was 0.")


# -- fallback -----------------------------------------------------------------

_CHILD = """
import json, warnings
from scipy.integrate import _odepack
del _odepack.lsoda  # a scipy without the resumable entry point
from repro.scenarios import get_scenario
with warnings.catch_warnings(record=True) as caught:
    warnings.simplefilter("always")
    machine = get_scenario("ma").driver(taps=2, method="LSODA")
    runs = [machine.run({"x": [8.0, 4.0, 6.0, 2.0]}) for _ in range(2)]
print(json.dumps({
    "warnings": [str(w.message) for w in caught
                 if "resumable LSODA" in str(w.message)],
    "outputs": [[float(v).hex() for v in run.outputs["y"]]
                for run in runs]}))
"""


def test_missing_entry_point_falls_back_with_one_warning():
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _CHILD],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    outcome = json.loads(done.stdout.strip().splitlines()[-1])
    assert len(outcome["warnings"]) == 1, outcome["warnings"]
    assert "identical results" in outcome["warnings"][0]
    machine = get_scenario("ma").driver(taps=2, method="LSODA")
    runs = [machine.run({"x": [8.0, 4.0, 6.0, 2.0]}) for _ in range(2)]
    assert outcome["outputs"] == [[float(v).hex() for v in run.outputs["y"]]
                                  for run in runs]

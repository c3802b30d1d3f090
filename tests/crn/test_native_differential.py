"""Differential fuzzing: every compiled kernel entry against its twin.

Hypothesis draws the inputs, and each compiled entry must leave exactly
the bits its NumPy or Python twin leaves:

* ``repro_ssa_run`` (through ``StochasticSimulator.simulate``) against
  ``IncrementalPropensities.advance_python``;
* ``repro_ssa_ensemble`` (``simulate_ensemble``) against
  ``ensemble_python``;
* ``repro_ssa_poll`` (``poll``) against ``poll_python``;
* ``repro_rhs`` and ``repro_jacobian`` against ``rhs_numpy`` and
  ``jacobian_numpy``.

An SSA comparison covers everything a call leaves behind: its rows (or
the error it raised), the counts, the propensities ``a``, the gather
buffer, the rebuild counter and every generator's next draw.  The
networks are the conformance generator's random ones at the tiny and
small budgets, the ``ma2`` machine network at its rates, E17's
six-reaction ring (every propensity live) and a network of order >= 3
rows.  Rates may be exact zeros of either sign, and initial counts run
from one live species to all of them.  Rebuild intervals 1, 7 and 4096
reach the loop's live list both through the re-derivation after a
rebuild and through its updates between rebuilds.

Tier-1 runs a small derandomized budget.  CI's sanitizer step selects
the larger ``kernel-fuzz`` profile (``tests/conftest.py``) through
``HYPOTHESIS_PROFILE``.
"""

from __future__ import annotations

import warnings
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.filters import moving_average
from repro.conformance.generator import (BUDGETS, CONFORMANCE_SCHEME,
                                         random_network)
from repro.core.machine import MachineOptions
from repro.core.stochastic_machine import StochasticMachine
from repro.crn import native
from repro.crn.kinetics import build_kinetics
from repro.crn.network import Network
from repro.crn.simulation.margins import MarginTable
from repro.crn.simulation.ssa import StochasticSimulator, _index_buffer
from repro.errors import SimulationError

#: Examples per test in tier-1; a selected profile sets its own.
TIER1_EXAMPLES = 40


def _fuzz():
    budget = {} if settings.get_current_profile_name() != "default" \
        else {"max_examples": TIER1_EXAMPLES}
    return settings(deadline=None, derandomize=True, database=None,
                    suppress_health_check=list(HealthCheck), **budget)


@pytest.fixture(scope="module")
def kernel():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        module = native.load()
    if module is None:
        pytest.skip("compiled kernel unavailable; the twins run")
    return module


# -- inputs --------------------------------------------------------------------

@lru_cache(maxsize=None)
def _random(budget: str, seed: int) -> tuple[Network, np.ndarray]:
    limits = BUDGETS[budget]
    network = random_network(seed, limits.max_species, limits.max_reactions)
    return network, network.rate_vector(CONFORMANCE_SCHEME)


def _ring() -> Network:
    network = Network("rotation")
    for i in range(6):
        network.add(f"S{i}", f"S{(i + 1) % 6}", 1.0)
    return network


def _higher_order() -> Network:
    network = Network("higher_order")
    network.add({"A": 3}, {"B": 1}, 0.5)
    network.add({"A": 1, "B": 2}, {"C": 1}, 2.0)
    network.add({"A": 1, "B": 1, "C": 1}, {"D": 2}, 1.5)
    network.add({"A": 2, "D": 2}, {"A": 1}, 0.25)
    network.add({"C": 1}, {"A": 1, "B": 1}, 1.0)
    network.add({"A": 1, "C": 1}, "D", 3.0)
    network.add(None, {"A": 1}, 20.0)
    return network


MACHINES = {clocking: StochasticMachine(
    moving_average(2), seed=0, options=MachineOptions(clocking=clocking))
    for clocking in ("fixed", "adaptive")}
MA2 = MACHINES["fixed"].network
MA2_RATES = MACHINES["fixed"].simulator.kinetics.rates
MA2_INPUT = MA2.species_index(
    MACHINES["fixed"].circuit.source_species["x"]["p"])
RING = _ring()
HIGHER = _higher_order()


@st.composite
def systems(draw) -> tuple:
    """``(kind, network, rates, counts)``: rates with some exact zeros of
    either sign, and int64 initial counts."""
    kind = draw(st.sampled_from(["tiny", "small", "ma2", "ring", "higher"]))
    if kind in ("tiny", "small"):
        network, rates = _random(kind, draw(st.integers(0, 255)))
    else:
        network = {"ma2": MA2, "ring": RING, "higher": HIGHER}[kind]
        rates = MA2_RATES if kind == "ma2" else network.rate_vector(
            CONFORMANCE_SCHEME)
    rates = rates.copy()
    zeros = draw(st.lists(st.sampled_from([None, None, None, 0.0, -0.0]),
                          min_size=rates.size, max_size=rates.size))
    for j, zero in enumerate(zeros):
        if zero is not None:
            rates[j] = zero
    n_s = network.n_species
    if kind == "ma2":
        counts = np.rint(MA2.initial_vector()).astype(np.int64)
        counts[MA2_INPUT] += draw(st.integers(0, 80))
    else:
        spread = draw(st.sampled_from(["some", "all", "one"]))
        low = 1 if spread == "all" else 0
        counts = np.array(draw(st.lists(st.integers(low, 12), min_size=n_s,
                                        max_size=n_s)), dtype=np.int64)
        if spread == "one":
            keep = draw(st.integers(0, n_s - 1))
            counts[np.arange(n_s) != keep] = 0
            counts[keep] = max(counts[keep], 1)
    return kind, network, rates, counts


BIT_GENERATORS = st.sampled_from([np.random.PCG64, np.random.MT19937,
                                  np.random.Philox, np.random.SFC64])
# Busiest first: Hypothesis starts from, and shrinks toward, the first
# element, and a run that fires no event compares little.
INTERVALS = st.sampled_from([7, 1, 4096])
SPANS = st.sampled_from([2.0, 0.4, 0.05])
MAX_EVENTS = st.sampled_from([2000, 37])


# -- what a call leaves behind --------------------------------------------------

def _simulator(system, compiled, rng, interval) -> StochasticSimulator:
    _, network, rates, _ = system
    simulator = StochasticSimulator(network, rates=rates, seed=rng)
    simulator.propensity_state.rebuild_interval = interval
    if not compiled:
        simulator.propensity_state._native = False  # the twin runs
    return simulator


def _leftovers(simulator, compiled, outcome, rngs) -> dict:
    state = simulator.propensity_state
    assert bool(state._native) == compiled
    return {"outcome": outcome, "counts": state.counts.copy(),
            "a": state.a.copy(), "cb": state._cb.copy(),
            "since": state._events_since_rebuild,
            "next": [rng.random() for rng in rngs]}


def _bits(value) -> bytes:
    """The dtype, shape and bytes, with every NaN as one NaN: which
    operand of an addition a NaN result carries is the compiler's
    choice, so its sign and payload are not part of a value."""
    array = np.asarray(value)
    if array.dtype.kind == "f":
        array = np.where(np.isnan(array), np.nan, array)
    return repr((array.dtype, array.shape)).encode() + array.tobytes()


def _flat(outcome) -> list:
    """An outcome as comparable parts, every array as its bytes."""
    if isinstance(outcome, str):
        return [outcome]
    if isinstance(outcome, np.ndarray):
        return [_bits(outcome)]
    if isinstance(outcome, (tuple, list)):
        return [part for item in outcome for part in _flat(item)]
    return [repr((type(outcome), outcome))]


def _assert_same(compiled: dict, twin: dict) -> None:
    assert _flat(compiled["outcome"]) == _flat(twin["outcome"])
    for key in ("counts", "a", "cb"):
        assert _bits(compiled[key]) == _bits(twin[key]), key
    assert compiled["since"] == twin["since"]
    assert _bits(compiled["next"]) == _bits(twin["next"])


# -- repro_ssa_run ---------------------------------------------------------------

def _run(system, compiled, bit_generator, seed, interval, t_start, span,
         n_samples, max_events) -> dict:
    rng = np.random.Generator(bit_generator(seed))
    simulator = _simulator(system, compiled, rng, interval)
    try:
        trajectory = simulator.simulate(
            t_start + span, t_start=t_start, initial=system[3],
            n_samples=n_samples, max_events=max_events)
        outcome = (trajectory.times, trajectory.states,
                   trajectory.meta["events"])
    except SimulationError as exc:
        outcome = str(exc)
    return _leftovers(simulator, compiled, outcome, [rng])


@given(system=systems(), bit_generator=BIT_GENERATORS,
       seed=st.integers(0, 2**32 - 1), interval=INTERVALS,
       t_start=st.sampled_from([0.0, 1.5]),
       span=SPANS,
       n_samples=st.integers(2, 40), max_events=MAX_EVENTS)
@_fuzz()
def test_run_matches_the_twin(kernel, system, bit_generator, seed,
                              interval, t_start, span, n_samples,
                              max_events):
    args = (bit_generator, seed, interval, t_start, span, n_samples,
            max_events)
    _assert_same(_run(system, True, *args), _run(system, False, *args))


# -- repro_ssa_ensemble ----------------------------------------------------------

def _ensemble(system, compiled, seed, trials, interval, span, n_samples,
              max_events) -> dict:
    rngs = [np.random.default_rng([seed, k]) for k in range(3)]
    simulator = _simulator(system, compiled, rngs[0], interval)
    try:
        result = simulator.simulate_ensemble(
            span, [rngs[k] for k in trials], initial=system[3],
            n_samples=n_samples, max_events=max_events)
        outcome = (result.times, result.states, result.events)
    except SimulationError as exc:
        outcome = str(exc)
    return _leftovers(simulator, compiled, outcome, rngs)


@given(system=systems(), seed=st.integers(0, 2**32 - 1),
       trials=st.lists(st.integers(0, 2), min_size=1, max_size=4),
       interval=INTERVALS, span=SPANS,
       n_samples=st.integers(2, 40), max_events=MAX_EVENTS)
@_fuzz()
def test_ensemble_matches_the_twin(kernel, system, seed, trials, interval,
                                   span, n_samples, max_events):
    """Trials may repeat a generator, which then runs them in order."""
    args = (seed, trials, interval, span, n_samples, max_events)
    _assert_same(_ensemble(system, True, *args),
                 _ensemble(system, False, *args))


# -- repro_ssa_poll --------------------------------------------------------------

@st.composite
def tables(draw, system) -> tuple[MarginTable, MarginTable]:
    """A departure and a closing table: the machine's own on ``ma2``
    when drawn, else terms over drawn species with thresholds near the
    initial counts' totals."""
    kind, network, _, counts = system
    if kind == "ma2" and draw(st.booleans()):
        machine = MACHINES[draw(st.sampled_from(sorted(MACHINES)))]
        return machine.template.departure, machine._closing_table(
            float(draw(st.integers(0, 80))))

    def term():
        species = draw(st.lists(st.integers(0, network.n_species - 1),
                                min_size=1, max_size=3, unique=True))
        species = np.array(sorted(species))
        weights = np.array(draw(st.lists(st.sampled_from([1.0, 2.0]),
                                         min_size=species.size,
                                         max_size=species.size)))
        total = float(weights @ counts[species])
        return (species, weights, total + draw(st.integers(-2, 2)),
                draw(st.sampled_from([1, -1])))

    closing = [term() for _ in range(draw(st.integers(1, 2)))]
    return MarginTable([term()]), MarginTable(closing)


def _poll(system, compiled, departure, closing, seed, interval, grid,
          chunks, keep, departed, until, calls, max_events) -> dict:
    rng = np.random.default_rng(seed)
    simulator = _simulator(system, compiled, rng, interval)
    counts, t, outcome = system[3], 0.0, []
    try:
        for _ in range(calls):
            poll = simulator.poll(counts, grid, departure, closing, t=t,
                                  departed=departed, until=until,
                                  chunks=chunks, keep=keep,
                                  max_events=max_events)
            outcome.append(tuple(poll))
            counts, t, departed = poll.counts, poll.t, poll.departed
    except SimulationError as exc:
        outcome.append(str(exc))
    return _leftovers(simulator, compiled, outcome, [rng])


@given(data=st.data(), system=systems(), seed=st.integers(0, 2**32 - 1),
       interval=INTERVALS, span=st.sampled_from([1.0, 0.25]),
       n_grid=st.integers(2, 20), chunks=st.sampled_from([3, 81, 1]),
       keep=st.booleans(), departed=st.booleans(),
       until=st.sampled_from([(), ((0.0, 0.6),),
                              ((0.5, 0.6), (0.0, 20.0))]),
       calls=st.integers(1, 3), max_events=MAX_EVENTS)
@_fuzz()
def test_poll_matches_the_twin(kernel, data, system, seed, interval, span,
                               n_grid, chunks, keep, departed, until, calls,
                               max_events):
    departure, closing = data.draw(tables(system))
    grid = np.linspace(0.0, span, n_grid)
    args = (departure, closing, seed, interval, grid, chunks, keep,
            departed, until, calls, max_events)
    _assert_same(_poll(system, True, *args), _poll(system, False, *args))


# -- the loop's zero-factor table ---------------------------------------------------

def _other_slots(kinetics) -> list[int]:
    """``dep_other`` by its definition: for each dependent ``i`` of each
    reaction ``j``, the species of an ``X + Y`` reactant pair that ``j``
    leaves alone, else the constant slot ``n_species``."""
    ptr, rows = kinetics.dependency_csr()
    fire_ptr, fire_species, _ = kinetics.fire_csr()
    slots = []
    for j in range(kinetics.n_reactions):
        changed = set(fire_species[fire_ptr[j]:fire_ptr[j + 1]].tolist())
        for i in rows[ptr[j]:ptr[j + 1]]:
            reactants = kinetics._reactant_lists[i]
            pair = len(reactants) == 2 and all(e == 1 for _, e in reactants)
            alone = [s for s, _ in reactants if s not in changed]
            slots.append(alone[0] if pair and len(alone) == 1
                         else kinetics.n_species)
    return slots


@given(system=systems())
@_fuzz()
def test_the_zero_factor_table_names_an_untouched_factor(system):
    """Any factor of a +0.0 propensity that is 0 keeps it +0.0, so a
    table naming the changed factor would give the same bits; it would
    only skip less.  This holds the table to its definition."""
    _, network, rates, _ = system
    kinetics = build_kinetics(network, rates=rates)
    packed, _, offsets = _index_buffer(kinetics)
    start = offsets["dep_other"]
    table = packed[start:start + kinetics.dependency_csr()[1].size]
    assert table.tolist() == _other_slots(kinetics)


# -- repro_rhs and repro_jacobian --------------------------------------------------

VALUES = st.one_of(st.sampled_from([0.0, -0.0, -1.5, np.nan, np.inf]),
                   st.floats(0.0, 50.0))


@given(data=st.data(), system=systems())
@_fuzz()
def test_rhs_and_jacobian_match_the_twins(kernel, data, system):
    _, network, rates, _ = system
    kinetics = build_kinetics(network, rates=rates)
    x = np.array(data.draw(st.lists(VALUES, min_size=network.n_species,
                                    max_size=network.n_species)))
    with np.errstate(invalid="ignore", over="ignore"):
        assert _bits(kinetics.rhs(0.0, x)) == \
            _bits(kinetics.rhs_numpy(0.0, x))
        assert _bits(kinetics.jacobian(0.0, x)) == \
            _bits(kinetics.jacobian_numpy(0.0, x))
    assert kinetics._kernel

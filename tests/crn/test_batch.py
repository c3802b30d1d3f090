"""Seeded SSA ensembles in one call (``simulate_ensemble``).

The contract under test is *bitwise* equivalence: trial ``k`` of
:meth:`StochasticSimulator.simulate_ensemble` must reproduce the
independent :class:`StochasticSimulator` realisation on the same seed
exactly -- states, sample grid and event count -- so ensemble means,
cached baselines and seeded corpora stay valid whichever path runs
them.  The compiled-vs-twin checks of the ensemble loop live in
``test_native_ssa.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.conformance.generator import BUDGETS, generate_targets
from repro.crn.network import Network
from repro.crn.simulation import (EnsembleResult, SimulationOptions,
                                  simulate)
from repro.crn.simulation.ssa import ENSEMBLE_CHUNK_RUNS, StochasticSimulator
from repro.crn.simulation.tau_leaping import TauLeapingSimulator
from repro.errors import SimulationError


def _chain(x0=40):
    network = Network()
    network.add("A", "B", 2.0)
    network.add({"B": 2}, "C", 0.7)
    network.add({}, "A", 1.5)
    network.set_initial("A", x0)
    return network


def _decay(x0=30):
    network = Network()
    network.add("A", "B", 1.0)
    network.set_initial("A", x0)
    return network


def _reference_runs(network, seeds, t_final, n_samples=40, rates=None,
                    volume=1.0, initial=None, t_start=0.0):
    runs = []
    for seed in seeds:
        simulator = StochasticSimulator(
            network, rates=rates, volume=volume,
            seed=np.random.default_rng(seed))
        runs.append(simulator.simulate(t_final, n_samples=n_samples,
                                       initial=initial, t_start=t_start))
    return runs


def _assert_trials_match(ensemble, runs):
    assert len(ensemble) == len(runs)
    for i, run in enumerate(runs):
        trial = ensemble.trial(i)
        assert np.array_equal(trial.times, run.times)
        assert np.array_equal(trial.states, run.states)
        assert trial.meta["events"] == run.meta["events"]


class TestBitwiseEquivalence:
    def test_chain_network_matches_reference(self):
        network = _chain()
        seeds = np.random.SeedSequence(42).spawn(24)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            3.0, seeds, n_samples=40)
        _assert_trials_match(
            ensemble, _reference_runs(network, seeds, 3.0))

    def test_absorbing_network_matches_reference(self):
        seeds = np.random.SeedSequence(7).spawn(16)
        network = _decay(x0=5)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            50.0, seeds, n_samples=25)
        runs = _reference_runs(network, seeds, 50.0, n_samples=25)
        _assert_trials_match(ensemble, runs)
        a = network.species_names.index("A")
        assert np.all(ensemble.states[:, -1, a] == 0)
        assert np.all(ensemble.events == 5)

    @pytest.mark.parametrize("budget_name", ["tiny", "small"])
    def test_generator_corpus_matches_reference(self, budget_name):
        """Every stochastic conformance-generator target's ensemble is
        bitwise the independent runs on the same seeds."""
        budget = BUDGETS[budget_name]
        checked = 0
        for index, target in enumerate(generate_targets(budget, seed=3)):
            if not target.stochastic:
                continue
            rates = target.network.rate_vector(target.scheme)
            seeds = np.random.SeedSequence([3, index]).spawn(4)
            t_final = min(target.t_final, 1.0)
            try:
                runs = _reference_runs(target.network, seeds, t_final,
                                       n_samples=17, rates=rates)
                ensemble = StochasticSimulator(
                    target.network, rates=rates).simulate_ensemble(
                        t_final, seeds, n_samples=17)
            except SimulationError:
                continue  # over the event budget for a test-sized run
            _assert_trials_match(ensemble, runs)
            checked += 1
        assert checked >= 1

    def test_t_start_shift_matches_reference(self):
        network = _chain()
        seeds = np.random.SeedSequence(5).spawn(6)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            4.0, seeds, t_start=1.0, n_samples=33)
        _assert_trials_match(ensemble, _reference_runs(
            network, seeds, 4.0, n_samples=33, t_start=1.0))

    def test_shared_initial_and_volume_match_reference(self):
        network = _chain()
        seeds = np.random.SeedSequence(9).spawn(6)
        ensemble = StochasticSimulator(
            network, volume=2.5).simulate_ensemble(
                2.0, seeds, initial={"A": 25}, n_samples=21)
        _assert_trials_match(ensemble, _reference_runs(
            network, seeds, 2.0, n_samples=21, volume=2.5,
            initial={"A": 25}))

    def test_mean_matches_mean_trajectory_serial_and_pooled(self):
        """``mean_trajectory`` is the chunked, left-to-right sum of
        ensemble calls over the root seed's spawned seeds, for SSA and
        for tau-leaping, which inherits it."""
        network = _chain()
        n_runs = 24
        seeds = np.random.SeedSequence(17).spawn(n_runs)
        for engine in (StochasticSimulator, TauLeapingSimulator):
            simulator = engine(network)
            partials = [
                simulator.simulate_ensemble(
                    2.0, seeds[i:i + ENSEMBLE_CHUNK_RUNS], n_samples=31)
                for i in range(0, n_runs, ENSEMBLE_CHUNK_RUNS)]
            total = partials[0].summed_states()
            for partial in partials[1:]:
                total += partial.summed_states()
            events = sum(int(partial.events.sum()) for partial in partials)
            mean = engine(network, seed=17).mean_trajectory(
                2.0, n_runs=n_runs, n_samples=31)
            assert np.array_equal(mean.states, total / n_runs), engine
            assert mean.meta == {"n_runs": n_runs, "events": events}


class TestFacadeRouting:
    def test_backend_batch_matches_reference(self):
        """``backend`` is validated and selects nothing."""
        network = _chain()
        options = SimulationOptions(seed=np.random.default_rng(7))
        reference = simulate(network, 2.0, "ssa", options=options)
        options = SimulationOptions(seed=np.random.default_rng(7),
                                    backend="batch")
        batch = simulate(network, 2.0, "ssa", options=options)
        assert np.array_equal(batch.states, reference.states)
        assert batch.meta["events"] == reference.meta["events"]

    def test_backend_batch_ode_delegates_to_reference(self):
        network = _chain()
        reference = simulate(network, 2.0, "ode")
        batch = simulate(network, 2.0, "ode",
                         options=SimulationOptions(backend="batch"))
        assert np.array_equal(batch.states, reference.states)

    def test_unknown_backend_raises(self):
        with pytest.raises(SimulationError, match="backend"):
            simulate(_chain(), 1.0, "ssa",
                     options=SimulationOptions(backend="gpu"))


class TestEnsembleSemantics:
    def test_max_events_raises_with_trial_index(self):
        network = _chain(x0=200)
        seeds = np.random.SeedSequence(1).spawn(4)
        with pytest.raises(SimulationError, match="ensemble trial 0"):
            StochasticSimulator(network).simulate_ensemble(
                5.0, seeds, max_events=10)

    def test_n_trials_spawning_matches_explicit_root(self):
        """``mean_trajectory`` spawns its trials' seeds from the
        simulator's root seed."""
        network = _chain()
        mean = StochasticSimulator(network, seed=3).mean_trajectory(
            1.0, n_runs=5, n_samples=11)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            1.0, np.random.SeedSequence(3).spawn(5), n_samples=11)
        assert np.array_equal(mean.states, ensemble.summed_states() / 5)
        assert mean.meta["events"] == int(ensemble.events.sum())

    def test_invalid_ensemble_arguments(self):
        simulator = StochasticSimulator(_chain())
        with pytest.raises(SimulationError, match="non-empty"):
            simulator.simulate_ensemble(1.0, [])
        with pytest.raises(SimulationError, match="t_final"):
            simulator.simulate_ensemble(
                0.0, np.random.SeedSequence(0).spawn(2))


# -- absorbing and horizon properties (hypothesis) -------------------------

_FREEZE_SETTINGS = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


class TestFreezeProperties:
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_trials=st.integers(min_value=1, max_value=10),
           x0=st.integers(min_value=0, max_value=25))
    @_FREEZE_SETTINGS
    def test_absorbed_trials_stay_absorbed(self, seed, n_trials, x0):
        """Once a trial's total propensity hits zero it is frozen: the
        recorded tail repeats the absorbing state and no further events
        fire, whatever the other trials still do."""
        network = _decay(x0=x0)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            200.0, np.random.SeedSequence(seed).spawn(n_trials),
            n_samples=15)
        a = ensemble.states[:, :, network.species_names.index("A")]
        assert np.all(np.diff(a, axis=1) <= 0)
        for i in range(n_trials):
            assert ensemble.events[i] == x0 - a[i, -1]
            frozen = np.nonzero(a[i] == 0)[0]
            if frozen.size:
                assert np.all(a[i, frozen[0]:] == 0)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1),
           n_trials=st.integers(min_value=1, max_value=8))
    @_FREEZE_SETTINGS
    def test_no_post_horizon_events(self, seed, n_trials):
        """A trial stops at ``t_final``: extending the horizon with the
        same seeds replays the short ensemble's samples exactly (prefix
        property), so no short-run trial can have consumed post-horizon
        draws."""
        network = _chain(x0=15)
        seeds = np.random.SeedSequence(seed).spawn(n_trials)
        simulator = StochasticSimulator(network)
        short = simulator.simulate_ensemble(1.0, seeds, n_samples=11)
        long = simulator.simulate_ensemble(2.0, seeds, n_samples=21)
        # The grids share their first ten points bitwise (the short
        # grid's final point is forced to exactly 1.0 by linspace, so
        # it is excluded from the prefix comparison).
        assert np.array_equal(long.times[:10], short.times[:10])
        assert np.array_equal(long.states[:, :10], short.states[:, :10])
        assert np.all(long.events >= short.events)

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @_FREEZE_SETTINGS
    def test_trial_views_match_bulk_arrays(self, seed):
        network = _chain(x0=10)
        ensemble = StochasticSimulator(network).simulate_ensemble(
            1.0, np.random.SeedSequence(seed).spawn(4), n_samples=9)
        for i in range(len(ensemble)):
            trial = ensemble.trial(i)
            assert np.array_equal(trial.states, ensemble.states[i])
            assert trial.meta["events"] == ensemble.events[i]


# -- ensemble chunk grid validation ----------------------------------------

class _VaryingGridSimulator(StochasticSimulator):
    """An engine whose ensembles' sample grids drift between calls."""

    calls = 0

    def simulate_ensemble(self, t_final, seeds, n_samples=10, **kwargs):
        cls = type(self)
        size = n_samples + cls.calls
        cls.calls += 1
        states = np.zeros((len(seeds), size, len(self.network.species_names)))
        return EnsembleResult(np.linspace(0.0, t_final, size), states,
                              self.network.species_names,
                              np.zeros(len(seeds), dtype=np.int64))


class TestChunkGridValidation:
    def test_mismatched_run_grid_raises_with_index(self):
        """A chunk whose ensemble comes back on another grid is refused,
        naming the chunk."""
        _VaryingGridSimulator.calls = 0
        simulator = _VaryingGridSimulator(_decay(), seed=0)
        with pytest.raises(SimulationError,
                           match="chunk 1 .*misaligned"):
            simulator.mean_trajectory(1.0, n_runs=3 * ENSEMBLE_CHUNK_RUNS,
                                      n_samples=10)

    def test_cross_chunk_mismatch_raises_with_chunk_index(self,
                                                          monkeypatch):
        grids = iter([np.linspace(0.0, 1.0, 5),
                      np.linspace(0.0, 1.0, 7)])

        def fake_ensemble(self, t_final, seeds, **kwargs):
            times = next(grids)
            states = np.zeros((len(seeds), times.size, 2))
            return EnsembleResult(times, states, self.network.species_names,
                                  np.zeros(len(seeds), dtype=np.int64))

        monkeypatch.setattr(StochasticSimulator, "simulate_ensemble",
                            fake_ensemble)
        simulator = StochasticSimulator(_decay(), seed=0)
        with pytest.raises(SimulationError,
                           match="chunk 1 .*misaligned"):
            simulator.mean_trajectory(1.0, n_runs=16, n_samples=5)


class TestEnsembleResult:
    def test_summed_states_matches_left_associated_sum(self):
        network = _chain()
        ensemble = StochasticSimulator(network).simulate_ensemble(
            1.0, np.random.SeedSequence(2).spawn(9), n_samples=7)
        expected = ensemble.states[0].copy()
        for i in range(1, 9):
            expected += ensemble.states[i]
        assert np.array_equal(ensemble.summed_states(), expected)

    def test_len_and_meta(self):
        ensemble = StochasticSimulator(_decay()).simulate_ensemble(
            1.0, np.random.SeedSequence(1).spawn(3), n_samples=5)
        assert len(ensemble) == 3
        assert isinstance(ensemble, EnsembleResult)
        assert ensemble.states.shape == (3, 5, 2)
        assert ensemble.events.dtype == np.int64

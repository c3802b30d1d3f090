"""Fault models and plans: hooks, determinism, the species contract."""

import numpy as np
import pytest

from repro import parse_network
from repro.crn.rates import RateScheme
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.errors import FaultError
from repro.faults import (ClockGlitch, CopyNumberNoise, Dilution,
                          FaultModel, FaultPlan, Leak, RateMismatch,
                          SeparationCompression, SpeciesDeletion)


@pytest.fixture
def network():
    return parse_network("""
        network: faults_demo
        A -> B @ fast
        B -> C @ slow
        init A = 12
        init B = 3
    """)


SCHEME = RateScheme()


class TestModels:
    def test_rate_mismatch_perturbs_every_rate(self, network):
        setup = FaultPlan([RateMismatch(sigma=0.25)],
                          seed=1).materialize(network, SCHEME)
        nominal = network.rate_vector(SCHEME)
        assert setup.rates is not None
        assert np.all(setup.rates > 0)
        assert np.all(setup.rates != nominal)

    def test_separation_compression_rescales_fast_only(self, network):
        setup = FaultPlan([SeparationCompression(factor=10.0)],
                          seed=1).materialize(network, SCHEME)
        assert setup.scheme.fast == pytest.approx(SCHEME.fast / 10.0)
        assert setup.scheme.slow == pytest.approx(SCHEME.slow)

    def test_leak_adds_one_source_per_signal_species(self, network):
        setup = FaultPlan([Leak(rate=1e-3)],
                          seed=1).materialize(network, SCHEME)
        added = setup.network.n_reactions - network.n_reactions
        assert added == network.n_species  # all roles default to signal
        assert network.n_reactions == 2    # input untouched

    def test_dilution_decays_every_species(self, network):
        setup = FaultPlan([Dilution(rate=1e-4)],
                          seed=1).materialize(network, SCHEME)
        added = setup.network.n_reactions - network.n_reactions
        assert added == network.n_species

    def test_copy_number_noise_moves_nonzero_initials(self, network):
        setup = FaultPlan([CopyNumberNoise(sigma=0.1)],
                          seed=1).materialize(network, SCHEME)
        nominal = network.initial_vector()
        nonzero = nominal > 0
        assert np.all(setup.initial[nonzero] != nominal[nonzero])
        assert np.all(setup.initial[~nonzero] == 0)
        # The perturbed quantities are written back into the network.
        np.testing.assert_array_equal(setup.network.initial_vector(),
                                      setup.initial)

    def test_species_deletion_named_victim(self, network):
        setup = FaultPlan([SpeciesDeletion(species="A")],
                          seed=1).materialize(network, SCHEME)
        assert setup.initial[network.species_index("A")] == 0.0
        assert setup.initial[network.species_index("B")] == 3.0

    def test_species_deletion_random_victim_is_seeded(self, network):
        picks = [FaultPlan([SpeciesDeletion()], seed=9).materialize(
            network, SCHEME).initial.tolist() for _ in range(2)]
        assert picks[0] == picks[1]

    def test_clock_glitch_hits_only_its_cycle(self, network):
        network.add_species(Species("C_red", role="clock"))
        network.set_initial("C_red", 20.0)
        plan = FaultPlan([ClockGlitch(cycle=2, fraction=0.5)], seed=1)
        plan.materialize(network, SCHEME)
        state = network.initial_vector()
        index = network.species_index("C_red")
        same = plan.on_boundary(1, state, network)
        assert same[index] == 20.0
        hit = plan.on_boundary(2, state, network)
        assert hit[index] == pytest.approx(10.0)
        # Non-clock species untouched.
        assert hit[network.species_index("A")] == 12.0

    def test_negative_parameters_rejected(self, network):
        for model in (RateMismatch(sigma=-1.0), Leak(rate=-1.0),
                      Dilution(rate=-1.0), CopyNumberNoise(sigma=-1.0)):
            with pytest.raises(FaultError):
                FaultPlan([model], seed=0).materialize(network, SCHEME)

    def test_describe_reports_kind_and_parameters(self):
        payload = RateMismatch(sigma=0.3).describe()
        assert payload == {"kind": "rate_mismatch", "sigma": 0.3}


class _SpeciesAdder(FaultModel):
    kind = "species_adder"

    def perturb_network(self, network, scheme, rng):
        rogue = Species("ROGUE")
        network.add_species(rogue)
        network.add_reaction(Reaction({}, {rogue: 1}, 1.0))


class _NegativeInitial(FaultModel):
    kind = "negative_initial"

    def perturb_initial(self, initial, network, rng):
        initial = initial.copy()
        initial[0] = -1.0
        return initial


class TestPlanContract:
    def test_adding_species_is_rejected(self, network):
        with pytest.raises(FaultError, match="must not add or remove"):
            FaultPlan([_SpeciesAdder()], seed=0).materialize(
                network, SCHEME)

    def test_negative_initial_is_rejected(self, network):
        with pytest.raises(FaultError, match="non-negative"):
            FaultPlan([_NegativeInitial()], seed=0).materialize(
                network, SCHEME)

    def test_non_model_is_rejected(self):
        with pytest.raises(FaultError, match="not a fault model"):
            FaultPlan(["leak"], seed=0)

    def test_input_network_is_never_mutated(self, network):
        before = network.n_reactions
        FaultPlan([Leak(rate=1e-3), Dilution(rate=1e-4)],
                  seed=0).materialize(network, SCHEME)
        assert network.n_reactions == before

    def test_same_seed_same_perturbation(self, network):
        models = (RateMismatch(0.25), CopyNumberNoise(0.1))
        a = FaultPlan(models, seed=42).materialize(network, SCHEME)
        b = FaultPlan(models, seed=42).materialize(network, SCHEME)
        np.testing.assert_array_equal(a.rates, b.rates)
        np.testing.assert_array_equal(a.initial, b.initial)

    def test_different_seed_different_perturbation(self, network):
        models = (RateMismatch(0.25),)
        a = FaultPlan(models, seed=1).materialize(network, SCHEME)
        b = FaultPlan(models, seed=2).materialize(network, SCHEME)
        assert not np.array_equal(a.rates, b.rates)

    def test_caller_rates_extended_for_fault_reactions(self, network):
        rates = network.rate_vector(SCHEME) * 2.0
        setup = FaultPlan([Leak(rate=1e-3)], seed=0).materialize(
            network, SCHEME, rates=rates)
        assert setup.rates.shape == (setup.network.n_reactions,)
        np.testing.assert_array_equal(setup.rates[:rates.size], rates)

    def test_listed_duplicate_keeps_caller_rates_aligned(self):
        doubled = parse_network("""
            network: listed_twice
            A -> B @ fast
            A -> B @ fast
            B -> A @ slow
            init A = 5
        """)
        rates = np.array([1.0, 2.0, 3.0])
        setup = FaultPlan([], seed=0).materialize(doubled, SCHEME,
                                                  rates=rates)
        assert setup.network.reactions == doubled.reactions
        np.testing.assert_array_equal(setup.rates, rates)

    def test_empty_plan_is_inactive(self, network):
        plan = FaultPlan([], seed=0)
        assert not plan.active
        setup = plan.materialize(network, SCHEME)
        assert setup.rates is None
        assert setup.network.n_reactions == network.n_reactions

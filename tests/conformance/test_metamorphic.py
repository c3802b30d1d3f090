"""Tests for the metamorphic invariant battery.

Two directions: the checks must *pass* on the real engines over a known
well-behaved network, and they must *fail* when pointed at a
deliberately broken engine -- otherwise the harness is a rubber stamp.
"""

import numpy as np

from repro.conformance.generator import (CONFORMANCE_SCHEME, Target,
                                        random_network)
from repro.conformance.metamorphic import (ENGINE_SPECS, compare_states,
                                           check_canonical_form,
                                           check_conservation,
                                           check_duplicate_merge,
                                           check_permutation,
                                           check_rate_rescale,
                                           check_t_shift,
                                           duplicate_reaction,
                                           permute_species)
from repro.crn.network import Network
from repro.crn.simulation.result import Trajectory


def _network() -> Network:
    """A + B <-> C with a slow decay: conserved totals, mild dynamics."""
    network = Network("meta_fixture")
    for name in ("A", "B", "C"):
        network.add_species(name)
    network.add({"A": 1, "B": 1}, {"C": 1}, 2.0)
    network.add({"C": 1}, {"A": 1, "B": 1}, 1.0)
    network.set_initial("A", 6.0)
    network.set_initial("B", 4.0)
    network.set_initial("C", 1.0)
    return network


def _target() -> Target:
    return Target("fixture", _network(), CONFORMANCE_SCHEME, t_final=1.0)


class _BrokenEngine:
    """An 'engine' whose output depends on the absolute time axis and
    ignores the supplied rate vector -- every covariance check must
    catch it."""

    name = "broken"
    exact = False

    def run(self, network, t_final, scheme, *, seed=None, rates=None,
            t_start=0.0, **_):
        times = np.linspace(t_start, t_start + t_final, 33)
        states = np.column_stack(
            [times + float(i) for i in range(network.n_species)])
        return Trajectory(times, states,
                          [s.name for s in network.species])


class TestChecksPassOnRealEngines:
    def test_all_engines_satisfy_invariants(self):
        target = _target()
        for engine in (ENGINE_SPECS["ode"], ENGINE_SPECS["ssa"],
                       ENGINE_SPECS["tau"]):
            for check in (check_permutation, check_rate_rescale,
                          check_t_shift, check_conservation):
                result = check(target, engine, seed=7)
                assert result.status == "pass", \
                    f"{result.check} [{engine.name}]: {result.detail}"

    def test_duplicate_merge_on_ode_and_skip_on_exact(self):
        target = _target()
        assert check_duplicate_merge(target, ENGINE_SPECS["ode"],
                                     seed=7).status == "pass"
        assert check_duplicate_merge(target, ENGINE_SPECS["ssa"],
                                     seed=7).status == "skip"


class TestChecksCatchBrokenEngine:
    def test_t_shift_flags_absolute_time_dependence(self):
        result = check_t_shift(_target(), _BrokenEngine(), seed=7)
        assert result.failed

    def test_rate_rescale_flags_ignored_rates(self):
        result = check_rate_rescale(_target(), _BrokenEngine(), seed=7)
        assert result.failed

    def test_conservation_flags_nonconserving_dynamics(self):
        result = check_conservation(_target(), _BrokenEngine(), seed=7)
        assert result.failed


class TestTransformsAndComparison:
    def test_permute_species_preserves_content(self):
        network = _network()
        permuted = permute_species(network, np.array([2, 0, 1]))
        assert [s.name for s in permuted.species] == ["C", "A", "B"]
        assert permuted.n_reactions == network.n_reactions
        assert permuted.initial == network.initial

    def test_duplicate_reaction_bypasses_dedup(self):
        network = _network()
        doubled = duplicate_reaction(network, 0)
        assert doubled.n_reactions == network.n_reactions + 1

    def test_duplicate_reaction_on_a_listed_duplicate(self):
        """``random`` seed 5 lists one reaction twice; doubling any
        reaction must keep both copies and move the canonical hash."""
        network = random_network(5)
        assert len(set(network.reactions)) < network.n_reactions
        for index in range(network.n_reactions):
            doubled = duplicate_reaction(network, index)
            assert doubled.reactions[:-1] == network.reactions
            assert doubled.canonical_hash() != network.canonical_hash()
        target = Target("random:5", network, CONFORMANCE_SCHEME,
                        t_final=1.0)
        for seed in range(3):
            for check in (check_duplicate_merge, check_canonical_form):
                result = check(target, ENGINE_SPECS["ode"], seed=seed)
                assert result.status == "pass", result.detail

    def test_compare_states_exact_and_tolerant(self):
        a = np.zeros((4, 2))
        b = a.copy()
        b[2, 1] = 1e-5
        assert compare_states(a, a.copy(), exact=True) is None
        assert compare_states(a, b, exact=True) is not None
        assert compare_states(a, b, exact=False) is None
        b[2, 1] = 1.0
        assert compare_states(a, b, exact=False) is not None

    def test_compare_states_row_allowance(self):
        a = np.zeros((10, 1))
        b = a.copy()
        b[3, 0] = 1.0
        assert compare_states(a, b, exact=True,
                              max_mismatch_fraction=0.2) is None
        assert compare_states(a, b, exact=True) is not None

"""Golden tests: compiled sparse kinetics vs the dense reference.

:class:`MassActionKinetics` compiles order-grouped index arrays so the
hot paths run as a handful of vector operations.  The straightforward
triple-loop :class:`DenseKineticsReference` exists purely as the golden
implementation; these tests pin the compiled paths to it at 1e-12 over
every example network in the repository plus synthesized machine
networks, on random states including exact zeros.
"""

from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from repro.core.synthesis import synthesize
from repro.crn.kinetics import DenseKineticsReference, build_kinetics
from repro.crn.parser import parse_network
from repro.crn.rates import RateScheme

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[2] / "examples").glob("*.crn"))

TOL = dict(rtol=1e-12, atol=1e-12)


def _machine_networks():
    from repro.core.dfg import SignalFlowGraph

    ma2 = SignalFlowGraph("ma2")
    x = ma2.input("x")
    d1 = ma2.delay("d1")
    ma2.output("y", ma2.add(ma2.gain(Fraction(1, 2), x),
                            ma2.gain(Fraction(1, 2), d1)))
    ma2.connect(x, d1)

    iir1 = SignalFlowGraph("iir1")
    x = iir1.input("x")
    s = iir1.delay("s")
    y = iir1.add(iir1.gain(Fraction(1, 2), x), iir1.gain(Fraction(1, 2), s))
    iir1.output("y", y)
    iir1.connect(y, s)

    return [synthesize(ma2).network, synthesize(iir1).network]


def _all_networks():
    networks = [(path.stem, parse_network(path.read_text(), path.stem))
                for path in EXAMPLES]
    networks += [(network.name or f"machine{i}", network)
                 for i, network in enumerate(_machine_networks())]
    return networks


def _states(network, rng):
    n = network.n_species
    base = rng.uniform(0.0, 30.0, size=n)
    zeros = base.copy()
    zeros[rng.integers(0, n, size=max(n // 3, 1))] = 0.0
    return [base, zeros, np.zeros(n), np.full(n, 1.0)]


@pytest.mark.parametrize(("name", "network"), _all_networks(),
                         ids=lambda value: value if isinstance(value, str)
                         else "")
class TestDenseSparseEquivalence:
    def test_rates_rhs_jacobian_match_reference(self, name, network):
        kinetics = build_kinetics(network, RateScheme())
        reference = DenseKineticsReference(network, kinetics.rates)
        rng = np.random.default_rng(hash(name) % (2 ** 32))
        for x in _states(network, rng):
            np.testing.assert_allclose(
                kinetics.reaction_rates(x),
                reference.reaction_rates(x), **TOL)
            np.testing.assert_allclose(
                kinetics.rhs(0.0, x), reference.rhs(0.0, x), **TOL)
            np.testing.assert_allclose(
                kinetics.jacobian(0.0, x), reference.jacobian(0.0, x),
                **TOL)

    def test_sparsity_pattern_covers_nonzeros(self, name, network):
        kinetics = build_kinetics(network, RateScheme())
        pattern = np.asarray(kinetics.jacobian_sparsity()) != 0
        rng = np.random.default_rng(0)
        for x in _states(network, rng):
            nonzero = kinetics.jacobian(0.0, x) != 0.0
            assert np.all(pattern | ~nonzero), \
                "jacobian entry outside declared sparsity pattern"

    def test_propensities_match_reference(self, name, network):
        kinetics = build_kinetics(network, RateScheme())
        reference = DenseKineticsReference(network, kinetics.rates)
        constants = kinetics.stochastic_constants(volume=1.0)
        rng = np.random.default_rng(7)
        for _ in range(4):
            counts = rng.integers(0, 25, size=network.n_species)
            np.testing.assert_allclose(
                kinetics.propensities(counts, constants),
                reference.propensities(counts, constants), **TOL)


class TestReactionDependencies:
    def test_dependencies_cover_every_firing(self):
        """Firing reaction j may only change the propensities the
        dependency graph lists for j."""
        for name, network in _all_networks():
            kinetics = build_kinetics(network, RateScheme())
            constants = kinetics.stochastic_constants(volume=1.0)
            deps = kinetics.reaction_dependencies()
            rng = np.random.default_rng(11)
            counts = rng.integers(2, 20, size=network.n_species)
            base = kinetics.propensities(counts, constants).copy()
            for j in range(network.n_reactions):
                fired = counts + kinetics.stoich[:, j]
                changed = set(np.nonzero(np.abs(
                    kinetics.propensities(fired, constants)
                    - base) > 1e-12)[0].tolist())
                listed = set(int(i) for i in deps[j])
                assert changed <= listed, (
                    f"{name}: firing reaction {j} changes propensities "
                    f"{sorted(changed - listed)} missing from the "
                    f"dependency graph")

    def test_boolean_product_matches_the_per_reaction_loop(self):
        """The one-product graph is the per-reaction loop it replaced,
        array for array, on the corpus and scenario networks too."""
        from repro.scenarios import get_scenario, scenario_names

        corpus = sorted((EXAMPLES[0].parents[1] / "tests" / "conformance"
                         / "corpus").glob("*.crn"))
        networks = [network for _, network in _all_networks()]
        networks += [parse_network(path.read_text(), path.stem)
                     for path in corpus]
        networks += [get_scenario(name).network()
                     for name in scenario_names(tag="network")]
        assert len(networks) > len(EXAMPLES) + len(corpus)
        for network in networks:
            kinetics = build_kinetics(network, RateScheme())
            reactant_mask = kinetics.exponents != 0
            expected = []
            for j in range(kinetics.n_reactions):
                changed = np.nonzero(kinetics.stoich[:, j])[0]
                if changed.size == 0:
                    expected.append(np.empty(0, dtype=np.intp))
                else:
                    affected = reactant_mask[:, changed].any(axis=1)
                    expected.append(np.nonzero(affected)[0].astype(np.intp))
            got = kinetics.reaction_dependencies()
            assert len(got) == len(expected)
            for have, want in zip(got, expected):
                assert have.dtype == want.dtype
                assert np.array_equal(have, want)

"""Integration tests for the rate-independent combinational modules."""

from fractions import Fraction

import pytest

from repro import simulate
from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.ode import OdeSimulator
from repro.core import modules
from repro.errors import NetworkError


def _settle(network, t=80.0, scheme=None):
    return simulate(network, t, scheme=scheme, n_samples=30)


class TestMoveAndDuplicate:
    def test_move(self):
        network = Network()
        modules.move(network, "A", "B")
        network.set_initial("A", 6.0)
        assert _settle(network).final("B") == pytest.approx(6.0, rel=1e-4)

    def test_duplicate_equal_copies(self):
        network = Network()
        modules.duplicate(network, "A", ["B", "C", "D"])
        network.set_initial("A", 5.0)
        final = _settle(network).final_state()
        for name in "BCD":
            assert final[name] == pytest.approx(5.0, rel=1e-4)

    def test_duplicate_needs_two_targets(self):
        with pytest.raises(NetworkError):
            modules.duplicate(Network(), "A", ["B"])


class TestAdd:
    def test_two_operands(self):
        network = Network()
        modules.add(network, ["A", "B"], "S")
        network.set_initial("A", 3.0)
        network.set_initial("B", 4.5)
        assert _settle(network).final("S") == pytest.approx(7.5, rel=1e-4)

    def test_three_operands(self):
        network = Network()
        modules.add(network, ["A", "B", "C"], "S")
        for name, value in [("A", 1.0), ("B", 2.0), ("C", 3.0)]:
            network.set_initial(name, value)
        assert _settle(network).final("S") == pytest.approx(6.0, rel=1e-4)


class TestScale:
    @pytest.mark.parametrize("factor,x,expected", [
        (Fraction(3, 1), 4.0, 12.0),
        (Fraction(1, 2), 12.0, 6.0),
        (Fraction(3, 4), 12.0, 9.0),
        (Fraction(2, 3), 9.0, 6.0),
        (Fraction(5, 2), 4.0, 10.0),
    ])
    def test_rational_factors(self, factor, x, expected):
        network = Network()
        modules.scale(network, "A", "Z", factor)
        network.set_initial("A", x)
        assert _settle(network, 150.0).final("Z") == pytest.approx(
            expected, rel=2e-2)

    def test_negative_factor_rejected(self):
        with pytest.raises(NetworkError):
            modules.scale(Network(), "A", "Z", Fraction(-1, 2))


class TestSubtract:
    @pytest.mark.parametrize("a,b,expected", [
        (9.0, 4.0, 5.0), (4.0, 9.0, 0.0), (5.0, 5.0, 0.0)])
    def test_clamped_difference(self, a, b, expected):
        # Equal inputs leave a ~0.07 annihilation tail (both rails decay
        # below the bimolecular effectiveness floor together); the
        # construct is exact up to that floor.
        network = Network()
        modules.subtract(network, "A", "B", "D")
        network.set_initial("A", a)
        network.set_initial("B", b)
        assert _settle(network, 200.0).final("D") == pytest.approx(
            expected, abs=0.15)


class TestMinMax:
    @pytest.mark.parametrize("a,b", [(9.0, 4.0), (2.0, 7.0), (5.0, 5.0)])
    def test_minimum(self, a, b):
        network = Network()
        modules.minimum(network, "A", "B", "M")
        network.set_initial("A", a)
        network.set_initial("B", b)
        assert _settle(network).final("M") == pytest.approx(
            min(a, b), abs=1e-3)

    @pytest.mark.parametrize("a,b", [(9.0, 4.0), (2.0, 7.0)])
    def test_maximum(self, a, b):
        network = Network()
        modules.maximum(network, "A", "B", "M")
        network.set_initial("A", a)
        network.set_initial("B", b)
        assert _settle(network, 200.0).final("M") == pytest.approx(
            max(a, b), rel=0.03)


class TestCompare:
    def test_greater_side_survives(self):
        network = Network()
        modules.compare(network, "A", "B")
        network.set_initial("A", 9.0)
        network.set_initial("B", 4.0)
        final = _settle(network, 200.0).final_state()
        assert final["GT"] == pytest.approx(5.0, abs=0.1)
        assert final["LT"] == pytest.approx(0.0, abs=0.1)

    def test_less_side_survives(self):
        network = Network()
        modules.compare(network, "A", "B")
        network.set_initial("A", 2.0)
        network.set_initial("B", 7.0)
        final = _settle(network, 200.0).final_state()
        assert final["LT"] == pytest.approx(5.0, abs=0.1)
        assert final["GT"] == pytest.approx(0.0, abs=0.1)


class TestThresholdAndWeightedSum:
    def test_threshold(self):
        network = Network()
        modules.threshold(network, "A", 6, "Z")
        network.set_initial("A", 10.0)
        assert _settle(network, 200.0).final("Z") == pytest.approx(
            4.0, abs=0.05)

    def test_weighted_sum(self):
        network = Network()
        modules.weighted_sum(network, {"A": Fraction(1, 2),
                                       "B": Fraction(2, 1)}, "Z")
        network.set_initial("A", 8.0)
        network.set_initial("B", 3.0)
        assert _settle(network, 200.0).final("Z") == pytest.approx(
            10.0, rel=0.02)


class TestRateIndependence:
    def test_scale_result_invariant_under_rate_jitter(self):
        """The paper's claim: only the fast/slow split matters."""
        import numpy as np

        from repro.crn.rates import jittered_rates

        results = []
        rng = np.random.default_rng(7)
        for _ in range(4):
            network = Network()
            modules.scale(network, "A", "Z", Fraction(1, 2))
            network.set_initial("A", 12.0)
            rates = jittered_rates(network, RateScheme(), rng)
            simulator = OdeSimulator(network, rates=rates)
            results.append(simulator.simulate(200.0, n_samples=20)
                           .final("Z"))
        assert max(results) - min(results) < 0.15

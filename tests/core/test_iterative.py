"""Tests for the iterative (discrete-count) constructs.

Exactness is claimed under the stochastic semantics; the ODE behaviour is
checked only qualitatively (it is documented as approximate).
"""

import math

import pytest

from repro import simulate
from repro.crn.simulation.ssa import StochasticSimulator
from repro.core.iterative import (build_log_two, build_multiplier,
                                  build_power_of_two)
from repro.errors import NetworkError


def _final(network, name, seed, t=300.0):
    return StochasticSimulator(network, seed=seed).final_counts(t)[name]


class TestMultiplier:
    @pytest.mark.parametrize("x,y", [(0, 5), (1, 1), (2, 3), (3, 4),
                                     (5, 2), (4, 4)])
    def test_exact_products(self, x, y):
        network, z = build_multiplier(x, y)
        assert _final(network, z, seed=x * 10 + y) == x * y

    def test_y_is_restored(self):
        network, _ = build_multiplier(4, 7)
        counts = StochasticSimulator(network, seed=3).final_counts(300.0)
        assert counts["Y"] == 7

    def test_x_is_consumed(self):
        network, _ = build_multiplier(4, 7)
        counts = StochasticSimulator(network, seed=3).final_counts(300.0)
        assert counts["X"] == 0

    def test_non_integer_rejected(self):
        with pytest.raises(NetworkError):
            build_multiplier(2.5, 3)

    def test_negative_rejected(self):
        with pytest.raises(NetworkError):
            build_multiplier(-1, 3)

    def test_ode_semantics_is_only_approximate(self):
        """Documented limitation: the deterministic continuum blurs
        iterations, so ODE results deviate from x*y."""
        network, z = build_multiplier(5, 5)
        value = simulate(network, 300.0, n_samples=20).final(z)
        assert value > 0
        assert abs(value - 25.0) > 0.5


class TestPowerOfTwo:
    @pytest.mark.parametrize("x", [0, 1, 2, 3, 5])
    def test_exact_powers(self, x):
        network, z = build_power_of_two(x)
        assert _final(network, z, seed=x) == 2 ** x


class TestLogTwo:
    @pytest.mark.parametrize("x", [1, 2, 3, 4, 5, 8, 13, 16, 31])
    def test_ceiling_log(self, x):
        network, z = build_log_two(x)
        expected = math.ceil(math.log2(x)) if x > 1 else 0
        assert _final(network, z, seed=x, t=500.0) == expected

    def test_zero_rejected(self):
        with pytest.raises(NetworkError):
            build_log_two(0)


class TestRobustnessToSeparation:
    def test_multiplier_correct_at_moderate_separation(self):
        from repro.crn.rates import RateScheme

        network, z = build_multiplier(3, 3)
        simulator = StochasticSimulator(
            network, RateScheme.with_separation(200.0), seed=5)
        assert simulator.final_counts(300.0)[z] == 9

"""E7 -- combinational module accuracy table.

Every rate-independent module evaluated over an input grid (deterministic
semantics), plus the iterative constructs over integer grids (exact
stochastic semantics).
"""

from fractions import Fraction

from repro import simulate
from repro.crn.network import Network
from repro.crn.simulation.ssa import StochasticSimulator
from repro.core import modules
from repro.core.iterative import (build_log_two, build_multiplier,
                                  build_power_of_two)
from repro.reporting import markdown_table

from common import run_timed, save_report


def _ode_cases():
    cases = []
    for a, b in [(9.0, 4.0), (3.0, 11.0)]:
        network = Network()
        modules.add(network, ["A", "B"], "S")
        network.set_initial("A", a)
        network.set_initial("B", b)
        cases.append(("add", f"{a}+{b}", network, "S", a + b))
        network = Network()
        modules.subtract(network, "A", "B", "D")
        network.set_initial("A", a)
        network.set_initial("B", b)
        cases.append(("subtract", f"{a}-{b}", network, "D",
                      max(0.0, a - b)))
        network = Network()
        modules.minimum(network, "A", "B", "M")
        network.set_initial("A", a)
        network.set_initial("B", b)
        cases.append(("min", f"min({a},{b})", network, "M", min(a, b)))
        network = Network()
        modules.maximum(network, "A", "B", "M")
        network.set_initial("A", a)
        network.set_initial("B", b)
        cases.append(("max", f"max({a},{b})", network, "M", max(a, b)))
    for factor, x in [(Fraction(1, 2), 12.0), (Fraction(3, 4), 16.0),
                      (Fraction(5, 2), 6.0)]:
        network = Network()
        modules.scale(network, "A", "Z", factor)
        network.set_initial("A", x)
        cases.append((f"scale {factor}", f"{factor}*{x}", network, "Z",
                      float(factor) * x))
    return cases


def _run():
    rows = []
    for name, case, network, output, expected in _ode_cases():
        measured = simulate(network, 200.0, n_samples=20).final(output)
        rows.append([name, case, expected, measured,
                     abs(measured - expected)])
    for x, y in [(3, 4), (5, 5)]:
        network, z = build_multiplier(x, y)
        measured = StochasticSimulator(network, seed=1).final_counts(
            300.0)[z]
        rows.append(["multiply (SSA)", f"{x}*{y}", x * y, measured,
                     abs(measured - x * y)])
    for x in (3, 5):
        network, z = build_power_of_two(x)
        measured = StochasticSimulator(network, seed=2).final_counts(
            300.0)[z]
        rows.append(["2^x (SSA)", f"2^{x}", 2 ** x, measured,
                     abs(measured - 2 ** x)])
    for x in (8, 13):
        import math

        network, z = build_log_two(x)
        expected = math.ceil(math.log2(x))
        measured = StochasticSimulator(network, seed=3).final_counts(
            500.0)[z]
        rows.append(["ceil log2 (SSA)", f"log2({x})", expected, measured,
                     abs(measured - expected)])
    return rows


def test_bench_module_accuracy_table(benchmark):
    rows = run_timed(benchmark, _run)[-1]
    save_report("E7_modules", "E7 -- combinational module accuracy",
                markdown_table(["module", "case", "expected", "measured",
                                "|error|"], rows))
    for row in rows:
        name, _, expected, measured, error = row
        if "(SSA)" in name:
            assert error == 0, f"{name} {row}"
        else:
            scale = max(abs(float(expected)), 1.0)
            assert error / scale < 0.03, f"{name} {row}"

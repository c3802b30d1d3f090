"""E10 -- DNA strand displacement chassis fidelity.

The paper proposes DNA strand displacement as the experimental chassis.
We compile a delay-element transfer to the buffered DSD implementation
and sweep the fuel concentration C_max: fidelity must approach the ideal
CRN as C_max grows, while fuel depletion (the realistic finite resource)
shrinks.
"""

from repro import SimulationOptions, simulate
from repro.core.analysis import effective_value
from repro.core.memory import build_delay_chain
from repro.dsd import compile_network
from repro.reporting import markdown_table

from common import run_timed, save_report

INITIAL = 20.0
C_MAX_SWEEP = (1_000.0, 10_000.0, 30_000.0)


def _run():
    network, _, _ = build_delay_chain(n=1, initial=INITIAL)
    ideal = effective_value(
        simulate(network, 25.0, n_samples=30), "Y")
    rows = []
    inventory = None
    stiff = SimulationOptions(solver="BDF", rtol=1e-5, atol=1e-8,
                              n_samples=30)
    for c_max in C_MAX_SWEEP:
        compilation = compile_network(network, c_max=c_max)
        trajectory = simulate(compilation.network, 25.0, options=stiff)
        measured = effective_value(trajectory, "Y")
        rows.append([c_max, ideal, measured,
                     abs(measured - ideal) / ideal,
                     compilation.fuel_depletion(trajectory),
                     compilation.network.n_reactions])
        inventory = compilation.inventory
    return rows, inventory


def test_bench_dsd_table(benchmark):
    rows, inventory = run_timed(benchmark, _run)[-1]

    save_report(
        "E10_dsd",
        "E10 -- strand-displacement implementation fidelity vs C_max",
        markdown_table(["C_max", "ideal Y", "measured Y", "rel error",
                        "fuel depletion", "# reactions"], rows)
        + f"\n\nstructural inventory: {inventory.summary()}\n")

    # Fidelity within a few percent at every buffer level, and fuel
    # depletion strictly decreasing with C_max.
    for row in rows:
        assert row[3] < 0.05
    depletions = [row[4] for row in rows]
    assert depletions[0] > depletions[1] > depletions[2]
    assert inventory.n_distinct_strands > 10

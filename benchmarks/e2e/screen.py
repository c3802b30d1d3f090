"""Screen the frozen input pools that ``workloads.py`` draws from.

    python3 benchmarks/e2e/screen.py ssa [--start K --stop K]
    python3 benchmarks/e2e/screen.py serve

``ssa`` runs SSA pool ops ``start`` to ``stop`` and prints the ones that
fail (raise, or exceed the E14 error gate) or need a straggler flush:
the source of ``workloads.SSA_EXCLUDED``.  ``serve`` integrates every candidate
``random``-scenario network of the ODE spec pool and prints the seeds
that need more than ``--max-nfev`` RHS evaluations: the source of
``workloads.SERVE_SLOW_NETWORKS``.  Both are deterministic, so a rerun
at the same commit prints the same lists.
"""

from __future__ import annotations

import argparse

from harness import use_source_tree


def screen_ssa(start: int, stop: int) -> list[int]:
    from repro.core.stochastic_machine import StochasticMachine
    from repro.errors import SimulationError
    from workloads import SSA_ERROR_GATE, ma2_design, ssa_pool_op

    excluded = []
    design = ma2_design()
    for k in range(start, stop):
        stream, seed = ssa_pool_op(k)
        machine = StochasticMachine(design, seed=seed)
        try:
            run = machine.run({"x": stream})
            reason = ("fails the error gate"
                      if run.max_error() > SSA_ERROR_GATE else None)
        except SimulationError:
            reason = "raises"
        if reason is None and machine.flush_events:
            reason = f"needs {machine.flush_events} straggler flush(es)"
        if reason is not None:
            excluded.append(k)
            print(f"ssa pool op {k} {reason}: stream {stream}", flush=True)
    return excluded


def screen_serve(max_nfev: int, candidates: int) -> list[int]:
    from repro import SimulationOptions, simulate
    from repro.obs import MetricsRegistry
    from repro.scenarios import get_scenario

    scenario = get_scenario("random")
    slow = []
    for seed in range(candidates):
        metrics = MetricsRegistry()
        network = scenario.network(seed=seed).canonical_form()
        simulate(network, 4.0, method="ode",
                 options=SimulationOptions(n_samples=200, seed=seed,
                                           metrics=metrics))
        nfev = metrics.counter("ode.nfev").value
        if nfev > max_nfev:
            slow.append(seed)
            print(f"random network {seed}: {nfev:.0f} RHS evaluations",
                  flush=True)
    return slow


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("pool", choices=("ssa", "serve"))
    parser.add_argument("--start", type=int, default=0)
    parser.add_argument("--stop", type=int, default=None)
    parser.add_argument("--max-nfev", type=int, default=20_000)
    args = parser.parse_args()
    use_source_tree()
    if args.pool == "ssa":
        from workloads import SSA_POOL_SIZE

        stop = SSA_POOL_SIZE if args.stop is None else args.stop
        print(tuple(screen_ssa(args.start, stop)))
    else:
        from workloads import SERVE_ODE_SPECS

        candidates = SERVE_ODE_SPECS + 20
        print(tuple(screen_serve(args.max_nfev, candidates)))


if __name__ == "__main__":
    main()

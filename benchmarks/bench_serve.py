"""E18 -- serving-layer throughput and content-addressed cache wins.

The deterministic load generator (:mod:`repro.serve.loadgen`) drives a
:class:`~repro.serve.SimulationService` with a fixed job mix -- ODE
trajectories over the conformance random-network family plus one
sharded SSA sweep -- submitted round-robin so the first pass is all
cold misses and every later pass is all cache hits.  Headline numbers:
jobs/second over the whole run, p50/p99 latency, and the cold-vs-hit
p50 split.

Two properties are *gates*, not observations:

- a cache hit must be at least :data:`HIT_SPEEDUP_FLOOR` times faster
  than the cold computation at p50 (the whole point of
  content-addressing results);
- a duplicate job's response must be **byte-identical across worker
  counts** -- an ensemble computed on a wide pool is the same bytes as
  on a narrow one, so cached results are portable between service
  configurations.
"""

import asyncio

from common import run_timed, save_json, save_report
from repro.reporting import markdown_table
from repro.serve import (SimulationService, build_job_mix,
                         canonical_result_bytes, generate_load)

N_DISTINCT = 6
REPEATS = 4
T_FINAL = 4.0
N_SAMPLES = 200
SWEEP_RUNS = 16
SWEEP_T_FINAL = 0.5

#: Conservative floor for the cold-p50 / hit-p50 ratio.  Measured
#: speedups on this mix are orders of magnitude (hits resolve from the
#: store without touching an engine); the floor is the acceptance
#: criterion while the committed record plus check_regression.py's 30%
#: gate track the actual throughput.
HIT_SPEEDUP_FLOOR = 10.0


def _workers_bitwise(base_seed) -> bool:
    """One sharded sweep job, served at two pool widths, same bytes."""
    spec = build_job_mix(
        N_DISTINCT, seed=base_seed, t_final=T_FINAL,
        n_samples=N_SAMPLES, sweep_runs=SWEEP_RUNS,
        sweep_t_final=SWEEP_T_FINAL)[-1]
    assert spec.kind == "sweep"

    async def run_with(n_workers):
        async with SimulationService(n_workers=n_workers) as service:
            return await service.run(spec)
    narrow = asyncio.run(run_with(1))
    wide = asyncio.run(run_with(2))
    return canonical_result_bytes(narrow) == \
        canonical_result_bytes(wide)


def _run(base_seed):
    report = generate_load(
        n_distinct=N_DISTINCT, repeats=REPEATS, seed=base_seed,
        n_workers=2, t_final=T_FINAL, n_samples=N_SAMPLES,
        sweep_runs=SWEEP_RUNS, sweep_t_final=SWEEP_T_FINAL)
    result = report.to_dict()
    result["workers_bitwise"] = _workers_bitwise(base_seed)
    return result


def test_bench_serve(benchmark, bench_seed, bench_json):
    result = run_timed(benchmark, lambda: _run(bench_seed))[-1]

    body = markdown_table(
        ["metric", "value"],
        [["jobs", f"{result['jobs']}"],
         ["distinct specs", f"{result['distinct']}"],
         ["cache hit rate", f"{result['cache_hit_rate']:.2f}"],
         ["jobs/second", f"{result['jobs_per_second']:,.1f}"],
         ["p50 latency", f"{result['p50_ms']:.3f} ms"],
         ["p99 latency", f"{result['p99_ms']:.3f} ms"],
         ["cold p50", f"{result['cold_p50_ms']:.3f} ms"],
         ["hit p50", f"{result['hit_p50_ms']:.3f} ms"],
         ["hit speedup", f"{result['hit_speedup']:,.0f}x"]])
    body += (f"\n\n{N_DISTINCT} distinct jobs x {REPEATS} passes "
             f"(ODE trajectories t_final={T_FINAL:g} plus one "
             f"{SWEEP_RUNS}-run SSA sweep), 2 ensemble workers.  "
             f"Duplicate-job responses byte-identical across worker "
             f"counts: "
             f"{'OK' if result['workers_bitwise'] else 'FAILED'}.\n")
    save_report("E18_serve",
                "E18 -- serving layer: throughput and cache wins",
                body)
    save_json("E18_serve", result, seed=bench_seed,
              enabled=bench_json)

    assert result["workers_bitwise"]
    assert result["cache_hit_rate"] == (REPEATS - 1) / REPEATS
    assert result["hit_speedup"] >= HIT_SPEEDUP_FLOOR

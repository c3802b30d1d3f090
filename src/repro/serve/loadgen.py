"""Deterministic load generator for the serving layer (E18).

The generator drives a :class:`~repro.serve.service.SimulationService`
with a fixed, seed-derived job mix: ``n_distinct`` distinct specs (ODE
trajectories of random conformance networks plus one small stochastic
sweep), each submitted ``repeats`` times round-robin.  The first pass
over the mix is all cold misses; every later pass is all cache hits --
so one run measures both sides of the content-addressed cache and the
speedup between them, which the E18 benchmark gates.

Wall-clock timings live only in the :class:`LoadReport`, never in job
results: results stay pure data so caching stays byte-stable.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass

from repro.crn.simulation.options import SimulationOptions
from repro.serve.jobs import JobSpec
from repro.serve.service import SimulationService


def build_job_mix(n_distinct: int = 6, *, seed: int = 0,
                  t_final: float = 1.0, n_samples: int = 50,
                  sweep_runs: int = 4,
                  sweep_t_final: float = 0.2) -> list[JobSpec]:
    """``n_distinct`` distinct specs derived from one root seed.

    The mix is mostly single-trajectory ODE jobs over the conformance
    random-network family (cheap, engine-representative) plus one
    small SSA sweep so the ensemble path is exercised too; it runs in
    the job's thread, so the service width never enters it.  ``t_final``
    / ``sweep_runs`` scale the cold-path cost: the E18 benchmark uses
    a heavier mix than the test-suite default.
    """
    if n_distinct < 1:
        raise ValueError("n_distinct must be >= 1")
    specs = []
    options = SimulationOptions(n_samples=n_samples)
    for index in range(n_distinct - 1):
        specs.append(JobSpec(
            kind="simulate", scenario="random",
            scenario_params={"seed": seed + index},
            t_final=t_final, method="ode", options=options,
            seed=seed + index))
    specs.append(JobSpec(
        kind="sweep", scenario="counter", t_final=sweep_t_final,
        method="ssa", options=options, seed=seed, n_runs=sweep_runs))
    return specs[:n_distinct]


@dataclass(frozen=True)
class LoadReport:
    """One load-generation run, summarised."""

    jobs: int
    distinct: int
    cache_hits: int
    elapsed_s: float
    latencies_ms: tuple[float, ...]
    cold_ms: tuple[float, ...]
    hit_ms: tuple[float, ...]

    @property
    def jobs_per_second(self) -> float:
        return self.jobs / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def cache_hit_rate(self) -> float:
        return self.cache_hits / self.jobs if self.jobs else 0.0

    @staticmethod
    def _percentile(values: tuple[float, ...], q: float) -> float:
        if not values:
            return 0.0
        ordered = sorted(values)
        index = min(len(ordered) - 1,
                    int(round(q * (len(ordered) - 1))))
        return ordered[index]

    @property
    def p50_ms(self) -> float:
        return self._percentile(self.latencies_ms, 0.5)

    @property
    def p99_ms(self) -> float:
        return self._percentile(self.latencies_ms, 0.99)

    @property
    def cold_p50_ms(self) -> float:
        return self._percentile(self.cold_ms, 0.5)

    @property
    def hit_p50_ms(self) -> float:
        return self._percentile(self.hit_ms, 0.5)

    @property
    def hit_speedup(self) -> float:
        """Cold p50 over hit p50 (the cache's latency win)."""
        hit = self.hit_p50_ms
        return self.cold_p50_ms / hit if hit else float("inf")

    def to_dict(self) -> dict:
        return {
            "jobs": self.jobs,
            "distinct": self.distinct,
            "cache_hits": self.cache_hits,
            "cache_hit_rate": self.cache_hit_rate,
            "jobs_per_second": self.jobs_per_second,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "cold_p50_ms": self.cold_p50_ms,
            "hit_p50_ms": self.hit_p50_ms,
            "hit_speedup": self.hit_speedup,
        }


async def run_load(service: SimulationService,
                   specs: list[JobSpec], *,
                   repeats: int = 4) -> LoadReport:
    """Submit each spec ``repeats`` times round-robin, timed per job.

    Jobs are awaited one at a time: per-job latency then measures the
    full submit-to-result path without queueing noise, and the
    round-robin order guarantees pass 1 is cold and passes 2..n hit.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    latencies: list[float] = []
    cold: list[float] = []
    hit: list[float] = []
    started = time.perf_counter()
    for _ in range(repeats):
        for spec in specs:
            job_start = time.perf_counter()
            handle = await service.submit(spec)
            await handle.result()
            elapsed_ms = (time.perf_counter() - job_start) * 1e3
            latencies.append(elapsed_ms)
            (hit if handle.cached else cold).append(elapsed_ms)
    elapsed = time.perf_counter() - started
    return LoadReport(
        jobs=len(latencies), distinct=len(specs),
        cache_hits=len(hit), elapsed_s=elapsed,
        latencies_ms=tuple(latencies), cold_ms=tuple(cold),
        hit_ms=tuple(hit))


def generate_load(*, n_distinct: int = 6, repeats: int = 4,
                  seed: int = 0, n_workers: int | None = None,
                  store=None, **mix_kwargs) -> LoadReport:
    """Synchronous entry point: fresh service, full mix, one report.

    ``mix_kwargs`` forward to :func:`build_job_mix` (``t_final``,
    ``n_samples``, ``sweep_runs``, ``sweep_t_final``).
    """
    async def drive() -> LoadReport:
        async with SimulationService(store, n_workers=n_workers) \
                as service:
            specs = build_job_mix(n_distinct, seed=seed, **mix_kwargs)
            return await run_load(service, specs, repeats=repeats)
    return asyncio.run(drive())

"""The asyncio job service.

:class:`SimulationService` turns the CLI-shaped toolkit into a serving
stack: jobs come in as :class:`~repro.serve.jobs.JobSpec` values
through :meth:`~SimulationService.submit`, run on a thread pool (a
robustness campaign spreads its trials over the
:class:`~repro.crn.simulation.sweep.ParallelSweepRunner` process pool;
every other job runs in its thread), and resolve through
:class:`JobHandle` -- ``await handle.result()``
for the response, ``async for record in handle.progress()`` for live
telemetry bridged from the existing :class:`~repro.obs.Tracer` /
:class:`~repro.obs.MetricsRegistry` sinks.

Every result is content-addressed into the service's
:mod:`~repro.serve.cache` store before the handle resolves, so a
duplicate request -- the common case at scale -- short-circuits at
submit time and returns the stored result object itself (its arrays
read-only; a client copies anything else it edits).  The
determinism contract (canonical network form + SeedSequence-per-run
ensembles + timing-free results) guarantees the cached response is
byte-identical to what recomputation would produce, at any worker
count.
"""

from __future__ import annotations

import asyncio
import itertools
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import Tracer
from repro.serve.cache import MemoryResultStore
from repro.serve.jobs import JobSpec

#: Sentinel closing a handle's progress stream.
_DONE = object()


class _ProgressSink:
    """A tracer sink that forwards records into a job's progress queue.

    Engines write telemetry from the worker thread; the bridge hops
    onto the event loop with ``call_soon_threadsafe``, so consumers
    iterate :meth:`JobHandle.progress` without locks.
    """

    def __init__(self, emit):
        self._emit = emit

    def write(self, record) -> None:
        self._emit(record.to_dict())

    def close(self) -> None:
        pass


class JobHandle:
    """One submitted job: an awaitable result plus a progress stream."""

    def __init__(self, job_id: int, spec: JobSpec, cache_key: str,
                 future: asyncio.Future, queue: asyncio.Queue):
        self.job_id = job_id
        self.spec = spec
        self.cache_key = cache_key
        #: True when the response came from the result store.
        self.cached = False
        self._future = future
        self._queue = queue

    @property
    def done(self) -> bool:
        return self._future.done()

    async def result(self) -> dict:
        """The job's result dict (raises the job's error, if any)."""
        return await self._future

    async def progress(self):
        """Async-iterate progress records until the job finishes.

        Yields lifecycle events (``submitted``/``cache-hit``/
        ``started``/``finished``) and, for trajectory jobs, the tracer
        span/event/metrics records the engines emit while running.
        """
        while True:
            item = await self._queue.get()
            if item is _DONE:
                return
            yield item


class SimulationService:
    """Async façade over the simulation engines with result caching.

    Parameters
    ----------
    store:
        a result store (``get``/``put``); defaults to an in-process
        :class:`~repro.serve.cache.MemoryResultStore`.
    n_workers:
        process-pool width for ``robustness`` campaigns, the one job
        kind that shards; ``None`` lets the campaign pick its default.
        Sweeps and conformance batteries run in the job's thread at any
        width.  Results are bitwise identical at any width -- the
        determinism contract caching relies on.
    max_threads:
        thread-pool width for concurrently *executing* jobs.
    """

    def __init__(self, store=None, *, n_workers: int | None = None,
                 max_threads: int = 4):
        self.store = store if store is not None else MemoryResultStore()
        self.n_workers = n_workers
        self._executor = ThreadPoolExecutor(
            max_workers=max_threads, thread_name_prefix="repro-serve")
        self._job_ids = itertools.count(1)
        self.stats = {"submitted": 0, "cache_hits": 0,
                      "completed": 0, "failed": 0}
        self._closed = False

    # -- submission -----------------------------------------------------------

    async def submit(self, spec: JobSpec) -> JobHandle:
        """Validate, cache-check and (if needed) schedule one job."""
        if self._closed:
            raise ServeError("service is closed")
        spec.validate()
        cache_key = spec.cache_key()
        loop = asyncio.get_running_loop()
        handle = JobHandle(next(self._job_ids), spec, cache_key,
                           loop.create_future(), asyncio.Queue())
        self.stats["submitted"] += 1

        def emit(record: dict) -> None:
            loop.call_soon_threadsafe(handle._queue.put_nowait, record)

        handle._queue.put_nowait(
            {"event": "submitted", "job": handle.job_id,
             "kind": spec.kind, "key": cache_key})
        cached = self.store.get(cache_key)
        if cached is not None:
            handle.cached = True
            self.stats["cache_hits"] += 1
            self.stats["completed"] += 1
            handle._queue.put_nowait(
                {"event": "cache-hit", "job": handle.job_id,
                 "key": cache_key})
            handle._queue.put_nowait(_DONE)
            handle._future.set_result(cached)
            return handle

        handle._queue.put_nowait(
            {"event": "started", "job": handle.job_id})
        task = loop.run_in_executor(
            self._executor, _execute, spec, self.n_workers, emit)

        def finish(done: asyncio.Future) -> None:
            error = done.exception()
            if error is not None:
                self.stats["failed"] += 1
                handle._queue.put_nowait(
                    {"event": "failed", "job": handle.job_id,
                     "error": str(error)})
                handle._queue.put_nowait(_DONE)
                handle._future.set_exception(error)
                return
            result = done.result()
            self.store.put(cache_key, result)
            self.stats["completed"] += 1
            handle._queue.put_nowait(
                {"event": "finished", "job": handle.job_id,
                 "key": cache_key})
            handle._queue.put_nowait(_DONE)
            handle._future.set_result(result)

        task.add_done_callback(finish)
        return handle

    async def run(self, spec: JobSpec) -> dict:
        """Submit one job and await its result."""
        handle = await self.submit(spec)
        return await handle.result()

    # -- lifecycle ------------------------------------------------------------

    async def close(self) -> None:
        """Stop accepting jobs and release the executor."""
        self._closed = True
        self._executor.shutdown(wait=True)

    async def __aenter__(self) -> "SimulationService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()


# -- job execution (worker thread) -------------------------------------------


def _execute(spec: JobSpec, n_workers: int | None, emit) -> dict:
    """Run one job to completion; returns the (pure data) result."""
    if spec.kind == "simulate":
        return _execute_simulate(spec, emit)
    if spec.kind == "sweep":
        return _execute_sweep(spec, emit)
    if spec.kind == "robustness":
        return _execute_robustness(spec, n_workers)
    if spec.kind == "conformance":
        return _execute_conformance(spec)
    raise ServeError(f"unknown job kind {spec.kind!r}")


def _trajectory_result(kind: str, trajectory) -> dict:
    """Result dict for trajectory jobs: pure data, no timings.

    The arrays are private, read-only copies: a memory-store hit hands
    every client this very dict, so one client writing into an array
    would change the bytes every later hit returns.
    """
    times = np.array(trajectory.times, dtype=float)
    states = np.array(trajectory.states, dtype=float)
    times.flags.writeable = states.flags.writeable = False
    return {"kind": kind, "names": list(trajectory.names),
            "times": times, "states": states}


def _execute_simulate(spec: JobSpec, emit) -> dict:
    from repro import simulate

    network = spec.resolve_network()
    metrics = MetricsRegistry()
    tracer = Tracer(_ProgressSink(emit))
    options = spec.options.replace(seed=spec.seed, tracer=tracer,
                                   metrics=metrics)
    trajectory = simulate(network, spec.t_final, method=spec.method,
                          scheme=spec.scheme, options=options)
    # Telemetry streams to the handle; it never enters the (cached,
    # byte-stable) result.
    tracer.emit_metrics(metrics)
    return _trajectory_result("simulate", trajectory)


def _execute_sweep(spec: JobSpec, emit) -> dict:
    from repro.crn.simulation.ssa import StochasticSimulator
    from repro.crn.simulation.tau_leaping import TauLeapingSimulator

    network = spec.resolve_network()
    opts = spec.options
    if spec.method == "ssa":
        simulator = StochasticSimulator(
            network, scheme=spec.scheme, volume=opts.volume,
            seed=spec.seed)
    else:
        simulator = TauLeapingSimulator(
            network, scheme=spec.scheme, epsilon=opts.epsilon,
            n_critical=opts.n_critical, volume=opts.volume,
            seed=spec.seed)
    run_kwargs: dict = {"t_start": opts.t_start}
    if opts.initial is not None:
        run_kwargs["initial"] = dict(opts.initial)
    if opts.max_events is not None:
        run_kwargs["max_events"] = opts.max_events
    n_samples = opts.n_samples if opts.n_samples is not None else 100
    mean = simulator.mean_trajectory(
        spec.t_final, spec.n_runs, n_samples=n_samples, **run_kwargs)
    emit({"event": "sweep", "n_runs": spec.n_runs})
    result = _trajectory_result("sweep", mean)
    result["n_runs"] = int(spec.n_runs)
    return result


def _execute_robustness(spec: JobSpec, n_workers: int | None) -> dict:
    from repro.faults.campaign import RobustnessCampaign

    campaign = RobustnessCampaign(
        circuit=spec.circuit, trials=spec.trials, seed=spec.seed,
        separation=spec.separation, n_workers=n_workers,
        circuit_kwargs=dict(spec.circuit_params))
    result = campaign.run().to_dict()
    return {"kind": "robustness", "report": result}


def _execute_conformance(spec: JobSpec) -> dict:
    from repro.conformance.runner import run_conformance

    report = run_conformance(spec.budget, spec.seed, shrink=False)
    return {"kind": "conformance", "report": report.to_dict()}


__all__ = [
    "JobHandle",
    "SimulationService",
]

"""The async service: submit/result/progress, caching, determinism.

The headline contract: a duplicate job is answered from the store with
a byte-identical response, and sharded ensemble jobs return the same
bytes at every worker count (so a result computed on a wide pool is a
valid cache hit for a narrow one and vice versa).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.crn.network import Network
from repro.crn.simulation.options import SimulationOptions
from repro.errors import ReproError, ServeError
from repro.serve import (JobSpec, MemoryResultStore, SimulationService,
                         build_job_mix, canonical_result_bytes,
                         generate_load)


def _network(order: str = "forward") -> Network:
    network = Network("serve")
    reactions = [(("X",), ("Y",), 2.0), (("Y",), ("X", "X"), 1.0)]
    if order == "reversed":
        reactions = list(reversed(reactions))
    for reactants, products, rate in reactions:
        network.add(reactants, products, rate)
    network.set_initial("X", 20.0)
    return network


def _run(coroutine):
    return asyncio.run(coroutine)


async def _submit_and_wait(service, spec):
    handle = await service.submit(spec)
    result = await handle.result()
    return handle, result


class TestSubmitFlow:
    def test_cold_then_hit_is_byte_identical(self):
        async def scenario():
            async with SimulationService() as service:
                spec = JobSpec(kind="simulate", network=_network())
                cold, first = await _submit_and_wait(service, spec)
                warm, second = await _submit_and_wait(service, spec)
                return service.stats, cold, warm, first, second
        stats, cold, warm, first, second = _run(scenario())
        assert not cold.cached and warm.cached
        assert canonical_result_bytes(first) == \
            canonical_result_bytes(second)
        assert stats == {"submitted": 2, "cache_hits": 1,
                         "completed": 2, "failed": 0}

    def test_permuted_network_is_a_cache_hit(self):
        async def scenario():
            async with SimulationService() as service:
                _, first = await _submit_and_wait(service, JobSpec(
                    kind="simulate", network=_network("forward"),
                    method="ssa", seed=5))
                warm, second = await _submit_and_wait(service, JobSpec(
                    kind="simulate", network=_network("reversed"),
                    method="ssa", seed=5))
                return warm.cached, first, second
        cached, first, second = _run(scenario())
        assert cached
        assert canonical_result_bytes(first) == \
            canonical_result_bytes(second)

    def test_progress_stream_lifecycles(self):
        async def scenario():
            async with SimulationService() as service:
                spec = JobSpec(kind="simulate", network=_network())
                cold = await service.submit(spec)
                cold_events = [record["event"] async for record
                               in cold.progress()
                               if "event" in record]
                warm = await service.submit(spec)
                warm_events = [record["event"] async for record
                               in warm.progress()
                               if "event" in record]
                return cold_events, warm_events
        cold_events, warm_events = _run(scenario())
        assert cold_events[0] == "submitted"
        assert cold_events[1] == "started"
        assert cold_events[-1] == "finished"
        assert warm_events == ["submitted", "cache-hit"]

    def test_failed_jobs_raise_and_count(self):
        async def scenario():
            async with SimulationService() as service:
                spec = JobSpec(kind="simulate", network=_network(),
                               options=SimulationOptions(
                                   initial={"NOPE": 1.0}))
                handle = await service.submit(spec)
                with pytest.raises(ReproError):
                    await handle.result()
                events = [record["event"] async for record
                          in handle.progress() if "event" in record]
                return service.stats, events
        stats, events = _run(scenario())
        assert stats["failed"] == 1
        assert events[-1] == "failed"

    def test_invalid_specs_are_rejected_at_submit(self):
        async def scenario():
            async with SimulationService() as service:
                with pytest.raises(ServeError):
                    await service.submit(JobSpec(kind="simulate"))
                return service.stats
        assert _run(scenario())["submitted"] == 0

    def test_closed_service_rejects_jobs(self):
        async def scenario():
            service = SimulationService()
            await service.close()
            with pytest.raises(ServeError, match="closed"):
                await service.submit(JobSpec(kind="simulate",
                                             network=_network()))
        _run(scenario())


class TestDeterminism:
    def test_sweep_bytes_match_across_worker_counts(self):
        spec = JobSpec(kind="sweep", network=_network(),
                       method="ssa", t_final=0.5, n_runs=8, seed=2)

        async def run_with(n_workers):
            async with SimulationService(n_workers=n_workers) \
                    as service:
                return await service.run(spec)
        narrow = _run(run_with(1))
        wide = _run(run_with(2))
        assert canonical_result_bytes(narrow) == \
            canonical_result_bytes(wide)

    def test_robustness_job_round_trips_through_the_store(self):
        spec = JobSpec(kind="robustness", circuit="counter",
                       trials=2, seed=0)

        async def scenario():
            store = MemoryResultStore()
            async with SimulationService(store, n_workers=1) \
                    as service:
                first = await service.run(spec)
                warm, second = await _submit_and_wait(service, spec)
                return first, second, warm.cached
        first, second, cached = _run(scenario())
        assert cached
        assert first["kind"] == "robustness"
        assert canonical_result_bytes(first) == \
            canonical_result_bytes(second)


class TestResolveOnce:
    """A miss resolves its network once, for its key and its run."""

    @pytest.fixture
    def builds(self, monkeypatch):
        from repro.conformance import generator

        calls = []
        build = generator.random_network

        def counting(*args, **kwargs):
            calls.append(args)
            return build(*args, **kwargs)

        monkeypatch.setattr(generator, "random_network", counting)
        return calls

    @pytest.mark.parametrize(("kind", "method"), [("simulate", "ode"),
                                                  ("simulate", "ssa"),
                                                  ("sweep", "ssa")])
    def test_a_miss_builds_its_network_once(self, builds, kind, method):
        from repro import simulate
        from repro.scenarios import get_scenario
        from repro.serve.service import _trajectory_result

        spec = JobSpec(kind=kind, scenario="random",
                       scenario_params={"seed": 3}, t_final=1.0,
                       method=method, seed=4, n_runs=2)

        async def scenario():
            async with SimulationService(n_workers=1) as service:
                return await service.run(spec)
        result = _run(scenario())
        assert len(builds) == 1
        if kind == "sweep":
            return
        network = get_scenario("random").network(seed=3).canonical_form()
        expected = simulate(network, 1.0, method=method,
                            options=SimulationOptions(seed=4))
        assert canonical_result_bytes(result) == canonical_result_bytes(
            _trajectory_result("simulate", expected))


class TestLoadGenerator:
    def test_mix_is_deterministic_and_distinct(self):
        mix = build_job_mix(4, seed=9)
        again = build_job_mix(4, seed=9)
        keys = [spec.cache_key() for spec in mix]
        assert keys == [spec.cache_key() for spec in again]
        assert len(set(keys)) == 4

    def test_generate_load_hits_after_the_first_pass(self):
        report = generate_load(n_distinct=2, repeats=3, seed=1,
                               n_workers=1, sweep_runs=2)
        assert report.jobs == 6
        assert report.cache_hits == 4
        assert report.cache_hit_rate == pytest.approx(2 / 3)
        assert report.hit_p50_ms < report.cold_p50_ms
        payload = report.to_dict()
        assert payload["jobs_per_second"] > 0

"""Tests for the parallel sweep runner and ensemble determinism."""

import asyncio

import numpy as np
import pytest

from repro.conformance import run_conformance
from repro.crn.network import Network
from repro.crn.simulation import ParallelSweepRunner
from repro.crn.simulation.ssa import StochasticSimulator
from repro.serve import JobSpec, SimulationService


def _square(value):
    return value * value


def _decay(x0=200):
    network = Network()
    network.add("A", "B", 0.5)
    network.set_initial("A", x0)
    return network


class TestRunner:
    def test_preserves_payload_order(self):
        runner = ParallelSweepRunner(n_workers=2)
        assert runner.map(_square, [3, 1, 4, 1, 5]) == [9, 1, 16, 1, 25]

    def test_serial_forced(self):
        runner = ParallelSweepRunner(n_workers=1)
        assert runner.map(_square, range(4)) == [0, 1, 4, 9]


class TestEnsembleDeterminism:
    def test_mean_trajectory_reproducible_across_instances(self):
        a = StochasticSimulator(_decay(), seed=13).mean_trajectory(
            1.0, n_runs=6, n_samples=10)
        b = StochasticSimulator(_decay(), seed=13).mean_trajectory(
            1.0, n_runs=6, n_samples=10)
        assert np.array_equal(a.states, b.states)


class TestEnsemblesRunInProcess:
    """Seeded ensembles never reach the process pool, at any width."""

    @pytest.fixture(autouse=True)
    def no_pool(self, monkeypatch):
        def refuse(self, fn, payloads):
            raise AssertionError("an ensemble reached ParallelSweepRunner")
        monkeypatch.setattr(ParallelSweepRunner, "map", refuse)

    def test_served_sweep(self):
        spec = JobSpec(kind="sweep", network=_decay(), method="ssa",
                       t_final=0.5, n_runs=16, seed=3)

        async def run():
            async with SimulationService(n_workers=2) as service:
                return await service.run(spec)
        assert asyncio.run(run())["n_runs"] == 16

    def test_conformance_battery(self):
        report = run_conformance("tiny", 0, shrink=False)
        assert report.ok, [f"{r.check}: {r.detail}"
                           for r in report.failures]

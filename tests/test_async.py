"""Tests for the self-timed (asynchronous) pipeline."""

import hashlib

import pytest

from repro.asynchronous import SelfTimedPipeline
from repro.errors import SimulationError


class TestSelfTimedPipeline:
    @pytest.mark.parametrize("gating", ["consuming", "catalytic"])
    def test_samples_arrive_in_order(self, gating):
        pipeline = SelfTimedPipeline(n=2, gating=gating)
        run = pipeline.run([20.0, 10.0, 30.0])
        assert len(run.arrived) == 3
        # ~arrival_fraction of each sample is acknowledged per wave.
        for injected, arrived in zip(run.injected, run.arrived):
            assert arrived == pytest.approx(injected, rel=0.06)

    def test_latency_is_data_driven(self):
        pipeline = SelfTimedPipeline(n=2, gating="catalytic")
        run = pipeline.run([15.0, 15.0])
        assert run.mean_latency > 0
        assert run.arrival_times[0] < run.arrival_times[1]

    def test_longer_chain_higher_latency(self):
        short = SelfTimedPipeline(n=1, gating="catalytic")
        long = SelfTimedPipeline(n=3, gating="catalytic")
        lat_short = short.run([20.0]).arrival_times[0]
        lat_long = long.run([20.0]).arrival_times[0]
        assert lat_long > lat_short

    def test_negative_sample_rejected(self):
        pipeline = SelfTimedPipeline(n=1)
        with pytest.raises(SimulationError):
            pipeline.run([-1.0])

    def test_record_trajectory(self):
        pipeline = SelfTimedPipeline(n=1, gating="catalytic")
        run = pipeline.run([10.0], record=True)
        assert run.trajectory is not None
        assert run.trajectory["Y"][-1] > 9.0

    def test_max_error_metric(self):
        pipeline = SelfTimedPipeline(n=1, gating="catalytic")
        run = pipeline.run([10.0, 20.0])
        assert run.max_error() < 1.5


def _digest(run) -> str:
    """First 16 hex digits of a sha256 over a recorded run's times,
    states and metadata, and its arrivals."""
    trajectory = run.trajectory
    h = hashlib.sha256(trajectory.times.tobytes())
    h.update(trajectory.states.tobytes())
    h.update(repr(sorted(trajectory.meta.items())).encode())
    h.update(repr((run.arrived, run.arrival_times)).encode())
    return h.hexdigest()[:16]


@pytest.mark.parametrize("n,gating,rows,expected", [
    (2, "catalytic", 25, "b34b01323afdc208"),
    (2, "consuming", 33, "eca89c0baa4fd231"),
    (3, "catalytic", 25, "f599319fbe7256a7"),
    (3, "consuming", 36, "8a65aac3707aec90"),
])
def test_recorded_runs_are_pinned(n, gating, rows, expected):
    """Every arrival is an LSODA event on the output (and its ``I_``
    dimer, under consuming gating); the handshake's solves keep their
    bits."""
    run = SelfTimedPipeline(n=n, gating=gating).run([20, 10, 30],
                                                    record=True)
    assert run.trajectory.states.shape[0] == rows
    assert _digest(run) == expected

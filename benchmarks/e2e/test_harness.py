"""Self-tests of the benchmark harness: ``pytest benchmarks/e2e``."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
from harness import (OpTimer, Window, percentile, run_ops, samples_beyond,
                     tail_rule, use_source_tree)
from tracing import Patch, Recorder, op_accounting, totals, traced

use_source_tree()

import layers  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REPO = Path(__file__).resolve().parents[2]


# -- the percentile rule ----------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 0.5), (40, 0.75), (99, 0.75), (100, 0.9),
    (199, 0.9), (200, 0.95), (1000, 0.99), (2000, 0.995),
    (9999, 0.995), (10000, 0.999), (100000, 0.9999)])
def test_tail_rule_picks_highest_percentile_with_ten_beyond(n, expected):
    assert tail_rule(n) == expected


@pytest.mark.parametrize("n", [20, 100, 1000, 10000])
def test_reported_sample_count_beyond_the_rule_percentile(n):
    values = np.random.default_rng(n).exponential(size=n).tolist()
    q = tail_rule(n)
    assert samples_beyond(values, q) >= harness.MIN_BEYOND
    assert samples_beyond(values, q) == round(n * (1 - q))


def test_percentile_interpolates_like_numpy():
    values = np.random.default_rng(1).normal(size=37).tolist()
    for q in (0.0, 0.1, 0.5, 0.9, 0.999, 1.0):
        assert percentile(values, q) == pytest.approx(
            np.percentile(values, 100 * q), rel=1e-12, abs=1e-15)


# -- self-time arithmetic ---------------------------------------------------


class _Clock:
    """A fake ``perf_counter`` advanced explicitly by the code under
    test, so span durations are exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class _Layers:
    clock: _Clock

    def outer(self):
        self.clock.advance(1.0)
        self.inner()
        self.clock.advance(0.5)
        self.inner()
        self.hot()
        self.clock.advance(0.25)

    def inner(self):
        self.clock.advance(2.0)
        self.hot()

    def hot(self):
        self.clock.advance(0.125)


def test_self_time_subtracts_children_and_hot_calls(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(tracing, "perf_counter", clock)
    _Layers.clock = clock
    recorder = Recorder()
    patches = [Patch(_Layers, "outer", "outer"),
               Patch(_Layers, "inner", "inner"),
               Patch(_Layers, "hot", "hot", hot=True)]
    with traced(recorder, patches):
        frame = recorder.begin_op(7)
        clock.advance(0.0625)
        _Layers().outer()
        recorder.end_op(frame)

    by_name = {}
    for record in recorder.spans:
        by_name.setdefault(record["name"], []).append(record)
    (outer,) = by_name["outer"]
    inners = by_name["inner"]
    (op,) = by_name["op"]
    assert [r["self"] for r in inners] == [2.0, 2.0]
    assert all(r["hot"] == {"hot": [1, 0.125, 0.125]} for r in inners)
    assert outer["self"] == 1.75
    assert outer["hot"] == {"hot": [1, 0.125, 0.125]}
    assert op["self"] == 0.0625
    assert {r["op"] for r in recorder.spans} == {7}
    assert outer["parent"] == op["id"]
    assert all(r["parent"] == outer["id"] for r in inners)

    flat = totals(recorder.spans)
    assert flat["inner.calls"] == 2
    assert flat["inner.busy_s"] == 4.25
    assert flat["hot.calls"] == 3
    assert flat["hot.self_s"] == 0.375
    wall, selves = op_accounting(recorder.spans)[7]
    assert wall == selves == 0.0625 + 6.125


# -- failures and attribute restoration ---------------------------------------


class _FlakyWorkload:
    name = "flaky"
    trace_ops = 4

    def run_op(self, i, timer):
        with timer:
            if i == 3:
                raise RuntimeError("op 3 breaks")
        return i

    def check(self, i, result):
        return i != 2, str(i), {"abs_error": float(i)}


def test_failed_check_and_raising_op_are_counted():
    window = run_ops(_FlakyWorkload(), 0, count=6)
    assert window.attempted == 6
    assert window.failed == 2
    assert window.tokens == ["0", "1", "2", "error"]
    assert window.digest()[0] == 4
    assert window.head == {"abs_error": 2.0}


def test_each_op_is_scaled_by_the_calibrations_around_it():
    reference = harness.REFERENCE_MIXED_S
    window = Window(3, latencies=[1.0, 1.0, 1.0],
                    calibrations=[(0, reference), (2, 3 * reference),
                                  (3, reference)])
    assert window.scales() == [0.5, 0.5, 0.5]
    window.calibrations[1] = (2, reference)
    assert window.scales() == [1.0, 1.0, 1.0]
    assert Window(3, latencies=[1.0, 2.0]).scales() == [1.0, 1.0]


def _attribute_state():
    return [(patch.owner, patch.attr, vars(patch.owner).get(patch.attr))
            for patch in layers.patches()]


class _Capture:
    """Wraps a workload and records the wrapped attributes seen while
    its op runs."""

    def __init__(self, workload):
        self.workload = workload
        self.name = workload.name
        self.trace_ops = workload.trace_ops
        self.seen = None

    def run_op(self, i, timer):
        self.seen = _attribute_state()
        return self.workload.run_op(i, timer)

    def check(self, i, result):
        return self.workload.check(i, result)


def test_traced_pass_restores_every_attribute_and_untraced_installs_none():
    before = _attribute_state()
    workload = _Capture(WORKLOADS["ode-machine"](0))
    run_ops(workload, 0, count=1)
    assert workload.seen == before

    recorder = Recorder()
    with pytest.raises(RuntimeError):
        with traced(recorder, layers.patches()):
            Window(1).run(workload, 1, OpTimer(recorder))
            assert all(seen is not original for (_, _, seen), (_, _, original)
                       in zip(workload.seen, before))
            raise RuntimeError("leave the traced block early")
    assert _attribute_state() == before
    assert recorder.spans


# -- real ops: the trace accounts for the op wall ----------------------------


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_self_times_sum_to_op_wall(name):
    workload = WORKLOADS[name](0)
    recorder = Recorder()
    window = Window(1)
    try:
        with traced(recorder, layers.patches()):
            window.run(workload, 0, OpTimer(recorder))
    finally:
        workload.close()
    assert window.failed == 0
    ((wall, selves),) = op_accounting(recorder.spans).values()
    latency = window.latencies[0]
    assert selves == pytest.approx(wall, rel=1e-9)
    assert abs(selves - latency) <= 0.02 * latency
    assert len({r["name"] for r in recorder.spans}) > 1


# -- the benchmark definition ----------------------------------------------------


def test_benchmark_json_matches_the_harness():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"])
            for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert set(WORKLOADS) == set(run.WORKLOAD_NAMES)

"""The four benchmark workloads.

Every workload is a closed loop with one client in one process: op
``i + 1`` starts when op ``i`` has finished.  A workload object is built
by its constructor (the timed set-up), runs op ``i`` through
``run_op(i, timer)`` -- the ``timer`` context brackets exactly the part a
user waits for -- and judges the result with ``check(i, result)``.

The workload seed generates the inputs; the program only ever sees the
inputs.  Where a workload draws from a frozen pool (``ssa-machine``,
``serve-mix``), the seed picks the order and mix, and the pool excludes
inputs screened out by ``screen.py`` (see the comments at each list).
"""

from __future__ import annotations

import asyncio
import dataclasses
import hashlib
from fractions import Fraction

import numpy as np

from repro.apps.filters import iir_first_order, moving_average
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import MachineOptions, SynchronousMachine
from repro.core.stochastic_machine import StochasticMachine
from repro.crn.simulation.options import SimulationOptions
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.serve import JobSpec, MemoryResultStore, SimulationService
from repro.waves.probe import WaveformProbe

#: Largest deviation an ODE machine output may have from the
#: discrete-time reference (the E3 acceptance gate).
ODE_ERROR_GATE = 0.3

#: Largest deviation, in molecules, of an SSA machine output (the E14
#: gate).
SSA_ERROR_GATE = 4.0


def _op_rng(seed: int, i: int) -> np.random.Generator:
    """The generator for op ``i`` under workload seed ``seed``."""
    return np.random.default_rng((seed, i))


def _outputs_token(run) -> str:
    """Digest token of a machine run: its outputs, rounded."""
    return ",".join(f"{v:.9f}" for v in run.outputs["y"])


def _machine_observations(run) -> dict:
    return {"cycles": run.n_cycles,
            "sim_time": sum(span.duration for span in run.cycles),
            "abs_error": run.max_error()}


class OdeMachine:
    """``repro filter``'s path: two machines built once, fixed clocking,
    telemetry off, 10-sample streams (11 cycles) alternating ``ma2`` and
    ``iir``, inputs on the half-integer lattice in [0, 20]."""

    name = "ode-machine"
    samples = 10
    warmup_ops = 2
    trace_ops = 40
    tail_q = 0.9

    def __init__(self, seed: int):
        self.seed = seed
        self.machines = (SynchronousMachine(moving_average(2)),
                         SynchronousMachine(iir_first_order()))

    def run_op(self, i: int, timer):
        stream = list(_op_rng(self.seed, i).integers(0, 41, self.samples)
                      / 2.0)
        machine = self.machines[i % 2]
        with timer:
            run = machine.run({"x": stream})
        return run

    def check(self, i: int, run):
        observed = _machine_observations(run)
        return (observed["abs_error"] <= ODE_ERROR_GATE,
                _outputs_token(run), observed)

    def close(self) -> None:
        pass


class OdeObserved:
    """The same ODE and machine layers with every observer attached:
    each op builds a fresh adaptive-clocking machine with a metrics
    registry, an in-memory tracer, a waveform probe and the default
    protocol monitor, then runs a 6-sample stream."""

    name = "ode-observed"
    samples = 6
    warmup_ops = 2
    trace_ops = 50
    tail_q = 0.9

    def __init__(self, seed: int):
        self.seed = seed
        self.designs = (moving_average(2), iir_first_order())
        self.options = MachineOptions(clocking="adaptive")

    def run_op(self, i: int, timer):
        stream = list(_op_rng(self.seed, i).integers(0, 41, self.samples)
                      / 2.0)
        design = self.designs[i % 2]
        with timer:
            machine = SynchronousMachine(
                design, options=self.options, metrics=MetricsRegistry(),
                tracer=Tracer(MemorySink()), probe=WaveformProbe())
            run = machine.run({"x": stream})
        return run

    def check(self, i: int, run):
        observed = _machine_observations(run)
        token = f"{_outputs_token(run)}|{len(run.diagnostics)}"
        return observed["abs_error"] <= ODE_ERROR_GATE, token, observed

    def close(self) -> None:
        pass


def ma2_design() -> SignalFlowGraph:
    """The E14 two-tap moving average, built directly from the graph."""
    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x)
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d)))
    return sfg


#: Size of the SSA op pool.  Pool op ``k`` streams two even molecule
#: counts in [0, 80] through a fresh machine seeded with ``k``.
SSA_POOL_SIZE = 2000

#: Pool ops left out, found by ``python3 benchmarks/e2e/screen.py ssa``.
#: 12 of the 2,000 runs fail with the program as screened: they wedge the
#: clock (one straggler ``C_green`` molecule while ``C_red`` has leaked
#: back, so both absence indicators stay suppressed and the driver raises
#: after ``max_cycle_time``) or end more than ``SSA_ERROR_GATE``
#: molecules off.  Both are known limitations of the SSA driver, and a
#: benchmark op must not fail.  The other 143 need a straggler flush,
#: after ``patience`` (20 time units) of simulated waiting that makes
#: them the slowest ops; how many a run draws is chance, and with them
#: in the pool ``ops_per_s`` varied by 8% (IQR / median) over ten seeds.
SSA_EXCLUDED = (
    0, 5, 8, 15, 45, 99, 106, 111, 114, 124, 139, 144, 170, 177, 192, 200,
    210, 219, 265, 288, 289, 328, 331, 343, 344, 358, 368, 385, 389, 424,
    437, 438, 442, 450, 459, 471, 481, 495, 507, 515, 530, 532, 547, 571,
    580, 599, 615, 626, 631, 632, 645, 656, 689, 701, 703, 717, 735, 738,
    777, 782, 793, 802, 803, 852, 857, 883, 913, 915, 920, 921, 942, 955,
    956, 961, 962, 991, 1012, 1023, 1025, 1030, 1038, 1150, 1171, 1176,
    1187, 1250, 1263, 1278, 1286, 1289, 1300, 1351, 1354, 1355, 1361,
    1381, 1382, 1387, 1409, 1438, 1439, 1450, 1452, 1458, 1460, 1481,
    1518, 1527, 1540, 1553, 1566, 1568, 1576, 1584, 1604, 1615, 1623,
    1628, 1666, 1670, 1672, 1680, 1684, 1685, 1696, 1704, 1728, 1744,
    1747, 1776, 1790, 1795, 1802, 1807, 1809, 1810, 1815, 1823, 1827,
    1839, 1845, 1851, 1857, 1862, 1866, 1876, 1888, 1899, 1907, 1922,
    1951, 1954, 1966, 1967, 1996,
)


def ssa_pool_op(k: int) -> tuple[list[int], int]:
    """``(stream, machine seed)`` of SSA pool op ``k``."""
    rng = np.random.default_rng((14, k))
    return [int(v) for v in 2 * rng.integers(0, 41, 2)], k


class SsaMachine:
    """The stochastic machine: a fresh ``StochasticMachine`` on the E14
    ``ma2`` design per op, 2-sample streams (3 cycles).  The seed
    permutes the screened pool of ``(stream, machine seed)`` ops."""

    name = "ssa-machine"
    warmup_ops = 2
    trace_ops = 30
    tail_q = 0.9

    def __init__(self, seed: int):
        excluded = set(SSA_EXCLUDED)
        pool = np.array([k for k in range(SSA_POOL_SIZE)
                         if k not in excluded])
        self.order = np.random.default_rng(seed).permutation(pool)
        self.design = ma2_design()

    def run_op(self, i: int, timer):
        stream, machine_seed = ssa_pool_op(
            int(self.order[i % len(self.order)]))
        with timer:
            machine = StochasticMachine(self.design, seed=machine_seed)
            run = machine.run({"x": stream})
        return run

    def check(self, i: int, run):
        observed = _machine_observations(run)
        return (observed["abs_error"] <= SSA_ERROR_GATE,
                _outputs_token(run), observed)

    def close(self) -> None:
        pass


#: ``serve-mix`` spec pool: this many ODE jobs on ``random``-scenario
#: networks, then this many SSA sweep jobs on ``counter`` variants.
SERVE_ODE_SPECS = 900
SERVE_SWEEP_SPECS = 100

#: ``random``-scenario network seeds left out of the ODE pool, found by
#: ``python3 benchmarks/e2e/screen.py serve``: each needs more than 20k
#: RHS evaluations (0.2-0.8 s) where the median network needs ~100.
#: Whether such a rare spec is drawn, and missed, in a run is down to
#: the Zipf draw, so one of them swings ``ops_per_s`` by several percent
#: between seeds.
SERVE_SLOW_NETWORKS = (100, 148)

#: Zipf exponent of spec popularity, and the result store's capacity:
#: the working set exceeds the store, so LRU eviction puts misses beside
#: hits.
SERVE_ZIPF = 1.1
SERVE_STORE_ENTRIES = 128

#: Seed of the popularity order of the pool, the same for every workload
#: seed.  The top ten specs take 48% of the draws, so with the order
#: seeded per run the hit latency (which depends on the hot specs'
#: networks) would move ``op_p50_ms`` by ~10% between seeds.
SERVE_POPULARITY_SEED = 18


def serve_pool() -> list[JobSpec]:
    """The 1,000 distinct job specs ``serve-mix`` draws from."""
    excluded = set(SERVE_SLOW_NETWORKS)
    ode_options = SimulationOptions(n_samples=200)
    sweep_options = SimulationOptions(n_samples=200, backend="batch")
    network_seeds = (s for s in range(10 * SERVE_ODE_SPECS)
                     if s not in excluded)
    pool = [JobSpec(kind="simulate", scenario="random",
                    scenario_params={"seed": s}, t_final=4.0,
                    method="ode", options=ode_options, seed=s)
            for s, _ in zip(network_seeds, range(SERVE_ODE_SPECS))]
    # The default counter takes one SSA event per run; 2-4 bits and 8-36
    # pulse molecules give 0.5k-4k events per 64-run sweep.
    pool += [JobSpec(kind="sweep", scenario="counter",
                     scenario_params={"bits": 2 + k % 3,
                                      "pulse": 8 + 4 * (k % 8)},
                     t_final=4.0, method="ssa", options=sweep_options,
                     seed=k, n_runs=64)
             for k in range(SERVE_SWEEP_SPECS)]
    return pool


def result_fingerprint(result: dict) -> str:
    """Bitwise fingerprint of a job result.

    Equal fingerprints mean equal result bits, which implies equal
    ``canonical_result_bytes`` at a fraction of its cost (hashing raw
    float64 buffers instead of rendering every value as text).
    """
    digest = hashlib.sha256()
    for key in sorted(result):
        value = result[key]
        digest.update(key.encode())
        if isinstance(value, np.ndarray):
            digest.update(str(value.shape).encode())
            digest.update(np.ascontiguousarray(value).tobytes())
        else:
            digest.update(repr(value).encode())
    return digest.hexdigest()


class ServeMix:
    """Jobs through ``SimulationService`` with an LRU result store
    smaller than the working set.  The seed draws the job sequence,
    Zipf(1.1) over a fixed shuffle of the pool; each submit sends a
    fresh spec object, as a client request would, so canonical hashing
    runs on every job."""

    name = "serve-mix"
    warmup_ops = 20
    trace_ops = 4000
    # p99.9 has >= 10 samples beyond it, but it is set by how often a
    # handful of stiff networks is drawn and swings ~35% between seeds.
    tail_q = 0.99
    _draw_block = 4096

    def __init__(self, seed: int):
        self.pool = serve_pool()
        self.popular = np.random.default_rng(
            SERVE_POPULARITY_SEED).permutation(len(self.pool))
        ranks = np.arange(1, len(self.pool) + 1, dtype=float)
        weights = ranks ** -SERVE_ZIPF
        self.weights = weights / weights.sum()
        self.rng = np.random.default_rng(seed)
        self.draws: list[int] = []
        self.first_seen: dict[str, str] = {}
        self.loop = asyncio.new_event_loop()
        self.service = SimulationService(
            MemoryResultStore(max_entries=SERVE_STORE_ENTRIES),
            n_workers=1, max_threads=1)

    def _spec(self, i: int) -> JobSpec:
        while len(self.draws) <= i:
            self.draws.extend(self.rng.choice(
                len(self.pool), size=self._draw_block,
                p=self.weights).tolist())
        return self.pool[self.popular[self.draws[i]]]

    async def _job(self, spec: JobSpec, timer):
        with timer:
            handle = await self.service.submit(spec)
            result = await handle.result()
        return handle, result

    def run_op(self, i: int, timer):
        spec = dataclasses.replace(self._spec(i))
        return self.loop.run_until_complete(self._job(spec, timer))

    def check(self, i: int, outcome):
        handle, result = outcome
        fingerprint = result_fingerprint(result)
        expected = self.first_seen.setdefault(handle.cache_key, fingerprint)
        token = f"{handle.cache_key[:16]}:{fingerprint[:16]}:{handle.cached:d}"
        return fingerprint == expected, token, {"hit": int(handle.cached)}

    def close(self) -> None:
        self.loop.run_until_complete(self.service.close())
        self.loop.close()


WORKLOADS = {cls.name: cls
             for cls in (OdeMachine, OdeObserved, SsaMachine, ServeMix)}

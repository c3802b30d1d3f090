"""Machine templates: one read-only build per design, shared by machines.

Every machine on one design runs the same synthesized network, kinetics
and clock tables; only its seed, telemetry and faults differ.
``repro.core.machine`` builds those seed-independent parts once per
content key into a :class:`MachineTemplate` and shares it.  These tests
pin what the sharing must keep:

* the key is content -- an equal graph hits, a graph edited by any
  mutator misses (a malformed one raises on every build), every key
  field moves it, and the per-machine arguments do not;
* the template is read-only: its arrays raise on a write, its network
  refuses every mutator, and copies (scenario builders included) stay
  editable;
* nothing per machine leaks through it: telemetry, fault copies,
  generators, propensity state and kinetics scratch (machines of one
  template run on threads at once), and kernel bindings (the Python
  twin still runs once the kernel goes);
* a hit builds exactly what a miss builds, on both engines, under fixed,
  adaptive and ClockGlitch runs;
* the cache is bounded.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest

from repro.apps.filters import iir_first_order, moving_average
from repro.core.dfg import SignalFlowGraph
from repro.core.machine import (TEMPLATE_CACHE_SIZE, MachineOptions,
                                SynchronousMachine, machine_templates)
from repro.core.stochastic_machine import StochasticMachine
from repro.crn import native
from repro.crn.rates import RateScheme
from repro.crn.reaction import Reaction
from repro.crn.simulation.ssa import _CompiledLoop
from repro.errors import NetworkError, SynthesisError
from repro.faults.models import ClockGlitch, FaultPlan, Leak, RateMismatch
from repro.obs import MemorySink, MetricsRegistry, Tracer
from repro.scenarios import get_scenario


@pytest.fixture(autouse=True)
def cold_cache():
    machine_templates.cache_clear()
    yield
    machine_templates.cache_clear()


def ma2(gain: Fraction = Fraction(1, 2),
        initial: float = 0.0) -> SignalFlowGraph:
    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x, initial=initial)
    sfg.output("y", sfg.add(sfg.gain(gain, x), sfg.gain(Fraction(1, 2), d)))
    return sfg


def misses() -> int:
    return machine_templates.cache_info().misses


def outcome(machine, stream, **kwargs) -> bytes:
    """A run's outputs, register history, cycle spans and flush count."""
    run = machine.run({"x": stream}, **kwargs)
    parts = [run.outputs["y"].tobytes(), repr(run.state_history),
             repr([(s.index, s.t0, s.t1) for s in run.cycles]),
             repr(getattr(machine, "flush_events", None))]
    if run.trajectory is not None:
        parts.append(run.trajectory.states.tobytes())
    return hashlib.sha256(
        b"|".join(p if isinstance(p, bytes) else p.encode()
                  for p in parts)).digest()


class TestKey:
    def test_a_fresh_equal_graph_hits(self):
        first = StochasticMachine(ma2(), seed=0)
        info = machine_templates.cache_info()
        second = StochasticMachine(ma2(), seed=1)
        after = machine_templates.cache_info()
        assert (after.hits, after.misses) == (info.hits + 1, info.misses)
        assert second.template is first.template
        assert second.network is first.network
        assert second.simulator is not first.simulator

    def test_an_edited_graph_misses(self):
        sfg = SignalFlowGraph("ma2")
        x = sfg.input("x")
        d = sfg.delay("d1", source=x)
        sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                                sfg.gain(Fraction(1, 2), d)))
        first = SynchronousMachine(sfg)
        sfg.output("z", sfg.gain(Fraction(1, 4), x))
        second = SynchronousMachine(sfg)
        assert misses() == 2
        assert second.template is not first.template
        assert second.design.outputs == ("y", "z")
        assert first.design.outputs == ("y",)

    # A graph is keyed on its content, not reduced: each mutator must
    # move the key, even an edit the matrix form would not show (a gain
    # or an add that feeds no sink).
    GRAPH_EDITS = {
        "input": lambda sfg, x, d: sfg.input("u"),
        "output": lambda sfg, x, d: sfg.output("z", x),
        "delay": lambda sfg, x, d: sfg.delay("d2", source=x),
        "gain": lambda sfg, x, d: sfg.gain(Fraction(1, 4), x),
        "add": lambda sfg, x, d: sfg.add(x, d),
        "set_initial": lambda sfg, x, d: sfg.set_initial("d1", 4.0),
        "rename": lambda sfg, x, d: setattr(sfg, "name", "ma2b"),
    }

    @staticmethod
    def unwired():
        """``ma2`` with its delay's input not yet connected."""
        sfg = SignalFlowGraph("ma2")
        x = sfg.input("x")
        d = sfg.delay("d1")
        y = sfg.add(sfg.gain(Fraction(1, 2), x), sfg.gain(Fraction(1, 2), d))
        sfg.output("y", y)
        return sfg, x, d, y

    @pytest.mark.parametrize("edit", sorted(GRAPH_EDITS))
    def test_each_graph_mutator_misses(self, edit):
        sfg, x, d, _ = self.unwired()
        sfg.connect(x, d)
        first = SynchronousMachine(sfg)
        assert SynchronousMachine(sfg).template is first.template
        self.GRAPH_EDITS[edit](sfg, x, d)
        second = SynchronousMachine(sfg)
        assert misses() == 2
        assert second.template is not first.template
        assert SynchronousMachine(sfg).template is second.template

    def test_connect_moves_the_key(self):
        # Two graphs with equal nodes whose delay stores another signal:
        # ``connect`` writes only the delay inputs, which the key holds.
        fed_forward, x, d, _ = self.unwired()
        fed_forward.connect(x, d)
        fed_back, _, d, y = self.unwired()
        fed_back.connect(y, d)
        first = SynchronousMachine(fed_forward)
        second = SynchronousMachine(fed_back)
        assert misses() == 2
        assert second.design.coefficients != first.design.coefficients

    def test_a_malformed_graph_raises_on_every_build(self):
        sfg, *_ = self.unwired()
        for _ in range(2):
            with pytest.raises(SynthesisError, match="has no input"):
                SynchronousMachine(sfg)
        assert machine_templates.cache_info().currsize == 0

    BASE = dict(signed=None, gating="catalytic")

    @pytest.mark.parametrize("change", [
        {"design": ma2(Fraction(1, 4))},
        {"design": ma2(initial=4.0)},
        {"design": moving_average(2)},  # same chemistry, another name
        {"scheme": RateScheme().scaled(fast_factor=2.0)},
        {"rates": "scheme"},
        {"rates": "scaled"},
        {"signed": True},
        {"gating": "consuming"},
        {"options": MachineOptions(clocking="adaptive")},
        {"options": MachineOptions(oscillator="relaxation")},
        {"engine": StochasticMachine},
    ], ids=lambda change: "-".join(
        f"{k}={getattr(v, '__name__', '') or type(v).__name__}"
        if not isinstance(v, (str, float, bool)) else f"{k}={v}"
        for k, v in change.items()))
    def test_each_key_field_moves_the_key(self, change):
        scheme = RateScheme()
        base = dict(self.BASE, scheme=scheme)
        SynchronousMachine(ma2(), **base)
        engine = change.pop("engine", SynchronousMachine)
        kwargs = dict(base, **change)
        if engine is StochasticMachine:
            for name in ("gating", "signed"):
                del kwargs[name]
        design = kwargs.pop("design", ma2())
        if kwargs.get("rates") is not None:
            rates = ma2_rates(scheme)
            kwargs["rates"] = rates if kwargs["rates"] == "scheme" \
                else 1.01 * rates
        engine(design, **kwargs)
        assert misses() == 2

    def test_per_machine_arguments_stay_out_of_the_key(self):
        tracer, metrics = Tracer(MemorySink()), MetricsRegistry()
        machines = [
            SynchronousMachine(ma2()),
            SynchronousMachine(ma2(), max_cycle_time=50.0,
                               method="LSODA", tracer=tracer,
                               metrics=metrics),
            StochasticMachine(ma2(), seed=0),
            StochasticMachine(ma2(), seed=np.random.default_rng(5),
                              max_cycle_time=90.0, tracer=tracer,
                              metrics=metrics),
            StochasticMachine(ma2(), seed=1, faults=FaultPlan(
                [ClockGlitch(cycle=1, fraction=0.05)], seed=3)),
        ]
        assert misses() == 2
        assert machines[1].template is machines[0].template
        assert machines[3].template is machines[2].template
        # A fault plan builds its own template on a copy of the cached
        # one's network, around the cached circuit.
        assert machines[4].circuit is machines[2].circuit

    def test_equal_explicit_rates_hit(self):
        rates = ma2_rates(RateScheme())
        first = SynchronousMachine(ma2(), rates=rates)
        second = SynchronousMachine(ma2(), rates=rates.copy())
        assert second.template is first.template
        # The template froze a private copy, not the caller's array.
        assert rates.flags.writeable
        rates[0] = 0.0
        assert first.simulator.kinetics.rates[0] != 0.0

    def test_a_built_circuit_bypasses_the_cache(self):
        circuit = SynchronousMachine(ma2()).circuit
        info = machine_templates.cache_info()
        first = StochasticMachine(circuit, seed=0)
        second = StochasticMachine(circuit, seed=0)
        assert machine_templates.cache_info() == info
        assert second.template is not first.template


def ma2_rates(scheme: RateScheme) -> np.ndarray:
    return SynchronousMachine(ma2(), scheme).network.rate_vector(scheme)


def _arrays(template) -> dict[str, np.ndarray]:
    simulator = template.simulator
    arrays = {}
    for name in ("departure", "boundary", "settle"):
        table = getattr(template, name)
        for field in ("ptr", "species", "weights", "thresholds", "signs"):
            arrays[f"{name}.{field}"] = getattr(table, field)
    for name, value in vars(simulator.kinetics).items():
        for i, array in enumerate(value if isinstance(value, tuple)
                                  else (value,)):
            if isinstance(array, np.ndarray):
                arrays[f"kinetics.{name}[{i}]"] = array
    if hasattr(simulator, "constants"):
        arrays["constants"] = simulator.constants
    return arrays


class TestReadOnly:
    @pytest.mark.parametrize("engine", [SynchronousMachine,
                                        StochasticMachine])
    def test_every_template_array_refuses_a_write(self, engine):
        machine = engine(ma2())
        arrays = _arrays(machine.template)
        assert len(arrays) > 30
        for name, array in arrays.items():
            with pytest.raises(ValueError, match="read-only"):
                array[...] = array
            assert not array.flags.writeable, name

    def test_each_machine_writes_only_its_own_buffers(self):
        machine = StochasticMachine(ma2(), seed=0)
        machine.run({"x": [8, 4]})
        kinetics = machine.simulator.kinetics
        assert kinetics is not machine.template.simulator.kinetics
        assert kinetics._xbuf.flags.writeable
        assert kinetics._cbuf.flags.writeable
        assert kinetics.rates is machine.template.simulator.kinetics.rates
        state = machine.simulator.propensity_state
        assert state.counts.flags.writeable and state.a.flags.writeable
        shared = machine.template.simulator.kinetics
        assert state._dep_rows is shared.dependency_csr()[1]
        assert state._fire_delta is shared.fire_csr()[2]
        assert not hasattr(machine.template.simulator, "rng")

    @pytest.mark.parametrize("mutate", [
        lambda n: n.add_species("orphan"),
        lambda n: n.add_reaction(Reaction("orphan", None, "slow")),
        lambda n: n.add("orphan", None, "slow"),
        lambda n: n.extend([Reaction("orphan", None, "slow")]),
        lambda n: n.extend([]),
        lambda n: n.set_initial("C_red", 1.0),
        lambda n: n.merge(n.copy()),
    ], ids=["add_species", "add_reaction", "add", "extend", "extend-empty",
            "set_initial", "merge"])
    def test_every_network_mutator_refuses(self, mutate):
        network = SynchronousMachine(ma2()).network
        before = network.to_text()
        with pytest.raises(NetworkError, match=r"read-only.*copy\(\)"):
            mutate(network)
        assert network.to_text() == before

    def test_the_shared_design_refuses_a_write(self):
        design = ma2().to_matrix()
        machine = SynchronousMachine(design)
        assert machine.design is not design
        with pytest.raises(TypeError):
            machine.design.coefficients[("y", "x")] = Fraction(3)
        with pytest.raises(TypeError):
            machine.design.initial_state["d1"] = 1.0
        with pytest.raises(AttributeError):
            machine.design.outputs.append("z")
        design.coefficients[("y", "x")] = Fraction(3)  # the caller's own
        assert SynchronousMachine(ma2()).design.coefficients[
            ("y", "x")] == Fraction(1, 2)

    def test_reactions_cannot_be_appended_or_replaced(self):
        network = SynchronousMachine(ma2()).network
        with pytest.raises(AttributeError):
            network.reactions.append(network.reactions[0])
        with pytest.raises(TypeError):
            network.reactions[0] = network.reactions[1]

    def test_a_copy_is_editable(self):
        network = SynchronousMachine(ma2()).network
        clone = network.copy()
        clone.add("orphan", None, "slow")
        clone.set_initial("C_red", 1.0)
        assert clone.n_reactions == network.n_reactions + 1
        assert network.get_initial("C_red") == 20.0

    @pytest.mark.parametrize("scenario", ["ma", "iir"])
    def test_scenario_builders_hand_out_copies(self, scenario):
        first = get_scenario(scenario).network()
        first.add("orphan", None, "slow")
        second = get_scenario(scenario).network()
        assert second.n_reactions == first.n_reactions - 1
        assert "orphan" not in second


class TestPerMachine:
    def test_a_traced_build_leaves_the_next_untraced_one_alone(self):
        for engine in (SynchronousMachine, StochasticMachine):
            tracer, metrics = Tracer(MemorySink()), MetricsRegistry()
            engine(ma2(), tracer=tracer, metrics=metrics).run(
                {"x": [8, 4]})
            records = len(tracer.sink.records)
            snapshot = metrics.to_dict()
            assert records and snapshot["counters"]
            bare = engine(ma2())
            assert not bare.tracer.enabled and not bare.metrics.enabled
            assert not bare.simulator.tracer.enabled
            bare.run({"x": [8, 4]})
            assert len(tracer.sink.records) == records
            assert metrics.to_dict() == snapshot

    @pytest.mark.parametrize("model", [
        Leak(rate=1e-3), RateMismatch(sigma=0.25),
        ClockGlitch(cycle=1, fraction=0.05)],
        ids=["leak", "rate-mismatch", "clock-glitch"])
    def test_a_faulted_machine_leaves_the_template_pristine(self, model):
        stream = [8, 4, 6]
        faulted = StochasticMachine(ma2(), seed=1,
                                    faults=FaultPlan([model], seed=3))
        faulted.run({"x": stream})
        assert misses() == 1
        hit = StochasticMachine(ma2(), seed=2)
        assert misses() == 1
        assert faulted.circuit is hit.circuit
        hit_outcome = outcome(hit, stream)
        machine_templates.cache_clear()
        miss = StochasticMachine(ma2(), seed=2)
        assert hit.network.to_text() == miss.network.to_text()
        assert hit_outcome == outcome(miss, stream)

    def test_a_faulted_network_is_a_private_copy(self):
        pristine = StochasticMachine(ma2(), seed=0)
        faulted = StochasticMachine(ma2(), seed=0, faults=FaultPlan(
            [Leak(rate=1e-3)], seed=3))
        assert faulted.circuit is pristine.circuit
        assert faulted.network is not pristine.network
        assert faulted.network.n_reactions > pristine.network.n_reactions
        assert faulted.simulator.kinetics.n_reactions == \
            faulted.network.n_reactions

    @pytest.mark.parametrize("path", ["kernel", "twin"])
    def test_threads_on_one_template_match_serial_runs(self, path,
                                                       monkeypatch):
        # The twins switch threads between Python statements that use
        # the kinetics scratch, so they show a shared buffer at once.
        if path == "twin":
            monkeypatch.setattr(native, "_kernel", None)
        streams = {"ode": ([8.0, 2.0, 6.0], [4.0, 0.0, 10.0]),
                   "ssa": ([8, 4], [20, 2])}
        build = {"ode": lambda seed: SynchronousMachine(ma2()),
                 "ssa": lambda seed: StochasticMachine(ma2(), seed=seed)}
        jobs = [(engine, seed, stream) for engine in ("ode", "ssa")
                for seed, stream in enumerate(streams[engine])]
        serial = [outcome(build[engine](seed), stream)
                  for engine, seed, stream in jobs]
        machines = [build[engine](seed) for engine, seed, _ in jobs]
        assert len({id(m.template) for m in machines}) == 2
        barrier = threading.Barrier(len(jobs), timeout=60)
        results: list = [None] * len(jobs)

        def work(i: int) -> None:
            barrier.wait()
            results[i] = outcome(machines[i], jobs[i][2])

        # More threads than a 2-core host has cores, switching often.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(len(jobs))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == serial

    def test_a_missing_kernel_after_the_build_reaches_the_twin(
            self, monkeypatch):
        calls = []
        compiled_poll = _CompiledLoop.poll

        def counting(self, *args):
            calls.append(1)
            return compiled_poll(self, *args)

        monkeypatch.setattr(_CompiledLoop, "poll", counting)
        compiled = outcome(StochasticMachine(ma2(), seed=7), [8, 4])
        ode = SynchronousMachine(ma2())
        ode.run({"x": [8.0, 2.0]})
        if native.load() is None:
            pytest.skip("no compiled kernel on this host")
        assert calls and ode.simulator.kinetics._kernel
        calls.clear()
        monkeypatch.setattr(native, "_kernel", None)
        twin = StochasticMachine(ma2(), seed=7)
        assert outcome(twin, [8, 4]) == compiled
        assert not calls
        ode = SynchronousMachine(ma2())
        ode.run({"x": [8.0, 2.0]})
        assert ode.simulator.kinetics._kernel is False


class TestBound:
    def test_the_lru_evicts(self):
        assert machine_templates.cache_info().maxsize == TEMPLATE_CACHE_SIZE
        first = SynchronousMachine(ma2())
        for initial in range(TEMPLATE_CACHE_SIZE):
            SynchronousMachine(ma2(initial=1.0 + initial))
        info = machine_templates.cache_info()
        assert info.currsize == TEMPLATE_CACHE_SIZE
        again = SynchronousMachine(ma2())
        assert again.template is not first.template
        assert machine_templates.cache_info().misses == info.misses + 1


def _hit_and_miss(build, stream, **kwargs) -> tuple[bytes, bytes, bytes]:
    """Outcomes of a miss, then a hit, then a miss on a cleared cache."""
    cold = outcome(build(), stream, **kwargs)
    hit = outcome(build(), stream, **kwargs)
    machine_templates.cache_clear()
    return cold, hit, outcome(build(), stream, **kwargs)


@pytest.mark.parametrize("design", [moving_average(2), iir_first_order()],
                         ids=["ma2", "iir"])
@pytest.mark.parametrize("mode", ["fixed", "adaptive", "glitch"])
def test_ode_hits_and_misses_agree_bitwise(design, mode):
    options = MachineOptions(clocking="adaptive" if mode == "adaptive"
                             else "fixed")

    def build():
        faults = (FaultPlan([ClockGlitch(cycle=1, fraction=0.05)], seed=3)
                  if mode == "glitch" else None)
        return SynchronousMachine(design, options=options, faults=faults)

    cold, hit, miss = _hit_and_miss(build, [8.0, 2.0, 6.0], record=True)
    assert cold == hit == miss


@pytest.mark.parametrize("mode", ["fixed", "adaptive", "glitch"])
def test_ssa_hits_and_misses_agree_bitwise(mode):
    options = MachineOptions(clocking="adaptive" if mode == "adaptive"
                             else "fixed")

    def build():
        faults = (FaultPlan([ClockGlitch(cycle=1, fraction=0.05)], seed=3)
                  if mode == "glitch" else None)
        return StochasticMachine(ma2(), seed=11, options=options,
                                 faults=faults)

    cold, hit, miss = _hit_and_miss(build, [8, 4, 6], record=True)
    assert cold == hit == miss

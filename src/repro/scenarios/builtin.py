"""Built-in scenarios: the circuits the paper's claims ride on.

Each builder imports its circuit machinery lazily so that importing
:mod:`repro.scenarios` stays cheap and cycle-free (the fault adapters
live in :mod:`repro.faults.circuits`, which resolves names back through
this registry).

The probed runners are byte-for-byte the bodies that used to live in
``repro.waves.runner`` -- the waves golden-VCD CI diff pins their
behaviour, so they moved here unchanged.  Likewise the ``clock`` and
``counter`` conformance recipes reproduce the exact targets the old
``conformance.generator._circuit_targets`` built.
"""

from __future__ import annotations

from repro.errors import ScenarioError
from repro.scenarios.registry import Scenario, register_scenario


# -- network builders ---------------------------------------------------------


def _clock_network(mass: float = 20.0, gating: str = "catalytic",
                   acceleration: str | None = None,
                   oscillator: str = "molecular"):
    from repro.core.clock import build_clock

    network, _, _ = build_clock(mass=mass, gating=gating,
                                acceleration=acceleration,
                                oscillator=oscillator)
    return network


def _counter_network(bits: int = 2, pulse: float = 1.0):
    from repro.digital.counter import BinaryCounter

    counter = BinaryCounter(int(bits))
    network = counter.network.copy()
    network.set_initial(counter.input_pulse, float(pulse))
    return network


def _ma_network(taps: int = 2):
    from repro.apps.filters import moving_average
    from repro.core.machine import SynchronousMachine

    # A copy: machines of one design share their read-only network.
    return SynchronousMachine(moving_average(int(taps))).network.copy()


def _iir_network():
    from repro.apps.filters import iir_first_order
    from repro.core.machine import SynchronousMachine

    return SynchronousMachine(iir_first_order()).network.copy()


def _random_network(seed: int = 0, max_species: int = 5,
                    max_reactions: int = 6, name: str = "conf"):
    from repro.conformance.generator import random_network

    return random_network(int(seed), max_species=int(max_species),
                          max_reactions=int(max_reactions), name=name)


# -- interactive drivers ------------------------------------------------------


def _clock_driver(mass: float = 20.0, gating: str = "catalytic",
                  acceleration: str | None = None,
                  oscillator: str = "molecular"):
    """The ``(network, Clock, PhaseProtocol)`` builder trio."""
    from repro.core.clock import build_clock

    return build_clock(mass=mass, gating=gating,
                       acceleration=acceleration,
                       oscillator=oscillator)


def _relaxation_clock_network(mass: float = 20.0,
                              gating: str = "catalytic"):
    return _clock_network(mass=mass, gating=gating,
                          oscillator="relaxation")


def _relaxation_clock_driver(mass: float = 20.0,
                             gating: str = "catalytic"):
    return _clock_driver(mass=mass, gating=gating,
                         oscillator="relaxation")


def _counter_driver(bits: int = 2):
    from repro.digital.counter import BinaryCounter

    return BinaryCounter(int(bits))


def _ma_driver(taps: int = 2, **machine_kwargs):
    from repro.apps.filters import moving_average
    from repro.core.machine import SynchronousMachine

    return SynchronousMachine(moving_average(int(taps)),
                              **machine_kwargs)


def _iir_driver(**machine_kwargs):
    from repro.apps.filters import iir_first_order
    from repro.core.machine import SynchronousMachine

    return SynchronousMachine(iir_first_order(), **machine_kwargs)


# -- fault-campaign adapters --------------------------------------------------


def _counter_circuit(**kwargs):
    from repro.faults.circuits import CounterCircuit

    return CounterCircuit(**kwargs)


def _ma_circuit(**kwargs):
    from repro.faults.circuits import _make_ma

    return _make_ma(**kwargs)


def _iir_circuit(**kwargs):
    from repro.faults.circuits import _make_iir

    return _make_iir(**kwargs)


# -- probed (waves) runners ---------------------------------------------------


def _probed_counter(probe, *, seed=0, bits=2, pulses=None, **_) -> dict:
    from repro.digital import BinaryCounter

    counter = BinaryCounter(bits)
    n_pulses = pulses if pulses is not None else 2 ** bits + 2
    run = counter.count(n_pulses, seed=seed, probe=probe)
    return {"values": list(run.values), "overflow": run.overflow,
            "settled": all(run.settled)}


def _probed_fsm(probe, *, seed=0, machine="parity", pattern="101",
                word="110101", **_) -> dict:
    from repro.digital.fsm import parity_machine, sequence_detector

    if machine == "parity":
        fsm = parity_machine()
    elif machine == "detector":
        fsm = sequence_detector(pattern)
    else:
        raise ScenarioError(f"unknown FSM {machine!r}; expected "
                            f"'parity' or 'detector'")
    run = fsm.run(list(word), seed=seed, probe=probe)
    return {"trace": list(run.trace),
            "outputs": {name: counts[-1] for name, counts
                        in run.output_counts.items()}}


def _probed_machine(design_builder):
    def run(probe, *, monitor=None, input_samples=None,
            clocking="fixed", oscillator="molecular", **_) -> dict:
        from repro.core.machine import MachineOptions, SynchronousMachine

        samples = list(input_samples) if input_samples is not None \
            else [8.0, 4.0, 6.0, 2.0]
        machine = SynchronousMachine(
            design_builder(), monitor=monitor, probe=probe,
            options=MachineOptions(clocking=clocking,
                                   oscillator=oscillator))
        run = machine.run({"x": samples})
        return {"outputs": [float(v) for v in run.outputs["y"]],
                "reference": [float(v) for v in run.reference["y"]],
                "max_error": run.max_error(),
                "n_cycles": run.n_cycles,
                "monitor_diagnostics": [
                    d.format() for d in run.diagnostics
                    if not d.code.startswith("REPRO-A")]}
    return run


def _probed_ma(probe, *, monitor=None, taps=2, input_samples=None,
               clocking="fixed", oscillator="molecular", **_) -> dict:
    from repro.apps import moving_average

    return _probed_machine(lambda: moving_average(taps))(
        probe, monitor=monitor, input_samples=input_samples,
        clocking=clocking, oscillator=oscillator)


def _probed_iir(probe, *, monitor=None, input_samples=None,
                clocking="fixed", oscillator="molecular", **_) -> dict:
    from repro.apps import iir_first_order

    return _probed_machine(iir_first_order)(
        probe, monitor=monitor, input_samples=input_samples,
        clocking=clocking, oscillator=oscillator)


# -- registration -------------------------------------------------------------
# Order is meaningful: CLI choice lists and the conformance target list
# follow registration order.

register_scenario(Scenario(
    name="clock",
    description="three-phase RGB molecular clock (paper fig. E1)",
    tags=frozenset({"network", "conformance-circuit"}),
    build_network=_clock_network,
    build_driver=_clock_driver,
    conformance={"target": "circuit:clock", "t_final_cap": 2.0,
                 "stochastic": False, "stiff": True, "params": {}},
))

register_scenario(Scenario(
    name="counter",
    description="n-bit dual-rail ripple counter (paper fig. E5)",
    tags=frozenset({"network", "waves", "faults",
                    "conformance-circuit"}),
    build_network=_counter_network,
    build_driver=_counter_driver,
    make_circuit=_counter_circuit,
    run_probed=_probed_counter,
    conformance={"target": "circuit:counter2", "t_final_cap": 1.0,
                 "stochastic": True, "stiff": True,
                 "params": {"bits": 2}},
))

register_scenario(Scenario(
    name="fsm",
    description="finite-state machine (parity / sequence detector)",
    tags=frozenset({"waves"}),
    run_probed=_probed_fsm,
))

register_scenario(Scenario(
    name="ma",
    description="two-tap moving-average filter machine (paper fig. E3)",
    tags=frozenset({"network", "waves", "faults"}),
    build_network=_ma_network,
    build_driver=_ma_driver,
    make_circuit=_ma_circuit,
    run_probed=_probed_ma,
))

register_scenario(Scenario(
    name="iir",
    description="first-order IIR filter machine",
    tags=frozenset({"network", "waves", "faults"}),
    build_network=_iir_network,
    build_driver=_iir_driver,
    make_circuit=_iir_circuit,
    run_probed=_probed_iir,
))

register_scenario(Scenario(
    name="clock-relaxation",
    description="relaxation-oscillator clock (Shi & Gao chemistry) "
                "driving the same three-colour protocol",
    tags=frozenset({"network", "conformance-circuit"}),
    build_network=_relaxation_clock_network,
    build_driver=_relaxation_clock_driver,
    conformance={"target": "circuit:clock-relaxation",
                 "t_final_cap": 2.0,
                 "stochastic": False, "stiff": True, "params": {}},
))

register_scenario(Scenario(
    name="random",
    description="seeded lint-clean random mass-action network "
                "(conformance generator)",
    tags=frozenset({"network"}),
    build_network=_random_network,
))

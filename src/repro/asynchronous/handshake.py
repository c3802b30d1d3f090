"""Asynchronous (self-timed) sequential computation.

The companion abstract (IWBDA 2011) implements computation that is
self-timed rather than clocked: delay elements transfer through the same
three colour categories, but there is no free-running oscillator --
the absence indicators alone implement a multi-phase *handshaking*
protocol.  Quantities move exactly one delay element per full colour
rotation, and a rotation begins whenever data is present; with no data,
nothing moves and nothing is consumed (except the indicator trickle).

Because the indicators are shared, the handshake is still *global*: every
element waits for all elements to finish the current phase ("all the
delay elements must wait for each to complete its current phase before
they can all move to the next phase").  The practical difference from the
synchronous machine is the absence of the clock quantity: throughput is
data-driven, and an empty pipeline idles.

This module provides a self-timed pipeline driver that streams samples by
*watching the output*: a new sample is injected as soon as the previous
one has fully arrived -- the molecular analogue of a request/acknowledge
handshake with the environment.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.simulation.margins import MarginEvent, MarginTable
from repro.crn.simulation.ode import OdeSimulator
from repro.crn.simulation.result import Trajectory
from repro.core.memory import DelayLine
from repro.core.phases import PhaseProtocol
from repro.errors import SimulationError
from repro.obs.metrics import ensure_metrics
from repro.obs.tracer import ensure_tracer

#: Share of a sample the output must hold to acknowledge its arrival.
ARRIVAL_FRACTION = 0.95

#: Handshake hold-off after an arrival, in slow time constants
#: (``1 / k_slow``): the rotation finishes its residual phases before the
#: next request.  Injecting the next sample mid-rotation adds blue mass
#: in the wrong phase window and (in consuming mode, which cannot recover
#: from mixed states) can wedge the pipeline.
HOLD_OFF = 5.0

#: How long a sample may take to arrive, in slow time constants.
MAX_WAIT = 500.0

#: Rows a recorded wave is sampled on.
SAMPLES_PER_WAVE = 80


@dataclass
class AsyncRun:
    """Result of streaming samples through a self-timed pipeline."""

    injected: list[float]
    arrived: list[float]
    arrival_times: list[float]
    trajectory: Trajectory | None = None

    @property
    def mean_latency(self) -> float:
        if not self.arrival_times:
            raise SimulationError("no samples arrived")
        times = np.array([0.0] + self.arrival_times)
        return float(np.mean(np.diff(times)))

    def max_error(self) -> float:
        n = min(len(self.injected), len(self.arrived))
        if n == 0:
            return 0.0
        injected = np.array(self.injected[:n])
        arrived = np.array(self.arrived[:n])
        return float(np.max(np.abs(injected - arrived)))


class SelfTimedPipeline:
    """An ``n``-element self-timed delay pipeline (companion scheme).

    Parameters
    ----------
    n:
        number of delay elements between input X and output Y.
    gating:
        protocol gating, with the protocol's acceleration for it.  The
        default is the companion-faithful configuration (consuming
        indicators + dimer accelerator), which is sound here because each
        sample traverses the chain as a one-shot wave: the driver injects
        the next sample only after the previous one has arrived, so no
        type holds standing mass while its transfer gate is closed.
    """

    def __init__(self, n: int = 2, gating: str = "consuming",
                 scheme: RateScheme | None = None,
                 tracer=None, metrics=None):
        self.scheme = scheme or RateScheme()
        self.network = Network(f"async_pipeline_{n}")
        self.protocol = PhaseProtocol(gating=gating)
        self.line = DelayLine(n, drain_output=True)
        self.line.build(self.network, self.protocol)
        self.protocol.finalize(self.network)
        self.tracer = ensure_tracer(tracer)
        self.metrics = ensure_metrics(metrics)
        self.simulator = OdeSimulator(self.network, self.scheme,
                                      tracer=tracer, metrics=metrics)
        # The effective output counts both halves of the accelerator
        # dimer I_Y, where there is one: it parks part of the output.
        index = self.network.species_index
        output, weights = [index(self.output_name)], [1.0]
        dimer = f"I_{self.output_name}"
        if dimer in self.network:
            output.append(index(dimer))
            weights.append(2.0)
        self._output = MarginTable([(output, weights, 0.0, 1)])

    @property
    def input_name(self) -> str:
        return self.line.input.name

    @property
    def output_name(self) -> str:
        return self.line.output.name

    def run(self, samples: list[float], record: bool = False) -> AsyncRun:
        """Stream samples; each is injected once the previous arrived."""
        hold_off = HOLD_OFF / self.scheme.slow
        max_wait = MAX_WAIT / self.scheme.slow
        state = self.network.initial_vector()
        input_index = self.network.species_index(self.input_name)
        t = 0.0
        arrived: list[float] = []
        arrival_times: list[float] = []
        trajectory: Trajectory | None = None
        cumulative_target = 0.0
        previous_total = 0.0

        for index, sample in enumerate(samples):
            sample = float(sample)
            if sample < 0:
                raise SimulationError("self-timed pipeline carries "
                                      "non-negative quantities")
            t_inject = t
            state = state.copy()
            state[input_index] += sample
            cumulative_target += sample
            # Acknowledge: the output has received (almost all of) the
            # cumulative injected quantity.  The effective output includes
            # the share reversibly parked in the accelerator dimer.
            event = MarginEvent(self._output.with_last_threshold(
                previous_total + ARRIVAL_FRACTION * max(sample, 1e-9)),
                1.0)
            segment = self.simulator.simulate(
                t + max_wait, t_start=t, initial=state,
                n_samples=SAMPLES_PER_WAVE if record else 8,
                events=[event])
            if "event" not in segment.meta and sample > 0:
                raise SimulationError(
                    f"sample did not arrive within {max_wait:g} "
                    f"time units at t={t:g}")
            tail = self.simulator.simulate(
                segment.t_final + hold_off, t_start=segment.t_final,
                initial=segment.final(), n_samples=8)
            state = tail.final()
            t = tail.t_final
            if record:
                segment = segment.concat(tail)
            total = float(self._output.evaluate(state))
            arrived.append(total - previous_total)
            previous_total = total
            arrival_times.append(t)
            if self.tracer.enabled:
                self.tracer.emit_span(
                    f"wave:{index}", "handshake", t_inject, t,
                    {"sample": sample, "arrived": arrived[-1]})
            if self.metrics.enabled:
                self.metrics.inc("handshake.waves")
                self.metrics.observe("handshake.wave_sim_time",
                                     t - t_inject)
            if record:
                trajectory = segment if trajectory is None else \
                    trajectory.concat(segment)

        return AsyncRun(injected=[float(s) for s in samples],
                        arrived=arrived, arrival_times=arrival_times,
                        trajectory=trajectory)

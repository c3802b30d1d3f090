"""The program's layers as a traced pass sees them.

``patches()`` lists the public functions wrapped in each layer;
``layer_metrics()`` turns the trace totals into the per-layer metrics
listed in ``BENCHMARK.json``.  Counts and times are per op of the
traced pass, so runs of different lengths compare directly.
"""

from __future__ import annotations

from tracing import Patch

#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    ("kinetics.rhs.calls", "1/op", "lower"),
    ("kinetics.rhs.busy_s", "s/op", "lower"),
    ("kinetics.rhs.us_per_call", "us", "lower"),
    ("kinetics.rhs.share", "ratio", "lower"),
    ("kinetics.jacobian.calls", "1/op", "lower"),
    ("kinetics.jacobian.busy_s", "s/op", "lower"),
    ("ode.simulate.calls", "1/op", "lower"),
    ("ode.simulate.self_s", "s/op", "lower"),
    ("ode.odeint.calls", "1/op", "lower"),
    ("ode.odeint.self_s", "s/op", "lower"),
    ("ode.useful_ratio", "ratio", "higher"),
    ("machine.run.calls", "1/op", "lower"),
    ("machine.self_s", "s/op", "lower"),
    ("machine.cycles", "1/op", "lower"),
    ("machine.sim_cycle_time", "sim_time", "lower"),
    ("machine.max_abs_error", "signal_units", "lower"),
    ("obs.calls", "1/op", "lower"),
    ("obs.busy_s", "s/op", "lower"),
    ("waves.calls", "1/op", "lower"),
    ("waves.busy_s", "s/op", "lower"),
    ("ssa.simulate.calls", "1/op", "lower"),
    ("ssa.events", "1/op", "lower"),
    ("ssa.simulate.busy_s", "s/op", "lower"),
    ("ssa.events_per_busy_s", "1/s", "higher"),
    ("ssa.useful_ratio", "ratio", "higher"),
    ("stochastic_machine.self_s", "s/op", "lower"),
    ("stochastic_machine.flush_events", "1/op", "lower"),
    ("batch.calls", "1/op", "lower"),
    ("batch.events", "1/op", "lower"),
    ("batch.busy_s", "s/op", "lower"),
    ("serve.submit.calls", "1/op", "lower"),
    ("serve.hit_ratio", "ratio", "higher"),
    ("serve.cache_key.busy_s", "s/op", "lower"),
    ("serve.store.get.busy_s", "s/op", "lower"),
    ("serve.store.put.calls", "1/op", "lower"),
    ("serve.store.put.busy_s", "s/op", "lower"),
    ("serve.engine.busy_s", "s/op", "lower"),
    ("serve.wait_s", "s/op", "lower"),
    ("op.self_s", "s/op", "lower"),
    ("bench.tracing_overhead", "ratio", "lower"),
)


def _cycles(args, kwargs, run):
    return {"cycles": run.n_cycles,
            "sim_time": sum(span.duration for span in run.cycles)}


def _stochastic_cycles(args, kwargs, run):
    # A fresh machine per op, so its flush counter is this run's.
    return dict(_cycles(args, kwargs, run),
                flush_events=args[0].flush_events)


def _returned_span(args, kwargs, trajectory):
    times = trajectory.times
    return {"span": float(times[-1] - times[0])} if times.size else {}


def _integrated_span(args, kwargs, result):
    grid = args[2]  # odeint(func, y0, t, ...)
    return {"span": float(grid[-1] - grid[0])}


def _ssa_chunk(args, kwargs, trajectory):
    return dict(_returned_span(args, kwargs, trajectory),
                events=int(trajectory.meta["events"]))


def _ensemble(args, kwargs, result):
    return {"events": int(result.events.sum())}


def _submit(args, kwargs, handle):
    return {"hits": int(handle.cached)}


def patches() -> list[Patch]:
    """Every wrapped attribute, by layer."""
    import repro
    from repro.core.machine import SynchronousMachine
    from repro.core.stochastic_machine import StochasticMachine
    from repro.crn.kinetics import MassActionKinetics
    from repro.crn.simulation import ode
    from repro.crn.simulation.batch import BatchStochasticSimulator
    from repro.crn.simulation.ssa import StochasticSimulator
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.monitors import ProtocolMonitor
    from repro.obs.tracer import Tracer
    from repro.serve.cache import MemoryResultStore
    from repro.serve.jobs import JobSpec
    from repro.serve.service import SimulationService
    from repro.waves.probe import WaveformProbe

    return [
        # core.machine and core.stochastic_machine
        Patch(SynchronousMachine, "run", "machine.run", measure=_cycles),
        Patch(StochasticMachine, "run", "stochastic_machine.run",
              measure=_stochastic_cycles),
        # crn.simulation.ode; odeint as the module binds it
        Patch(ode.OdeSimulator, "simulate", "ode.simulate",
              measure=_returned_span),
        Patch(ode, "odeint", "ode.odeint", hot=True,
              measure=_integrated_span),
        # crn.kinetics
        Patch(MassActionKinetics, "rhs", "kinetics.rhs", hot=True),
        Patch(MassActionKinetics, "jacobian", "kinetics.jacobian",
              hot=True),
        # crn.simulation.ssa and .batch
        Patch(StochasticSimulator, "simulate", "ssa.simulate",
              measure=_ssa_chunk),
        Patch(BatchStochasticSimulator, "simulate_ensemble", "batch",
              measure=_ensemble),
        # serve, down to the engine entry points its jobs call
        Patch(SimulationService, "submit", "serve.submit",
              measure=_submit),
        Patch(JobSpec, "cache_key", "serve.cache_key"),
        Patch(MemoryResultStore, "get", "serve.store.get"),
        Patch(MemoryResultStore, "put", "serve.store.put"),
        Patch(repro, "simulate", "serve.engine"),
        Patch(StochasticSimulator, "mean_trajectory", "serve.engine"),
        # obs and waves
        *(Patch(Tracer, attr, f"obs.tracer.{attr}", hot=True)
          for attr in ("emit_span", "emit_event", "emit_cycle")),
        *(Patch(MetricsRegistry, attr, f"obs.metrics.{attr}", hot=True)
          for attr in ("inc", "observe")),
        Patch(ProtocolMonitor, "observe_cycle", "obs.monitor", hot=True),
        *(Patch(WaveformProbe, attr, f"waves.{attr}", hot=True)
          for attr in ("record", "boundary", "observe_cycle")),
    ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _group(totals: dict, prefix: str, field: str) -> float:
    return sum(value for key, value in totals.items()
               if key.startswith(prefix) and key.endswith(field))


def layer_metrics(totals: dict, n_ops: int, max_abs_error: float,
                  tracing_overhead: float) -> dict[str, float]:
    """Per-layer metric values from ``tracing.totals`` of a pass."""
    t = totals.get

    def per_op(key):
        return t(key, 0.0) / n_ops

    cycles = t("machine.run.cycles", 0) + t("stochastic_machine.run.cycles",
                                            0)
    sim_time = (t("machine.run.sim_time", 0.0)
                + t("stochastic_machine.run.sim_time", 0.0))
    serving = t("serve.submit.calls", 0) > 0
    values = {
        "kinetics.rhs.calls": per_op("kinetics.rhs.calls"),
        "kinetics.rhs.busy_s": per_op("kinetics.rhs.busy_s"),
        "kinetics.rhs.us_per_call": 1e6 * _ratio(
            t("kinetics.rhs.busy_s", 0.0), t("kinetics.rhs.calls", 0)),
        "kinetics.rhs.share": _ratio(t("kinetics.rhs.busy_s", 0.0),
                                     t("op.busy_s", 0.0)),
        "kinetics.jacobian.calls": per_op("kinetics.jacobian.calls"),
        "kinetics.jacobian.busy_s": per_op("kinetics.jacobian.busy_s"),
        "ode.simulate.calls": per_op("ode.simulate.calls"),
        "ode.simulate.self_s": per_op("ode.simulate.self_s"),
        "ode.odeint.calls": per_op("ode.odeint.calls"),
        "ode.odeint.self_s": per_op("ode.odeint.self_s"),
        "ode.useful_ratio": _ratio(t("ode.simulate.span", 0.0),
                                   t("ode.odeint.span", 0.0)),
        "machine.run.calls": per_op("machine.run.calls"),
        "machine.self_s": per_op("machine.run.self_s"),
        "machine.cycles": cycles / n_ops,
        "machine.sim_cycle_time": _ratio(sim_time, cycles),
        "machine.max_abs_error": max_abs_error,
        "obs.calls": _group(totals, "obs.", ".calls") / n_ops,
        "obs.busy_s": _group(totals, "obs.", ".self_s") / n_ops,
        "waves.calls": _group(totals, "waves.", ".calls") / n_ops,
        "waves.busy_s": _group(totals, "waves.", ".self_s") / n_ops,
        "ssa.simulate.calls": per_op("ssa.simulate.calls"),
        "ssa.events": per_op("ssa.simulate.events"),
        "ssa.simulate.busy_s": per_op("ssa.simulate.busy_s"),
        "ssa.events_per_busy_s": _ratio(t("ssa.simulate.events", 0),
                                        t("ssa.simulate.busy_s", 0.0)),
        "ssa.useful_ratio": _ratio(t("stochastic_machine.run.sim_time", 0.0),
                                   t("ssa.simulate.span", 0.0)),
        "stochastic_machine.self_s": per_op("stochastic_machine.run.self_s"),
        "stochastic_machine.flush_events": per_op(
            "stochastic_machine.run.flush_events"),
        "batch.calls": per_op("batch.calls"),
        "batch.events": per_op("batch.events"),
        "batch.busy_s": per_op("batch.busy_s"),
        "serve.submit.calls": per_op("serve.submit.calls"),
        "serve.hit_ratio": _ratio(t("serve.submit.hits", 0),
                                  t("serve.submit.calls", 0)),
        "serve.cache_key.busy_s": per_op("serve.cache_key.busy_s"),
        "serve.store.get.busy_s": per_op("serve.store.get.busy_s"),
        "serve.store.put.calls": per_op("serve.store.put.calls"),
        "serve.store.put.busy_s": per_op("serve.store.put.busy_s"),
        "serve.engine.busy_s": per_op("serve.engine.busy_s"),
        # With one job in flight, what an op spends outside every serve
        # and engine span is executor hand-off, loop wake-ups and futures.
        "serve.wait_s": per_op("op.self_s") if serving else 0.0,
        "op.self_s": per_op("op.self_s"),
        "bench.tracing_overhead": tracing_overhead,
    }
    return values

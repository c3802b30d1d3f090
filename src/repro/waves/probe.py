"""The logic-analyzer probe: capture digital signals from live runs.

A :class:`WaveformProbe` is handed to a driver (machine, counter, FSM)
the same way a tracer is: the driver holds it unconditionally and
guards every sampling block with ``if probe.enabled:``.  The
:class:`NullWaveformProbe` singleton makes the disabled path a single
attribute read with **zero allocations** (tracemalloc-pinned, matching
the PR 2 tracer standard).

The probe owns three things:

- a :class:`~repro.waves.waveform.Waveform` accumulating change-lists,
- an optional :class:`~repro.waves.assertions.AssertionEngine` fed
  online as changes and cycle boundaries stream in,
- the per-cycle ``(span, phases, transfers, boundary_wait)`` structure
  the cycle profiler (:mod:`repro.waves.profiler`) consumes;
  ``boundary_wait`` is the recoverable dead time between digital
  settling and the actual cycle boundary.

Drivers call :meth:`record` for single samples, :meth:`boundary` once
per cycle boundary with the full boundary value dict (also the
assertion-expression namespace), and :meth:`observe_cycle` with the
phase/transfer decomposition the tracer already computes and a cycle's
sampled ``real`` columns, which reach the engine in time order.
"""

from __future__ import annotations

from repro.obs.monitors import RuntimeDiagnostic
from repro.waves.assertions import AssertionEngine
from repro.waves.waveform import Waveform

#: Signal carrying the dominant clock colour / active phase id.
PHASE_SIGNAL = "phase"


def signal_key(name: str) -> str:
    """An identifier-safe key for the assertion-expression namespace.

    Waveform signal names may carry punctuation (``ctr_b0`` is fine,
    ``transfer:red->green`` is not); boundary-sample dicts use this
    mapping so every signal is addressable from an assertion condition.
    """
    key = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    if not key or key[0].isdigit():
        key = "_" + key
    return key


class WaveformProbe:
    """Collects digital-domain waveforms and streams assertions.

    Parameters
    ----------
    assertions:
        optional :class:`~repro.waves.assertions.AssertionEngine`
        evaluated online; violations come back from :meth:`finish`.
    samples_per_cycle:
        a machine charts every ``rows // samples_per_cycle``-th row of a
        cycle's segment: at least this many rows and fewer than twice as
        many, or every row of a shorter segment.
    """

    __slots__ = ("enabled", "waveform", "engine", "samples_per_cycle",
                 "cycle_records", "_finished")

    def __init__(self, assertions: AssertionEngine | None = None,
                 samples_per_cycle: int = 32):
        self.enabled = True
        self.waveform = Waveform()
        self.engine = assertions
        self.samples_per_cycle = int(samples_per_cycle)
        #: per-cycle (CycleSpan, phases, transfers, boundary_wait) for
        #: the profiler; phases are (color, t0, t1), transfers
        #: (name, t0, t1, args), boundary_wait the recoverable dead time.
        self.cycle_records: list[tuple] = []
        self._finished = False

    # -- capture --------------------------------------------------------------

    def declare(self, name: str, kind: str, width: int = 1) -> None:
        self.waveform.declare(name, kind, width)

    def record(self, name: str, t: float, value,
               kind: str | None = None, width: int = 1) -> None:
        """Record one sample; assertion stream sees actual changes only."""
        changed = self.waveform.record(name, t, value, kind=kind,
                                       width=width)
        if changed and self.engine is not None:
            self.engine.on_change(float(t), name, value)

    def boundary(self, cycle: int, t: float, values: dict) -> None:
        """One cycle boundary: the assertion-expression namespace."""
        if self.engine is not None:
            self.engine.on_boundary(int(cycle), float(t), values)

    def observe_cycle(self, span, phases, transfers,
                      boundary_wait: float = 0.0, times=(),
                      columns=None) -> None:
        """Store one cycle's phase/transfer decomposition, chart the
        phase channel and each ``columns`` track (an array of ``real``
        samples at ``times``).  The engine sees the changes in time order:
        a phase change first at a tie, then row by row in column order."""
        self.cycle_records.append((span, list(phases), list(transfers),
                                   float(boundary_wait)))
        waveform, engine = self.waveform, self.engine
        changes = []
        for i, (color, t0, _t1) in enumerate(phases):
            if waveform.record(PHASE_SIGNAL, t0, color, kind="state"):
                changes.append((float(t0), -1, i, PHASE_SIGNAL, color))
        for rank, (name, column) in enumerate((columns or {}).items()):
            changed = waveform.declare(name, "real").extend(times, column)
            if engine is not None:
                changes += (
                    (t, row, rank, name, value) for t, row, value in zip(
                        times[changed].tolist(), changed.tolist(),
                        column[changed].tolist()))
        if engine is not None:
            changes.sort()  # (time, row, rank) never ties
            for t, _row, _rank, name, value in changes:
                engine.on_change(t, name, value)

    # -- lifecycle ------------------------------------------------------------

    def finish(self, t: float | None = None) -> list[RuntimeDiagnostic]:
        """Flush end-of-stream assertion obligations; idempotent."""
        self._finished = True
        if self.engine is None:
            return []
        return self.engine.finish(t)

    def diagnostics(self) -> list[RuntimeDiagnostic]:
        """All assertion violations collected so far."""
        if self.engine is None:
            return []
        if not self._finished:
            return self.engine.finish()
        return self.engine.violations


class NullWaveformProbe:
    """Disabled probe: every method is a no-op, nothing is allocated."""

    __slots__ = ()
    enabled = False
    waveform = None
    engine = None
    samples_per_cycle = 0
    cycle_records = ()

    def declare(self, name, kind, width=1) -> None:
        pass

    def record(self, name, t, value, kind=None, width=1) -> None:
        pass

    def boundary(self, cycle, t, values) -> None:
        pass

    def observe_cycle(self, span, phases, transfers,
                      boundary_wait=0.0, times=(), columns=None) -> None:
        pass

    def finish(self, t=None) -> list:
        return []

    def diagnostics(self) -> list:
        return []


#: Process-wide disabled probe; instrumented code defaults to this.
NULL_PROBE = NullWaveformProbe()


def ensure_probe(probe) -> WaveformProbe | NullWaveformProbe:
    """Normalize an optional probe argument to a usable instance."""
    return probe if probe is not None else NULL_PROBE

"""The waveform data model: digital signals as compact change-lists.

A :class:`Waveform` holds named signal tracks on the simulated-time
axis.  Each track stores only *changes* -- ``(t, value)`` pairs where
the value differs from the previous one -- which is what makes hours of
simulated time cheap to keep and what maps one-to-one onto the VCD
value-change format (:mod:`repro.waves.vcd`).

Four signal kinds cover the digital domain of the protocol:

``bit``
    a dual-rail logic level: ``0``, ``1``, or ``"x"`` (rails not
    cleanly settled, the waveform mirror of
    :meth:`repro.digital.bits.Bit.read_soft` reporting unsettled).
``int``
    a small unsigned integer (a counter value, an event count); the
    declared ``width`` sizes the VCD vector.
``real``
    an analog level riding along for context (register quantity,
    boundary residual, cycle period).
``state``
    a symbolic value (FSM state name, dominant clock colour).

The JSONL wire format adds one record type to the trace schema of
:mod:`repro.obs.records`::

    {"type": "wave", "signal": "ctr_b0", "kind": "bit",
     "t": 0.3, "value": 1}

so waveforms stream through the existing :mod:`repro.obs.sinks`
infrastructure and ``python -m repro report`` can summarise them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ReproError

#: Signal kinds a track may declare.
KINDS = ("bit", "int", "real", "state")

#: Accepted ``bit`` values (unsettled rails read as ``"x"``).
BIT_VALUES = (0, 1, "x")


class WaveError(ReproError):
    """Raised for invalid waveform declarations or recordings."""


@dataclass(slots=True)
class WaveChange:
    """One value change of one signal (the JSONL ``wave`` record)."""

    signal: str
    kind: str
    t: float
    value: object

    def to_dict(self) -> dict:
        return {"type": "wave", "signal": self.signal, "kind": self.kind,
                "t": self.t, "value": self.value}


class SignalTrack:
    """Change-list of one signal."""

    __slots__ = ("name", "kind", "width", "times", "values")

    def __init__(self, name: str, kind: str, width: int = 1):
        if kind not in KINDS:
            raise WaveError(f"unknown signal kind {kind!r}; expected one "
                            f"of {KINDS}")
        if width < 1:
            raise WaveError(f"signal {name!r}: width must be >= 1")
        self.name = name
        self.kind = kind
        self.width = int(width)
        self.times: list[float] = []
        self.values: list = []

    def record(self, t: float, value) -> bool:
        """Append a change; returns ``False`` when the value repeats.

        Times must be non-decreasing -- tracks are streamed in
        simulation order.  A same-time re-record of a *different* value
        overwrites the previous one (last write wins), matching VCD
        semantics of multiple changes in one tick.
        """
        t = float(t)
        value = self._coerce(value)
        if self.times:
            if t < self.times[-1]:
                raise WaveError(
                    f"signal {self.name!r}: time went backwards "
                    f"({t:g} after {self.times[-1]:g})")
            if value == self.values[-1]:
                return False
            if t == self.times[-1]:
                self.values[-1] = value
                return True
        self.times.append(t)
        self.values.append(value)
        return True

    def extend(self, times, values) -> np.ndarray:
        """Record ``real`` samples in one pass, as :meth:`record` would one
        by one; returns the indices of those that changed the track."""
        if self.kind != "real":
            raise WaveError(f"signal {self.name!r}: only real tracks "
                            f"take sample blocks")
        times, values = np.asarray(times, float), np.asarray(values, float)
        if np.any(np.diff(times, prepend=self.times[-1:]) < 0):
            raise WaveError(f"signal {self.name!r}: time went backwards")
        # A sample changes the track when it differs from the sample
        # before it; of the changes at one time the last one stays.
        changed = np.flatnonzero(values != np.concatenate(
            (self.values[-1:] or [np.nan], values[:-1])))
        kept = changed[np.diff(times[changed], append=np.inf) != 0]
        t, v = times[kept].tolist(), values[kept].tolist()
        if t and self.times and t[0] == self.times[-1]:
            self.values[-1] = v.pop(0)
            del t[0]
        self.times += t
        self.values += v
        return changed

    def _coerce(self, value):
        if self.kind == "bit":
            if isinstance(value, bool):
                return int(value)
            if value in BIT_VALUES:
                return value
            raise WaveError(f"signal {self.name!r}: bit value must be "
                            f"0, 1 or 'x'; got {value!r}")
        if self.kind == "int":
            return int(value)
        if self.kind == "real":
            return float(value)
        return str(value)

    @property
    def n_changes(self) -> int:
        return len(self.times)

    def value_at(self, t: float):
        """Last recorded value at or before ``t`` (``None`` before the
        first change)."""
        result = None
        for time, value in zip(self.times, self.values):
            if time > t:
                break
            result = value
        return result


class Waveform:
    """An ordered collection of signal tracks.

    Declaration order is meaningful: it fixes the VCD variable order and
    the tie-break for same-tick changes, which is what makes exports
    byte-identical across runs.
    """

    def __init__(self):
        self.signals: dict[str, SignalTrack] = {}

    def declare(self, name: str, kind: str, width: int = 1) -> SignalTrack:
        """Register a signal; re-declaring with the same shape is a
        no-op, with a different shape an error."""
        track = self.signals.get(name)
        if track is not None:
            if track.kind != kind or track.width != int(width):
                raise WaveError(
                    f"signal {name!r} re-declared as {kind}/{width} "
                    f"(was {track.kind}/{track.width})")
            return track
        track = SignalTrack(name, kind, width)
        self.signals[name] = track
        return track

    def record(self, name: str, t: float, value,
               kind: str | None = None, width: int = 1) -> bool:
        """Record one change, auto-declaring on first use when ``kind``
        is given."""
        track = self.signals.get(name)
        if track is None:
            if kind is None:
                raise WaveError(f"signal {name!r} was never declared "
                                f"(pass kind= on first record)")
            track = self.declare(name, kind, width)
        return track.record(t, value)

    def __contains__(self, name: str) -> bool:
        return name in self.signals

    def __getitem__(self, name: str) -> SignalTrack:
        try:
            return self.signals[name]
        except KeyError:
            raise WaveError(f"no signal {name!r} in waveform") from None

    @property
    def n_signals(self) -> int:
        return len(self.signals)

    @property
    def n_changes(self) -> int:
        return sum(track.n_changes for track in self.signals.values())

    @property
    def t_final(self) -> float:
        return max((track.times[-1] for track in self.signals.values()
                    if track.times), default=0.0)

    def changes(self) -> list[WaveChange]:
        """All changes in time order (declaration order breaks ties)."""
        order = {name: i for i, name in enumerate(self.signals)}
        merged = [
            WaveChange(track.name, track.kind, t, value)
            for track in self.signals.values()
            for t, value in zip(track.times, track.values)
        ]
        merged.sort(key=lambda c: (c.t, order[c.signal]))
        return merged


def waveform_from_trajectory(trajectory, names=None,
                             max_samples: int = 512) -> Waveform:
    """Chart trajectory species as ``real`` lanes (post-hoc probe).

    For raw ``.crn`` simulations there is no digital driver to hold a
    live probe; this converts an integrated
    :class:`~repro.crn.simulation.result.Trajectory` into a waveform
    after the fact, subsampling to at most ``max_samples`` rows per
    signal (the change-list compresses plateaus further).
    """
    waveform = Waveform()
    names = list(names) if names is not None else list(trajectory.names)
    unknown = [n for n in names if n not in trajectory.names]
    if unknown:
        raise WaveError(f"species {unknown} not in trajectory "
                        f"(have {list(trajectory.names)})")
    times = trajectory.times
    stride = max(1, times.size // max(int(max_samples), 1))
    rows = list(range(0, times.size, stride))
    if rows and rows[-1] != times.size - 1:
        rows.append(times.size - 1)
    for name in names:
        waveform.declare(name, "real").extend(
            times[rows], trajectory.column(name)[rows])
    return waveform


def write_waveform_jsonl(waveform: Waveform, path) -> None:
    """Stream a waveform as JSONL ``wave`` records (obs sink format)."""
    from repro.obs.sinks import JsonlSink

    sink = JsonlSink(path)
    try:
        for change in waveform.changes():
            sink.write(change)
    finally:
        sink.close()

"""Per-layer tracing from outside the program.

A traced pass wraps public functions of each layer -- class or module
attributes -- and puts the originals back when it ends; no file of the
program changes.  A wrapper is one of two kinds:

span
    a layer boundary (op, machine, engine, serve): one record per call
    with its name, start, end, parent span, op id and self time.
hot
    a call too frequent to record one by one (the kinetics RHS,
    ``odeint``, telemetry methods): its calls, busy time and self time
    are summed into the enclosing span.

Self time is a call's duration minus the time its child calls cover,
so the self times of an op's spans and hot calls add up to the op's
wall time.  Each thread keeps its own call stack; a call on a thread
with an empty stack (the serve layer's worker thread) is a child of
the op in flight, since the closed loop has one op in flight at a time.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

#: Name of the root span the harness opens around every op.
OP_SPAN = "op"


class _Frame:
    __slots__ = ("name", "hot", "parent", "owner", "record", "start",
                 "child")

    def __init__(self, name, hot, parent):
        self.name = name
        self.hot = hot
        self.parent = parent
        self.child = 0.0
        self.record = None
        self.start = 0.0


class Recorder:
    """Collects span records and hot-call totals in memory."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._op_frame: _Frame | None = None

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def push(self, name: str, hot: bool = False,
             op: int | None = None) -> _Frame:
        stack = self._stack()
        parent = stack[-1] if stack else self._op_frame
        frame = _Frame(name, hot, parent)
        if hot:
            frame.owner = parent.owner if parent is not None else None
        else:
            frame.owner = frame
            if op is None and parent is not None:
                op = parent.record["op"]
            frame.record = {
                "name": name, "id": next(self._ids),
                "parent": parent.record["id"] if parent else None,
                "op": op, "hot": {}, "extra": {}}
        stack.append(frame)
        frame.start = perf_counter()
        return frame

    def pop(self, frame: _Frame) -> None:
        end = perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame.name!r} closed out of order")
        stack.pop()
        duration = end - frame.start
        if frame.parent is not None:
            frame.parent.child += duration
        self_time = duration - frame.child
        if not frame.hot:
            record = frame.record
            record["start"] = frame.start
            record["end"] = end
            record["self"] = self_time
            self.spans.append(record)
        elif frame.owner is not None:
            totals = frame.owner.record["hot"].setdefault(
                frame.name, [0, 0.0, 0.0])
            totals[0] += 1
            totals[1] += duration
            totals[2] += self_time

    def note(self, frame: _Frame, values: dict) -> None:
        """Add measured quantities (events, simulated spans...) to the
        frame's span, or for a hot call to its enclosing span."""
        if frame.owner is None:
            return
        extra = frame.owner.record["extra"]
        for key, value in values.items():
            key = f"{frame.name}.{key}"
            extra[key] = extra.get(key, 0) + value

    # -- op roots (driven by harness.OpTimer) --------------------------------

    def begin_op(self, op: int) -> _Frame:
        frame = self.push(OP_SPAN, op=op)
        self._op_frame = frame
        return frame

    def end_op(self, frame: _Frame) -> None:
        self._op_frame = None
        self.pop(frame)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record, sort_keys=True) + "\n")


@dataclass(frozen=True)
class Patch:
    """One attribute to wrap: ``owner.attr`` recorded as ``name``.

    ``measure(args, kwargs, result)`` may return a dict of quantities
    to add to the span (``Recorder.note``).
    """

    owner: object
    attr: str
    name: str
    hot: bool = False
    measure: Callable | None = None


def _wrap(recorder: Recorder, patch: Patch, original):
    name, hot, measure = patch.name, patch.hot, patch.measure
    push, pop, note = recorder.push, recorder.pop, recorder.note

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def async_wrapper(*args, **kwargs):
            frame = push(name, hot)
            try:
                result = await original(*args, **kwargs)
            finally:
                pop(frame)
            if measure is not None:
                note(frame, measure(args, kwargs, result))
            return result
        return async_wrapper

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        frame = push(name, hot)
        try:
            result = original(*args, **kwargs)
        finally:
            pop(frame)
        if measure is not None:
            note(frame, measure(args, kwargs, result))
        return result
    return wrapper


_MISSING = object()


@contextmanager
def traced(recorder: Recorder, patches):
    """Install a wrapper for every patch; restore each attribute --
    or its absence from the owner's own namespace -- on exit."""
    saved = []
    try:
        for patch in patches:
            own = vars(patch.owner).get(patch.attr, _MISSING)
            original = inspect.getattr_static(patch.owner, patch.attr)
            saved.append((patch.owner, patch.attr, own))
            setattr(patch.owner, patch.attr,
                    _wrap(recorder, patch, original))
        yield recorder
    finally:
        for owner, attr, own in reversed(saved):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


# -- aggregation ----------------------------------------------------------


def totals(spans: list[dict]) -> dict[str, float]:
    """Flat sums over span records.

    For every span or hot-call name ``n``: ``n.calls``, ``n.busy_s``
    (summed duration), ``n.self_s`` and ``n.<quantity>`` for each
    quantity its ``measure`` reported.
    """
    out: dict[str, float] = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for record in spans:
        name = record["name"]
        add(f"{name}.calls", 1)
        add(f"{name}.busy_s", record["end"] - record["start"])
        add(f"{name}.self_s", record["self"])
        for hot, (calls, busy, self_time) in record["hot"].items():
            add(f"{hot}.calls", calls)
            add(f"{hot}.busy_s", busy)
            add(f"{hot}.self_s", self_time)
        for key, value in record["extra"].items():
            add(key, value)
    return out


def op_accounting(spans: list[dict]) -> dict[int, tuple[float, float]]:
    """Per op: ``(op wall, sum of self times of its spans and hot
    calls)``.  The two agree when every child's time is attributed."""
    walls: dict[int, float] = {}
    selves: dict[int, float] = {}
    for record in spans:
        op = record["op"]
        if record["name"] == OP_SPAN:
            walls[op] = record["end"] - record["start"]
        selves[op] = (selves.get(op, 0.0) + record["self"]
                      + sum(t[2] for t in record["hot"].values()))
    return {op: (walls[op], selves.get(op, 0.0)) for op in walls}

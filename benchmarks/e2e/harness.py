"""Measurement core: the closed-loop op window, percentiles and digests.

This module imports nothing from the program, so the set-up timer can
start before the first ``import repro``.
"""

from __future__ import annotations

import hashlib
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from calibration import REFERENCE_MIXED_S, kernel_time, mixed_kernel

#: The program's source tree; the benchmark runs it from source.
SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: Percentiles the tail rule chooses from.
PERCENTILE_LADDER = (0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999, 0.9999)

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10

#: Tracebacks printed per window; later failures are only counted.
MAX_REPORTED_ERRORS = 3

#: A calibrated pass times the calibration kernel between ops whenever
#: this many seconds have passed since it last did: between every two
#: ops of the machine workloads, every ~50 jobs of ``serve-mix``.
CALIBRATION_PERIOD_S = 0.1


def use_source_tree() -> None:
    """Put the program's ``src`` first on ``sys.path``.

    Exits with an error when the source tree is missing, so a checkout
    holding only the benchmark fails instead of measuring nothing.
    """
    if not (SRC_DIR / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: program source not found under "
                         f"{SRC_DIR}")
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))


# -- statistics -----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Percentile ``q`` (0..1) by linear interpolation between ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(values, q: float) -> int:
    """How many samples lie strictly above percentile ``q``."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def tail_rule(n: int) -> float | None:
    """The highest ladder percentile with at least ``MIN_BEYOND`` of
    ``n`` samples beyond it, or ``None`` when even the median has not."""
    chosen = None
    for q in PERCENTILE_LADDER:
        if round(n * (1.0 - q), 6) >= MIN_BEYOND:
            chosen = q
    return chosen


def percentile_label(q: float) -> str:
    return f"p{q * 100:g}"


def median(values) -> float:
    return percentile(values, 0.5)


# -- the op window --------------------------------------------------------


class OpTimer:
    """Context manager a workload puts around the part of an op a user
    waits for.  With a recorder it also opens the op's root span, so the
    traced op and the timed op share their boundaries."""

    __slots__ = ("recorder", "op", "latency", "_start", "_frame")

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.op = 0
        self.latency = 0.0

    def __enter__(self):
        if self.recorder is not None:
            self._frame = self.recorder.begin_op(self.op)
        self._start = perf_counter()
        return self

    def __exit__(self, *exc):
        self.latency = perf_counter() - self._start
        if self.recorder is not None:
            self.recorder.end_op(self._frame)


@dataclass
class Window:
    """What a pass over consecutive ops measured.

    ``slots`` holds each op's wall time including its check; ``tokens``
    the output tokens of the first ``digest_ops`` ops, the ops the
    determinism digest covers; ``calibrations`` the ``(ops done, kernel
    seconds)`` points of a calibrated pass.
    """

    digest_ops: int
    latencies: list[float] = field(default_factory=list)
    slots: list[float] = field(default_factory=list)
    failed: int = 0
    tokens: list[str] = field(default_factory=list)
    observed: dict[str, float] = field(default_factory=dict)
    head: dict[str, float] = field(default_factory=dict)
    calibrations: list[tuple[int, float]] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def wall(self) -> float:
        return sum(self.slots)

    def calibrate(self) -> None:
        self.calibrations.append((self.attempted, kernel_time(mixed_kernel)))

    def scales(self) -> list[float]:
        """Per op, the factor turning its times into reference-speed
        times: the reference kernel time over the mean of the kernel
        times measured just before and just after it (all 1.0 when the
        pass was not calibrated)."""
        if not self.calibrations:
            return [1.0] * self.attempted
        scales = []
        points = iter(self.calibrations)
        before = after = next(points)
        for k in range(self.attempted):
            while after[0] <= k:
                before, after = after, next(points, (self.attempted, after[1]))
            scales.append(2 * REFERENCE_MIXED_S / (before[1] + after[1]))
        return scales

    def digest(self) -> tuple[int, str]:
        """``(ops covered, sha256 over their output tokens)``."""
        text = "\n".join(self.tokens).encode()
        return len(self.tokens), hashlib.sha256(text).hexdigest()

    def run(self, workload, i: int, timer: OpTimer) -> None:
        """Run and check op ``i``.  An op that raises or fails its check
        counts as failed; its latency is recorded all the same, so
        failures count against attempts."""
        started = perf_counter()
        timer.op = i
        try:
            result = workload.run_op(i, timer)
            ok, token, observed = workload.check(i, result)
        except Exception:  # noqa: BLE001 - a failed op is data
            if self.failed < MAX_REPORTED_ERRORS:
                print(f"{workload.name}: op {i} raised:\n"
                      f"{traceback.format_exc()}", file=sys.stderr)
            ok, token, observed = False, "error", {}
        else:
            if not ok and self.failed < MAX_REPORTED_ERRORS:
                print(f"{workload.name}: op {i} failed its check",
                      file=sys.stderr)
        self.latencies.append(timer.latency)
        if not ok:
            self.failed += 1
        # The ops the digest covers are the same on every run of a seed,
        # so what ``head`` sums over them must repeat exactly.
        in_head = len(self.tokens) < self.digest_ops
        if in_head:
            self.tokens.append(token)
        for key, value in observed.items():
            if key == "abs_error":
                if in_head:
                    self.head[key] = max(self.head.get(key, 0.0), value)
                continue
            self.observed[key] = self.observed.get(key, 0) + value
            if in_head:
                self.head[key] = self.head.get(key, 0) + value
        self.slots.append(perf_counter() - started)


def run_ops(workload, first: int, *, seconds: float | None = None,
            count: int | None = None, calibrate: bool = False) -> Window:
    """Run ops ``first, first + 1, ...`` until ``seconds`` of wall time
    have passed or ``count`` ops have run, checking each result.

    With ``calibrate`` the mixed calibration kernel is also timed before
    the first op, after the last, and between ops whenever
    ``CALIBRATION_PERIOD_S`` has passed since it last was.
    """
    if (seconds is None) == (count is None):
        raise ValueError("give exactly one of seconds= and count=")
    timer = OpTimer()
    window = Window(workload.trace_ops)
    if calibrate:
        mixed_kernel()  # the first call imports numpy and scipy
        window.calibrate()
    started = last_calibration = perf_counter()
    i = first
    while True:
        window.run(workload, i, timer)
        i += 1
        now = perf_counter()
        done = ((seconds is not None and now - started >= seconds)
                or (count is not None and i - first >= count))
        if calibrate and (done or now - last_calibration
                          >= CALIBRATION_PERIOD_S):
            window.calibrate()
            last_calibration = perf_counter()
        if done:
            return window

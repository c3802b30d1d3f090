"""Protocol health monitors: runtime REPRO-R*** diagnostics.

The lint engine (PR 1) checks protocol *structure* before any simulation;
these monitors check protocol *execution* while trajectories stream.
Each monitor computes a scalar health metric per cycle (or per run) and
surfaces a :class:`RuntimeDiagnostic` in the ``REPRO-R***`` namespace
when a configurable threshold is exceeded -- the runtime mirror of the
``REPRO-E/W`` static codes in ``docs/lint.md``.

Catalogue (see ``docs/observability.md``):

========== ===============================================================
REPRO-R101 phase overlap: outgoing transfer flux active in more than
           one colour category at once, flux-weighted time average; the
           signature of a rate-dependent (unphased) transfer chain.  A
           phased system may *hold* quantity in several colours, but it
           only *drains* one colour per phase window
REPRO-R102 clock period jitter above threshold
REPRO-R103 absence-indicator crispness: low contrast between an
           indicator's absent-phase high and present-phase floor
REPRO-R104 residual signal still in the drained colour (the one whose
           emptiness defines the boundary) at a cycle boundary
REPRO-R105 per-cycle conservation drift of the clock mass
========== ===============================================================
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.crn.simulation.result import Trajectory
from repro.obs.records import CycleSpan

#: Rotation order of the three colour categories.
ROTATION = ("red", "green", "blue")


@dataclass(frozen=True)
class RuntimeDiagnostic:
    """One runtime finding, mirroring the lint ``Diagnostic`` shape."""

    code: str
    severity: str
    message: str
    #: simulated time the finding is anchored to (cycle end, run end...).
    t: float = 0.0
    cycle: int | None = None
    value: float | None = None
    threshold: float | None = None
    subject: str = ""

    def format(self) -> str:
        where = f" (cycle {self.cycle})" if self.cycle is not None else ""
        text = f"{self.code} {self.severity}: {self.message}{where}"
        if self.value is not None and self.threshold is not None:
            text += f"  [value {self.value:.4g}, threshold " \
                    f"{self.threshold:.4g}]"
        return text

    def to_dict(self) -> dict:
        payload = {"type": "diag", "code": self.code,
                   "severity": self.severity, "message": self.message,
                   "t": self.t}
        if self.cycle is not None:
            payload["cycle"] = self.cycle
        if self.value is not None:
            payload["value"] = self.value
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        if self.subject:
            payload["subject"] = self.subject
        return payload


@dataclass(frozen=True)
class MonitorConfig:
    """Warn thresholds for the runtime monitors.

    Every threshold compares against a dimensionless health metric, so
    one default set works across rate schemes and design sizes.
    """

    #: REPRO-R101: flux-weighted fraction of drain activity outside the
    #: dominant draining colour.  Phase-ordered transfers empty one
    #: colour per phase window, so concurrent drains mean the phases are
    #: not actually ordered.  Empirically the phased machine scores
    #: ~0.00 and the naive rate-dependent chain 0.26-0.35.
    phase_overlap_warn: float = 0.2
    #: REPRO-R102: relative standard deviation of the cycle period.
    clock_jitter_warn: float = 0.10
    #: REPRO-R103: minimum high/floor contrast of an absence indicator.
    indicator_contrast_warn: float = 5.0
    #: REPRO-R104: fraction of signal mass still in the drained colour
    #: at a cycle boundary.
    boundary_residual_warn: float = 0.05
    #: REPRO-R105: relative drift of the conserved clock mass per cycle.
    conservation_drift_warn: float = 0.02
    #: Signal mass below this total is ignored (empty-machine cycles).
    min_signal_mass: float = 1e-6
    #: Cycles needed before the jitter monitor can judge.
    min_cycles_for_jitter: int = 3


def load_monitor_config(path) -> MonitorConfig:
    """Load threshold overrides from a ``--monitor-config`` JSON file.

    The file holds a flat object whose keys are
    :class:`MonitorConfig` field names (any subset)::

        {"clock_jitter_warn": 0.05, "boundary_residual_warn": 0.02}

    Unknown keys raise, so a typo cannot silently leave a threshold at
    its default.  One file tunes every consumer -- fault campaigns,
    the waves scenarios, and the filter CLI all accept the flag.
    """
    import json
    from dataclasses import fields
    from pathlib import Path

    from repro.errors import ReproError

    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ReproError(f"cannot read monitor config {path}: "
                         f"{exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path}: not valid JSON ({exc.msg})") from exc
    if not isinstance(payload, dict):
        raise ReproError(f"{path}: monitor config must be a JSON object")
    known = {f.name: f.type for f in fields(MonitorConfig)}
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ReproError(
            f"{path}: unknown monitor threshold(s) {unknown}; expected "
            f"a subset of {sorted(known)}")
    values = {}
    for key, value in payload.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ReproError(f"{path}: threshold {key!r} must be a "
                             f"number; got {value!r}")
        values[key] = (int(value) if key == "min_cycles_for_jitter"
                       else float(value))
    return MonitorConfig(**values)


# -- pure trajectory statistics ----------------------------------------------


def drain_series(trajectory: Trajectory,
                 groups: Mapping[str, Sequence[str]]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Per-group positive drain rates over the sample intervals.

    Returns ``(drains, dt)`` where ``drains[g, i]`` is
    ``max(0, -dm_g/dt)`` on interval ``i``.  Only *outgoing* flux
    counts: a group that is filling is not draining.
    """
    masses = np.stack([trajectory.total(members)
                       for members in groups.values()])
    dt = np.diff(trajectory.times)
    rates = np.zeros((masses.shape[0], dt.size))
    valid = dt > 0
    rates[:, valid] = -np.diff(masses, axis=1)[:, valid] / dt[valid]
    return np.maximum(rates, 0.0), dt


def phase_overlap(trajectory: Trajectory,
                  groups: Mapping[str, Sequence[str]],
                  min_total: float = 1e-9) -> tuple[float, float]:
    """(flux-weighted mean, peak) phase-overlap fraction.

    ``overlap(t) = 1 - max_g d_g(t) / sum_g d_g(t)`` where ``d_g`` is
    the group's drain rate: the share of outgoing transfer flux that
    happens outside the dominant draining colour.  A phase-ordered
    system drains one colour per phase window, so its overlap stays
    near zero even while several colours *hold* mass (registers,
    pending contributions); an unphased chain drains every stage
    concurrently and scores high.  The mean weights each interval by
    its total flux, so idle stretches do not dilute the metric.
    Intervals with total drain below ``min_total`` (or a small fraction
    of the peak flux -- derivative noise) are ignored.
    """
    drains, dt = drain_series(trajectory, groups)
    if drains.size == 0:
        return 0.0, 0.0
    total = drains.sum(axis=0)
    dominant = drains.max(axis=0)
    floor = max(min_total, 1e-3 * float(total.max(initial=0.0)))
    active = total > floor
    if not active.any():
        return 0.0, 0.0
    series = 1.0 - dominant[active] / total[active]
    weight = total[active] * dt[active]
    mean = float(np.sum(series * weight) / np.sum(weight))
    return mean, float(series.max())


def indicator_contrast(trajectory: Trajectory, name: str,
                       floor: float = 1e-9) -> float:
    """High/low contrast of an absence indicator over a window.

    A crisp indicator is pinned near zero while its colour is present
    and shoots up when the colour empties, so the ratio between its 95th
    and 5th percentile levels is large.  A mushy indicator (insufficient
    rate separation) hovers, and the ratio collapses toward 1.
    """
    low, high = np.percentile(trajectory.column(name), (5, 95)).tolist()
    return _contrast(low, high, floor)


def _contrast(low: float, high: float, floor: float = 1e-9) -> float:
    return high / max(low, floor)


def stage_color_groups(stages: Sequence[str]) -> dict[str, list[str]]:
    """Colour a linear transfer chain cyclically, stage ``i`` -> colour
    ``i mod 3`` -- exactly how the phase-ordered version of the same
    chain is coloured, making overlap comparisons apples-to-apples."""
    groups: dict[str, list[str]] = {color: [] for color in ROTATION}
    for i, stage in enumerate(stages):
        groups[ROTATION[i % 3]].append(stage)
    return groups


def check_phase_overlap(trajectory: Trajectory,
                        groups: Mapping[str, Sequence[str]],
                        config: MonitorConfig | None = None,
                        subject: str = "") -> list[RuntimeDiagnostic]:
    """Standalone REPRO-R101 check over a whole trajectory.

    Used to audit drivers that do not go through the machine monitor --
    notably the naive rate-dependent baseline, whose Erlang smearing
    keeps mass spread over several stages at once.
    """
    config = config or MonitorConfig()
    mean, peak = phase_overlap(trajectory, groups,
                               min_total=config.min_signal_mass)
    if mean <= config.phase_overlap_warn:
        return []
    return [RuntimeDiagnostic(
        code="REPRO-R101", severity="warning",
        message=f"phase-overlap fraction {mean:.3f} (peak {peak:.3f}): "
                f"multiple colour categories drain concurrently instead "
                f"of one phase at a time",
        t=trajectory.t_final, value=mean,
        threshold=config.phase_overlap_warn, subject=subject)]


# -- streaming monitor --------------------------------------------------------


@dataclass(frozen=True)
class ProtocolView:
    """What the monitor needs to know about a running protocol."""

    #: signal species names per colour.
    color_groups: Mapping[str, Sequence[str]]
    #: absence-indicator species name per colour.
    indicator_names: Mapping[str, str] = field(default_factory=dict)
    #: the colour whose emptiness defines a cycle boundary (phase 3
    #: complete); residual mass here at a boundary is REPRO-R104.
    drained_color: str = "blue"
    #: nominal conserved clock mass (None disables REPRO-R105).
    clock_mass: float | None = None


class ProtocolMonitor:
    """Streaming per-cycle health checks for a machine run.

    The machine driver calls :meth:`observe_cycle` once per completed
    cycle with the cycle's :class:`CycleSpan`, its trajectory segment
    and the conserved clock total measured at the boundary; the monitor
    thresholds the health metrics, collects diagnostics, and mirrors
    each metric into the tracer (``monitor`` category events) so
    ``repro report`` can summarise them from the trace alone.
    """

    def __init__(self, view: ProtocolView,
                 config: MonitorConfig | None = None,
                 tracer=None, metrics=None):
        from repro.obs.metrics import ensure_metrics
        from repro.obs.tracer import ensure_tracer

        self.view = view
        self.config = config or MonitorConfig()
        self.tracer = ensure_tracer(tracer)
        self.metrics = ensure_metrics(metrics)
        self.diagnostics: list[RuntimeDiagnostic] = []
        self._spans: list[CycleSpan] = []
        self._finished = False

    # -- per-cycle ------------------------------------------------------------

    def observe_cycle(self, span: CycleSpan, segment: Trajectory,
                      clock_total: float | None = None) -> None:
        config = self.config
        self._spans.append(span)
        self._check_overlap(span, segment)
        self._check_indicators(span, segment)
        self._check_boundary_residual(span, segment)
        if clock_total is not None and self.view.clock_mass:
            drift = abs(clock_total - self.view.clock_mass) \
                / self.view.clock_mass
            self.metrics.observe("monitor.conservation_drift", drift)
            self._emit_metric("conservation_drift", span, drift)
            if drift > config.conservation_drift_warn:
                self._add(RuntimeDiagnostic(
                    code="REPRO-R105", severity="warning",
                    message=f"conserved clock mass drifted "
                            f"{drift:.2%} from nominal "
                            f"{self.view.clock_mass:g} before boundary "
                            f"replenishment",
                    t=span.t1, cycle=span.index, value=drift,
                    threshold=config.conservation_drift_warn))

    def _check_overlap(self, span: CycleSpan, segment: Trajectory) -> None:
        config = self.config
        mean, peak = phase_overlap(segment, self.view.color_groups,
                                   min_total=config.min_signal_mass)
        self.metrics.observe("monitor.phase_overlap", mean)
        self._emit_metric("phase_overlap", span, mean,
                          extra={"peak": peak})
        if mean > config.phase_overlap_warn:
            self._add(RuntimeDiagnostic(
                code="REPRO-R101", severity="warning",
                message=f"phase-overlap mass fraction {mean:.3f} "
                        f"(peak {peak:.3f}) during the cycle: transfers "
                        f"are not completing within their phase windows",
                t=span.t1, cycle=span.index, value=mean,
                threshold=config.phase_overlap_warn))

    def _check_indicators(self, span: CycleSpan,
                          segment: Trajectory) -> None:
        config = self.config
        present = [(color, name) for color, name
                   in self.view.indicator_names.items() if name in segment]
        # Every indicator's 5th and 95th percentile from one gather.
        lows, highs = np.percentile(segment.states[:, [
            segment.species_index(name) for _, name in present]],
            (5, 95), axis=0).tolist()
        for (color, name), low, high in zip(present, lows, highs):
            contrast = _contrast(low, high)
            self.metrics.observe(f"monitor.indicator_contrast[{color}]",
                                 contrast)
            self._emit_metric("indicator_contrast", span, contrast,
                              extra={"color": color})
            if contrast < config.indicator_contrast_warn:
                self._add(RuntimeDiagnostic(
                    code="REPRO-R103", severity="warning",
                    message=f"absence indicator {name!r} ({color}) has "
                            f"contrast {contrast:.2f} between absent and "
                            f"present phases; absence detection is mushy "
                            f"(check rate separation)",
                    t=span.t1, cycle=span.index, value=contrast,
                    threshold=config.indicator_contrast_warn,
                    subject=name))

    def _check_boundary_residual(self, span: CycleSpan,
                                 segment: Trajectory) -> None:
        config = self.config
        final = segment.states[-1]
        total = 0.0
        leftover = 0.0
        for color, members in self.view.color_groups.items():
            mass = sum(float(final[segment.species_index(m)])
                       for m in members if m in segment)
            total += mass
            if color == self.view.drained_color:
                leftover += mass
        if total < config.min_signal_mass:
            return
        residual = leftover / total
        self.metrics.observe("monitor.boundary_residual", residual)
        self._emit_metric("boundary_residual", span, residual)
        if residual > config.boundary_residual_warn:
            self._add(RuntimeDiagnostic(
                code="REPRO-R104", severity="warning",
                message=f"{residual:.2%} of the signal mass is still in "
                        f"the drained colour "
                        f"({self.view.drained_color}) at the cycle "
                        f"boundary: phase 3 did not complete",
                t=span.t1, cycle=span.index, value=residual,
                threshold=config.boundary_residual_warn))

    # -- end of run -----------------------------------------------------------

    def finish(self) -> list[RuntimeDiagnostic]:
        """Run-level checks (clock jitter); idempotent."""
        if self._finished:
            return self.diagnostics
        self._finished = True
        config = self.config
        if len(self._spans) >= config.min_cycles_for_jitter:
            periods = np.array([span.duration for span in self._spans])
            jitter = float(np.std(periods) / np.mean(periods))
            self.metrics.set_gauge("monitor.clock_jitter", jitter)
            self.tracer.emit_event(
                "monitor.clock_jitter", "monitor", self._spans[-1].t1,
                {"value": jitter, "cycles": len(self._spans)})
            if jitter > config.clock_jitter_warn:
                self._add(RuntimeDiagnostic(
                    code="REPRO-R102", severity="warning",
                    message=f"clock period jitter {jitter:.2%} over "
                            f"{len(self._spans)} cycles exceeds "
                            f"{config.clock_jitter_warn:.0%}",
                    t=self._spans[-1].t1, value=jitter,
                    threshold=config.clock_jitter_warn))
        return self.diagnostics

    # -- internals ------------------------------------------------------------

    def _add(self, diagnostic: RuntimeDiagnostic) -> None:
        self.diagnostics.append(diagnostic)
        self.metrics.inc("monitor.diagnostics")
        self.tracer.emit_diagnostic(diagnostic)

    def _emit_metric(self, name: str, span: CycleSpan, value: float,
                     extra: dict | None = None) -> None:
        if not self.tracer.enabled:
            return
        args = {"cycle": span.index, "value": value}
        if extra:
            args.update(extra)
        self.tracer.emit_event(f"monitor.{name}", "monitor", span.t1,
                               args)


def clock_diagnostics(clock, trajectory: Trajectory,
                      config: MonitorConfig | None = None,
                      indicator_names: Mapping[str, str] | None = None
                      ) -> list[RuntimeDiagnostic]:
    """Run-level R102/R103 checks for a free-running clock trajectory."""
    config = config or MonitorConfig()
    findings: list[RuntimeDiagnostic] = []
    edges = clock.rising_edges(trajectory)
    if edges.size >= config.min_cycles_for_jitter + 1:
        periods = np.diff(edges)
        jitter = float(np.std(periods) / np.mean(periods))
        if jitter > config.clock_jitter_warn:
            findings.append(RuntimeDiagnostic(
                code="REPRO-R102", severity="warning",
                message=f"clock period jitter {jitter:.2%} over "
                        f"{periods.size} rotations exceeds "
                        f"{config.clock_jitter_warn:.0%}",
                t=trajectory.t_final, value=jitter,
                threshold=config.clock_jitter_warn))
    for color, name in (indicator_names or {}).items():
        if name not in trajectory:
            continue
        contrast = indicator_contrast(trajectory, name)
        if contrast < config.indicator_contrast_warn:
            findings.append(RuntimeDiagnostic(
                code="REPRO-R103", severity="warning",
                message=f"absence indicator {name!r} ({color}) has "
                        f"contrast {contrast:.2f}; absence detection is "
                        f"mushy (check rate separation)",
                t=trajectory.t_final, value=contrast,
                threshold=config.indicator_contrast_warn, subject=name))
    return findings

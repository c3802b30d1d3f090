"""Robustness margin: the minimum separation at which a circuit computes.

The paper's guarantee has one quantitative premise -- fast reactions are
fast *relative to* slow ones -- so the natural robustness measure of a
circuit is the smallest fast/slow separation ratio at which it still
computes correctly.  :func:`robustness_margin` measures it by geometric
bisection: starting from a separation known to pass (the nominal scheme)
and one known to fail, it halves the interval in log space, running a
small batch of seeded trials at each probe point.

Each failing probe carries a ``REPRO-R***`` classification (from the
trial scores), so the result reports not just *where* the circuit breaks
but *how* -- residual mass at boundaries (R104), a stalled rotation
(R102), mushy logic levels (R103)...
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.errors import FaultError
from repro.faults.models import FaultPlan

#: Trial batches one search may run, the two bracket ends included.
MAX_EVALUATIONS = 24


@dataclass(frozen=True)
class MarginProbe:
    """One bisection evaluation: a trial batch at one separation."""

    separation: float
    ok: bool
    failures: int
    trials: int
    classifications: dict[str, int]

    def to_dict(self) -> dict:
        return {"separation": self.separation, "ok": self.ok,
                "failures": self.failures, "trials": self.trials,
                "classifications": dict(self.classifications)}


@dataclass(frozen=True)
class MarginResult:
    """Outcome of the bisection.

    ``margin`` is the smallest separation observed to pass;
    ``failed_at`` the largest observed to fail.  The true breaking point
    lies between them (``failed_at < s* <= margin``, up to trial noise).
    """

    margin: float
    failed_at: float
    classification: str | None
    probes: list[MarginProbe] = field(default_factory=list)

    @property
    def n_evaluations(self) -> int:
        return len(self.probes)

    def to_dict(self) -> dict:
        def finite(value):
            return value if np.isfinite(value) else None

        return {"margin": finite(self.margin),
                "failed_at": finite(self.failed_at),
                "classification": self.classification,
                "evaluations": self.n_evaluations,
                "probes": [probe.to_dict() for probe in self.probes]}


def probe_separation(adapter, models, separation: float, seed_sequence,
                     trials: int) -> MarginProbe:
    """Run one seeded trial batch at one separation: ``seed_sequence``
    spawns two children per trial, the fault plan's seed (when
    ``models`` is not empty) and the trial's generator."""
    nominal = adapter.nominal_scheme()
    scheme = nominal.compressed(nominal.separation / separation)
    children = seed_sequence.spawn(2 * trials)
    failures = 0
    classifications: Counter[str] = Counter()
    for i in range(trials):
        plan = FaultPlan(models, seed=children[2 * i]) if models else None
        rng = np.random.default_rng(children[2 * i + 1])
        score = adapter.evaluate(scheme, plan=plan, rng=rng)
        if not score.ok:
            failures += 1
            classifications[score.classification or "unclassified"] += 1
    return MarginProbe(separation=float(separation), ok=failures == 0,
                       failures=failures, trials=trials,
                       classifications=dict(classifications))


def robustness_margin(adapter, models=(), seed=0, trials: int = 4,
                      separation_lo: float = 2.0,
                      tolerance: float = 1.5) -> MarginResult:
    """Bisect the smallest passing fast/slow separation, between
    ``separation_lo`` and the adapter's nominal separation, in at most
    :data:`MAX_EVALUATIONS` trial batches.

    Parameters
    ----------
    adapter:
        a circuit adapter from :mod:`repro.faults.circuits`.
    models:
        fault models layered on top of the separation sweep (each probe
        trial gets a fresh seeded plan); empty probes the pure
        separation axis.
    trials:
        seeded trials per probe point; a point fails if *any* trial
        fails (the margin is a worst-case bound).
    tolerance:
        stop when the pass/fail bracket ratio drops below this.
    """
    if tolerance <= 1.0:
        raise FaultError("tolerance must exceed 1")
    hi = float(adapter.nominal_scheme().separation)
    lo = float(separation_lo)
    if not lo < hi:
        raise FaultError(f"need separation_lo below the nominal "
                         f"separation, got {lo} >= {hi}")
    root = np.random.SeedSequence(seed)
    probes: list[MarginProbe] = []

    def passes(separation: float) -> bool:
        probes.append(probe_separation(adapter, models, separation,
                                       root.spawn(1)[0], trials))
        return probes[-1].ok

    if not passes(hi):
        # Broken even at nominal separation: no margin to speak of.
        return MarginResult(margin=float("inf"), failed_at=hi,
                            classification=_dominant(probes), probes=probes)
    if passes(lo):
        # Still computing at the floor: margin is below the probe range.
        return MarginResult(margin=lo, failed_at=float("nan"),
                            classification=None, probes=probes)

    while hi / lo > tolerance and len(probes) < MAX_EVALUATIONS:
        mid = float(np.sqrt(hi * lo))
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return MarginResult(margin=hi, failed_at=lo,
                        classification=_dominant(probes), probes=probes)


def _dominant(probes) -> str | None:
    """Most common failure classification across all failing probes."""
    counts: Counter[str] = Counter()
    for probe in probes:
        counts.update(probe.classifications)
    counts.pop("unclassified", None)
    if not counts:
        return None
    return counts.most_common(1)[0][0]

"""Monte Carlo robustness campaigns.

A :class:`RobustnessCampaign` fans seeded fault-injection trials over
:class:`~repro.crn.simulation.sweep.ParallelSweepRunner`: for every
fault model (plus an unfaulted baseline) it runs ``trials`` independent
trials, scores each with the digital-domain metrics from
:mod:`repro.faults.circuits`, classifies failures with ``REPRO-R***``
codes, and finally bisects the circuit's robustness margin (see
:mod:`repro.faults.margin`).

Reproducibility contract: every trial's randomness (one
:class:`numpy.random.SeedSequence` for the fault plan, one for the
simulator) is spawned from the campaign's root seed *before* any work
is distributed, trials never share state, and results are collected in
payload order -- so a campaign's result is a pure function of
``(circuit, models, trials, seed, separation)`` and is bitwise
identical whether it ran serially or on a process pool.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.crn.simulation.sweep import ParallelSweepRunner
from repro.errors import FaultError
from repro.faults.circuits import TrialScore, make_circuit
from repro.faults.margin import MarginResult, robustness_margin
from repro.faults.models import (ClockGlitch, CopyNumberNoise, Dilution,
                                 FaultModel, FaultPlan, Leak, RateMismatch)

#: Baseline pseudo-model name (trial with no fault injected).
BASELINE = "baseline"

#: Default fault suites per circuit.  Rates are deliberately at the
#: scale a careful wet implementation could reach: the paper's claim is
#: that the protocol *tolerates* them, so the expected campaign outcome
#: at nominal separation is zero bit errors -- the margin search, not
#: the suite, is what probes the breaking point.
_MACHINE_SUITE = (RateMismatch(sigma=0.15), Leak(rate=1e-4),
                  Dilution(rate=1e-5), CopyNumberNoise(sigma=0.02),
                  # The clock tolerates mass loss only up to the
                  # boundary-fraction headroom (~10%); beyond it the
                  # boundary threshold becomes unreachable and the
                  # rotation stalls (REPRO-R102) -- measured in the
                  # fault-model tests.  5% is inside the recoverable
                  # band.
                  ClockGlitch(cycle=2, fraction=0.05))

_DEFAULT_SUITES: dict[str, tuple[FaultModel, ...]] = {
    "counter": (RateMismatch(sigma=0.3), Leak(rate=1e-5),
                Dilution(rate=1e-5), CopyNumberNoise(sigma=0.05)),
    "ma": _MACHINE_SUITE,
    "iir": _MACHINE_SUITE,
}


def default_suite(circuit: str) -> tuple[FaultModel, ...]:
    """The default fault-model suite for a registered circuit."""
    try:
        return _DEFAULT_SUITES[circuit]
    except KeyError:
        raise FaultError(f"no default fault suite for circuit "
                         f"{circuit!r}; choose from "
                         f"{sorted(_DEFAULT_SUITES)}") from None


@dataclass(frozen=True)
class TrialResult:
    """One scored trial of one fault model."""

    model: str
    trial: int
    score: TrialScore

    def to_dict(self) -> dict:
        return {"model": self.model, "trial": self.trial,
                "score": self.score.to_dict()}


@dataclass(frozen=True)
class ModelStats:
    """Aggregate over one fault model's trials."""

    model: str
    trials: int
    failures: int
    bit_errors: int
    bits_total: int
    bit_error_rate: float
    mean_settling: float
    worst_residual: float
    classifications: dict[str, int]

    def to_dict(self) -> dict:
        return {"model": self.model, "trials": self.trials,
                "failures": self.failures, "bit_errors": self.bit_errors,
                "bits_total": self.bits_total,
                "bit_error_rate": self.bit_error_rate,
                "mean_settling": self.mean_settling,
                "worst_residual": self.worst_residual,
                "classifications": dict(self.classifications)}


@dataclass
class CampaignResult:
    """Full campaign outcome: per-trial scores, per-model aggregates,
    and the measured robustness margin."""

    circuit: str
    separation: float
    seed: int
    trials: list[TrialResult]
    stats: list[ModelStats] = field(default_factory=list)
    margin: MarginResult | None = None

    @property
    def bit_errors(self) -> int:
        return sum(t.score.bit_errors for t in self.trials)

    @property
    def failures(self) -> int:
        return sum(1 for t in self.trials if not t.score.ok)

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit,
            "separation": self.separation,
            "seed": self.seed,
            "n_trials": len(self.trials),
            "bit_errors": self.bit_errors,
            "failures": self.failures,
            "stats": [s.to_dict() for s in self.stats],
            "margin": self.margin.to_dict() if self.margin else None,
            "trials": [t.to_dict() for t in self.trials],
        }

    def render(self) -> str:
        lines = [f"robustness campaign: circuit={self.circuit} "
                 f"separation={self.separation:g} seed={self.seed}",
                 f"  trials: {len(self.trials)}, failures: "
                 f"{self.failures}, bit errors: {self.bit_errors}", ""]
        header = (f"  {'model':<24} {'trials':>6} {'fail':>5} "
                  f"{'bit errs':>8} {'BER':>9} {'classification':<16}")
        lines.append(header)
        lines.append("  " + "-" * (len(header) - 2))
        for stat in self.stats:
            top = max(stat.classifications,
                      key=stat.classifications.get, default="-") \
                if stat.classifications else "-"
            lines.append(
                f"  {stat.model:<24} {stat.trials:>6} "
                f"{stat.failures:>5} {stat.bit_errors:>8} "
                f"{stat.bit_error_rate:>9.4f} {top:<16}")
        if self.margin is not None:
            lines.append("")
            if np.isfinite(self.margin.margin):
                lines.append(
                    f"  robustness margin: separation "
                    f"{self.margin.margin:.1f} still computes; first "
                    f"failure at {self.margin.failed_at:.1f} "
                    f"({self.margin.classification or 'unclassified'}, "
                    f"{self.margin.n_evaluations} probe batches)")
            else:
                lines.append("  robustness margin: circuit fails at "
                             "nominal separation")
        return "\n".join(lines)


def _trial_worker(payload: tuple) -> TrialResult:
    """Top-level (picklable) worker: run and score one trial.

    The payload carries everything the trial needs -- including its two
    pre-spawned seed sequences -- so the result does not depend on which
    process runs it.
    """
    (circuit_name, circuit_kwargs, model, separation,
     plan_seed, sim_seed, trial_index) = payload
    adapter = make_circuit(circuit_name, **circuit_kwargs)
    nominal = adapter.nominal_scheme()
    scheme = nominal if separation is None else \
        nominal.compressed(nominal.separation / separation)
    plan = FaultPlan([model], seed=plan_seed) if model is not None else None
    rng = np.random.default_rng(sim_seed)
    score = adapter.evaluate(scheme, plan=plan, rng=rng)
    return TrialResult(model=model.kind if model else BASELINE,
                       trial=trial_index, score=score)


class RobustnessCampaign:
    """Fan seeded fault-injection trials over a process pool.

    Parameters
    ----------
    circuit:
        registered circuit name (``counter``, ``ma``, ``iir``).
    models:
        fault models to campaign over (``None`` takes the circuit's
        default suite).  An unfaulted baseline model is always included.
    trials:
        trials per model.
    separation:
        fast/slow separation to run at (``None`` = the circuit's
        nominal scheme).
    measure_margin:
        also bisect the robustness margin (serial, deterministic).
    """

    def __init__(self, circuit: str = "counter",
                 models=None, trials: int = 20, seed: int = 0,
                 separation: float | None = None,
                 n_workers: int | None = None,
                 circuit_kwargs: dict | None = None,
                 measure_margin: bool = True,
                 margin_trials: int = 4):
        self.circuit = circuit
        self.models = tuple(models) if models is not None \
            else default_suite(circuit)
        self.trials = int(trials)
        if self.trials < 1:
            raise FaultError("need at least one trial per model")
        self.seed = int(seed)
        if separation is not None and not separation > 0:
            raise FaultError(f"separation must be positive, got "
                             f"{separation}")
        self.separation = separation
        self.n_workers = n_workers
        self.circuit_kwargs = dict(circuit_kwargs or {})
        self.measure_margin = measure_margin
        self.margin_trials = int(margin_trials)
        if measure_margin and self.margin_trials < 1:
            raise FaultError("need at least one trial per margin probe "
                             "point")

    def run(self) -> CampaignResult:
        model_list: list[FaultModel | None] = [None, *self.models]
        root = np.random.SeedSequence(self.seed)
        children = root.spawn(2 * len(model_list) * self.trials)
        payloads = []
        index = 0
        for model in model_list:
            for trial in range(self.trials):
                payloads.append((self.circuit, self.circuit_kwargs, model,
                                 self.separation, children[index],
                                 children[index + 1], trial))
                index += 2
        results = ParallelSweepRunner(self.n_workers).map(
            _trial_worker, payloads)
        stats = [self._aggregate(name, results)
                 for name in [BASELINE] + [m.kind for m in self.models]]
        margin = None
        if self.measure_margin:
            margin = robustness_margin(
                make_circuit(self.circuit, **self.circuit_kwargs),
                models=(), seed=self.seed, trials=self.margin_trials)
        nominal = make_circuit(self.circuit,
                               **self.circuit_kwargs).nominal_scheme()
        return CampaignResult(
            circuit=self.circuit,
            separation=float(self.separation if self.separation is not None
                             else nominal.separation),
            seed=self.seed, trials=results, stats=stats, margin=margin)

    @staticmethod
    def _aggregate(model: str, results: list[TrialResult]) -> ModelStats:
        scores = [t.score for t in results if t.model == model]
        classifications: Counter[str] = Counter()
        for score in scores:
            if not score.ok:
                classifications[score.classification or "unclassified"] += 1
        bits_total = sum(s.bits_total for s in scores)
        bit_errors = sum(s.bit_errors for s in scores)
        finite = [s.settling_time for s in scores
                  if np.isfinite(s.settling_time)]
        return ModelStats(
            model=model, trials=len(scores),
            failures=sum(1 for s in scores if not s.ok),
            bit_errors=bit_errors, bits_total=bits_total,
            bit_error_rate=bit_errors / bits_total if bits_total else 0.0,
            mean_settling=float(np.mean(finite)) if finite else 0.0,
            worst_residual=max((s.boundary_residual for s in scores),
                               default=0.0),
            classifications=dict(classifications))

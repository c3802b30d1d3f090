"""Orchestration: targets x checks -> deterministic report + corpus.

:func:`run_conformance` is the engine behind ``python -m repro
conformance``: generate the seeded target list for a budget, run the
metamorphic battery per applicable engine and the differential oracles
per target, greedily shrink every distinct failing check to a minimal
``.crn`` reproducer, and return a :class:`ConformanceReport` whose JSON
form is bit-identical across runs of the same ``(budget, seed)`` pair
(no timestamps, no wall times, seed-ordered reductions).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.conformance.generator import (BUDGETS, CONFORMANCE_SCHEME,
                                         GeneratorBudget, Target,
                                         generate_targets)
from repro.conformance.metamorphic import (ENGINE_SPECS,
                                           METAMORPHIC_CHECKS,
                                           CheckResult,
                                           check_canonical_form,
                                           check_duplicate_merge,
                                           check_sampling_guard)
from repro.conformance.oracles import (check_ensemble_vs_trial,
                                       check_lsoda_walk_vs_odeint,
                                       check_native_ssa_poll_vs_python,
                                       check_native_ssa_vs_python,
                                       check_native_vs_numpy,
                                       check_ode_solvers,
                                       check_ssa_vs_ode,
                                       check_tau_vs_ssa)
from repro.conformance.shrink import shrink_network, write_reproducer
from repro.errors import ReproError

#: Default replay-corpus location (relative to the repo root / cwd).
DEFAULT_CORPUS_DIR = Path("tests") / "conformance" / "corpus"


@dataclass(frozen=True)
class ConformanceReport:
    """Everything one conformance run produced."""

    budget: str
    seed: int
    targets: list[str]
    results: list[CheckResult]
    reproducers: list[str]

    @property
    def counts(self) -> dict[str, int]:
        summary = {"pass": 0, "fail": 0, "skip": 0}
        for result in self.results:
            summary[result.status] += 1
        return summary

    @property
    def failures(self) -> list[CheckResult]:
        return [r for r in self.results if r.failed]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        return {
            "schema": "repro.conformance/1",
            "budget": self.budget,
            "seed": self.seed,
            "targets": self.targets,
            "summary": self.counts,
            "reproducers": self.reproducers,
            "results": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        counts = self.counts
        lines = [f"conformance: budget={self.budget} seed={self.seed} "
                 f"targets={len(self.targets)} checks="
                 f"{len(self.results)}",
                 f"  pass {counts['pass']}  fail {counts['fail']}  "
                 f"skip {counts['skip']}"]
        for result in self.failures:
            lines.append(f"  FAIL {result.check} on {result.target} "
                         f"[{result.engine}]: {result.detail}")
        for path in self.reproducers:
            lines.append(f"  wrote reproducer {path}")
        if self.ok:
            lines.append("  all checks passed")
        return "\n".join(lines)


def _seed_for(seed: int, target_index: int, cell_index: int) -> int:
    """Stable per-cell RNG seed (independent of execution order)."""
    sequence = np.random.SeedSequence([seed, target_index, cell_index])
    return int(sequence.generate_state(1)[0])


def _cells_for(target: Target, target_index: int, seed: int,
               budget: GeneratorBudget) -> list:
    """The (runner, check-name) cells applicable to one target.

    Each cell is a zero-argument callable returning a
    :class:`CheckResult`, paired with a one-argument form used by the
    shrinker (same check, substituted network); ``cell.check`` is the
    check function it runs.
    """
    engines = [ENGINE_SPECS["ode"]]
    if target.stochastic:
        engines += [ENGINE_SPECS["ssa"], ENGINE_SPECS["tau"]]
    cells = []
    cell_index = 0

    def add(fn, *args, **kwargs):
        nonlocal cell_index
        cell_seed = _seed_for(seed, target_index, cell_index)
        cell_index += 1

        def run(network=None):
            subject = target if network is None else \
                dataclasses.replace(target, network=network)
            return fn(subject, *args, seed=cell_seed, **kwargs)
        run.check = fn
        cells.append(run)

    static_checks = (check_duplicate_merge, check_sampling_guard,
                     check_canonical_form)
    for check in METAMORPHIC_CHECKS:
        if check in static_checks:
            continue
        for engine in engines:
            add(check, engine)
    add(check_duplicate_merge, ENGINE_SPECS["ode"])
    add(check_sampling_guard, ENGINE_SPECS["ssa"])
    # Engine-independent: the canonical-serialisation contract the
    # serving cache keys on (reported under the ode engine column).
    add(check_canonical_form, ENGINE_SPECS["ode"])
    add(check_ode_solvers)
    add(check_ensemble_vs_trial, n_runs=budget.n_runs)
    add(check_ssa_vs_ode, n_runs=budget.n_runs)
    add(check_tau_vs_ssa, n_runs=budget.n_runs)
    add(check_native_vs_numpy)
    add(check_native_ssa_vs_python)
    add(check_lsoda_walk_vs_odeint)
    add(check_native_ssa_poll_vs_python)
    return cells


def run_conformance(budget: str = "small", seed: int = 0, *,
                    corpus_dir: str | Path | None = None,
                    shrink: bool = True) -> ConformanceReport:
    """Run the full conformance battery for one ``(budget, seed)``.

    ``corpus_dir`` enables reproducer writing: the first failure of
    each distinct check name is greedily shrunk and serialised there.
    """
    try:
        spec = BUDGETS[budget]
    except KeyError:
        raise ReproError(f"unknown budget {budget!r}; choose from "
                         f"{sorted(BUDGETS)}") from None
    targets = generate_targets(spec, seed)
    results: list[CheckResult] = []
    reproducers: list[str] = []
    shrunk_checks: set[str] = set()
    for target_index, target in enumerate(targets):
        for cell in _cells_for(target, target_index, seed, spec):
            result = cell()
            results.append(result)
            if (result.failed and shrink and corpus_dir is not None
                    and result.check not in shrunk_checks):
                shrunk_checks.add(result.check)

                def still_fails(network, _cell=cell,
                                _check=result.check):
                    return _cell(network).failed

                minimal = shrink_network(target.network, still_fails)
                path = write_reproducer(minimal, result.check,
                                        result.detail, corpus_dir)
                reproducers.append(str(path))
    return ConformanceReport(
        budget=budget, seed=seed,
        targets=[t.name for t in targets], results=results,
        reproducers=reproducers)


def replay_network(network, *, name: str = "corpus",
                   t_final: float = 2.0, stochastic: bool = True,
                   seed: int = 0) -> list[CheckResult]:
    """Replay the fast invariant battery against one (corpus) network.

    Used by ``tests/conformance/test_corpus_replay.py`` and the CLI's
    ``--replay`` mode: every metamorphic invariant on every applicable
    engine, plus the cross-solver and bitwise ensemble-vs-trial
    oracles, the three bitwise compiled-kernel oracles and the bitwise
    LSODA walk oracle -- cheap enough to run on every shrunk reproducer
    in tier-1, forever.
    """
    target = Target(name, network, CONFORMANCE_SCHEME,
                    t_final=t_final, stochastic=stochastic)
    budget = BUDGETS["tiny"]
    cells = _cells_for(target, 0, seed, budget)
    # Drop the two *statistical* ensemble oracles (ssa-vs-ode and
    # tau-vs-ssa): statistically meaningless on minimal reproducers and
    # by far the slowest cells.  The bitwise oracles stay -- they are
    # cheap and exact.
    statistical = (check_ssa_vs_ode, check_tau_vs_ssa)
    return [cell() for cell in cells if cell.check not in statistical]

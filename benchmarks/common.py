"""Shared helpers for the benchmark/experiment harness.

Each ``bench_*`` module regenerates one table or figure of the paper
(see DESIGN.md's experiment index): it runs the workload, renders the
rows/series with :mod:`repro.reporting`, writes them under
``benchmarks/results/``, prints them (visible with ``pytest -s``), and
asserts the qualitative *shape* the paper reports.  Timings come from
pytest-benchmark through :func:`run_timed`: one round by default, or
warm-up rounds followed by several timed rounds with their median and
interquartile range where a record gates on wall time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

RESULTS_DIR = Path(__file__).parent / "results"

#: Version of the ``results/<name>.json`` record schema.
SCHEMA_VERSION = 1


def save_report(name: str, title: str, body: str) -> Path:
    """Write a markdown experiment report and echo it to stdout."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.md"
    content = f"# {title}\n\n{body}\n"
    path.write_text(content, encoding="utf-8")
    print(f"\n{content}")
    return path


def save_json(name: str, payload: dict, *, seed: int | None = None,
              enabled: bool = True) -> Path | None:
    """Write a schema-versioned JSON record for one experiment.

    Called with ``enabled=bench_json`` so records only appear under the
    ``--json`` output mode; the record wraps the payload with the schema
    version, experiment name, and (if any) the seed that produced it.
    """
    if not enabled:
        return None
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    record = {"schema": SCHEMA_VERSION, "experiment": name}
    if seed is not None:
        record["seed"] = seed
    record.update(payload)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=float)
        handle.write("\n")
    print(f"wrote {path}")
    return path


def save_metrics(name: str, metrics) -> Path | None:
    """Write a telemetry snapshot next to the experiment's results.

    ``metrics`` is a :class:`repro.obs.MetricsRegistry` (or None); the
    snapshot lands in ``results/<name>.metrics.json`` so solver-effort
    regressions are visible alongside the figures they produced.
    """
    if metrics is None or not getattr(metrics, "enabled", False):
        return None
    RESULTS_DIR.mkdir(exist_ok=True)
    return metrics.write_json(RESULTS_DIR / f"{name}.metrics.json")


def ode_wall_seconds(metrics) -> float:
    """Total ODE solver wall time a :class:`MetricsRegistry` recorded."""
    return metrics.histogram("ode.wall_seconds").summary().get("sum", 0.0)


def median_iqr(values) -> tuple[float, float]:
    """Median and interquartile range of ``values``."""
    q1, median, q3 = np.percentile(np.asarray(values, dtype=float),
                                   [25, 50, 75])
    return float(median), float(q3 - q1)


def run_timed(benchmark, fn, *, rounds: int = 1,
              warmup_rounds: int = 0) -> list:
    """Run ``fn`` through pytest-benchmark's pedantic mode.

    ``warmup_rounds`` untimed calls (caches, lazy set-up such as the
    compiled kinetics kernel) precede ``rounds`` timed ones, and the
    timed rounds' return values come back in order, so a benchmark can
    report the median and IQR of any per-round measurement with
    :func:`median_iqr`.  With ``--benchmark-disable`` pytest-benchmark
    makes a single call, which is then the only round.
    """
    results = []

    def call():
        results.append(fn())
        return results[-1]

    benchmark.pedantic(call, rounds=rounds, warmup_rounds=warmup_rounds,
                       iterations=1)
    return results[-min(rounds, len(results)):]

"""Benchmark regression gate: current results vs committed baselines.

Compares the schema-versioned ``results/<name>.json`` records produced
by a fresh ``--json`` benchmark run against a baseline snapshot (the
committed records, stashed before the run).  Performance metrics may
not be more than ``--threshold`` (default 30%) worse than baseline;
correctness fields are informational only here -- the benchmarks assert
those themselves.

Two kinds of comparison are reported but not gated, because their
noise alone can cross the threshold:

- a wall-time metric (``*_seconds``) whose baseline is under
  :data:`NOISE_FLOOR_SECONDS`;
- a metric whose interquartile range, recorded as ``<metric>_iqr`` by
  benchmarks timed over several rounds, exceeds the threshold as a
  fraction of its value in either record.

Usage::

    python check_regression.py --baseline DIR [--current DIR]
                               [--threshold 0.3]

Exit status 1 when any watched metric regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Watched performance metrics per experiment record.  ``lower`` means
#: smaller is better (wall seconds, solver effort); ``higher`` means
#: larger is better (throughput).
WATCHED = {
    "E1_clock": {"ode_wall_seconds": "lower"},
    "E3_moving_average": {"ode_wall_seconds": "lower"},
    "E14_stochastic": {"events_per_sec": "higher",
                       "ssa_wall_seconds": "lower"},
    "E17_batch": {"events_per_second": "higher"},
    "E15_faults": {"campaign_wall_seconds": "lower"},
    "E16_waves": {"probe_wall_seconds": "lower"},
    "E18_serve": {"jobs_per_second": "higher"},
    "E19_clocking": {"cycles_per_second": "higher"},
}


#: Wall times below this are dominated by scheduling noise.
NOISE_FLOOR_SECONDS = 0.05


def _ungated_reason(key: str, baseline: dict, current: dict,
                    threshold: float) -> str | None:
    """Why a comparison is too noisy to gate, or ``None`` to gate it."""
    old = float(baseline[key])
    if key.endswith("seconds") and old < NOISE_FLOOR_SECONDS:
        return (f"baseline under the {NOISE_FLOOR_SECONDS * 1e3:g} ms "
                f"noise floor")
    for label, record in (("baseline", baseline), ("current", current)):
        iqr = record.get(f"{key}_iqr")
        value = float(record[key])
        if iqr is not None and value > 0.0 and iqr / value > threshold:
            return (f"{label} IQR {iqr / value:.0%} of the median is "
                    f"wider than the threshold")
    return None


def _load(path: Path) -> dict | None:
    if not path.is_file():
        return None
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def compare(baseline_dir: Path, current_dir: Path,
            threshold: float) -> list[str]:
    """Regression messages (empty when everything is within bounds)."""
    failures: list[str] = []
    for experiment, metrics in sorted(WATCHED.items()):
        baseline = _load(baseline_dir / f"{experiment}.json")
        current = _load(current_dir / f"{experiment}.json")
        if baseline is None:
            print(f"{experiment}: no baseline record, skipping")
            continue
        if current is None:
            failures.append(f"{experiment}: current record missing "
                            f"(benchmark did not produce JSON)")
            continue
        for key, direction in metrics.items():
            if key not in baseline:
                print(f"{experiment}.{key}: not in baseline, skipping")
                continue
            if key not in current:
                failures.append(f"{experiment}.{key}: missing from "
                                f"current record")
                continue
            old, new = float(baseline[key]), float(current[key])
            if old <= 0.0:
                print(f"{experiment}.{key}: non-positive baseline "
                      f"({old:g}), skipping")
                continue
            ratio = new / old
            worse = ratio > 1.0 + threshold if direction == "lower" \
                else ratio < 1.0 - threshold
            status = "REGRESSED" if worse else "ok"
            noisy = _ungated_reason(key, baseline, current, threshold)
            if noisy is not None:
                status += f" (not gated: {noisy})"
            print(f"{experiment}.{key}: {old:g} -> {new:g} "
                  f"({ratio:.2f}x, want {direction}) {status}")
            if worse and noisy is None:
                failures.append(
                    f"{experiment}.{key} regressed: {old:g} -> {new:g} "
                    f"({abs(ratio - 1.0):.0%} worse than baseline, "
                    f"threshold {threshold:.0%})")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=Path, required=True,
                        help="directory holding baseline *.json records")
    parser.add_argument("--current", type=Path,
                        default=Path(__file__).parent / "results",
                        help="directory holding fresh *.json records")
    parser.add_argument("--threshold", type=float, default=0.3,
                        help="allowed fractional slowdown (default 0.3)")
    args = parser.parse_args(argv)
    failures = compare(args.baseline, args.current, args.threshold)
    if failures:
        print("\n".join(["", "Benchmark regressions detected:"]
                        + [f"  - {message}" for message in failures]))
        return 1
    print("\nNo benchmark regressions.")
    return 0


if __name__ == "__main__":
    sys.exit(main())

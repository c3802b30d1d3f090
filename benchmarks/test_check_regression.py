"""The benchmark regression gate, on hand-written records.

Run with ``pytest benchmarks/test_check_regression.py``.
"""

import json

import pytest

import check_regression
from check_regression import compare

EXPERIMENT = "E3_moving_average"
KEY = "ode_wall_seconds"


def _write(directory, **record):
    directory.mkdir(exist_ok=True)
    (directory / f"{EXPERIMENT}.json").write_text(json.dumps(record))
    return directory


@pytest.fixture
def dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(check_regression, "WATCHED",
                        {EXPERIMENT: {KEY: "lower"}})
    return tmp_path / "baseline", tmp_path / "current"


def test_slowdown_beyond_threshold_fails(dirs):
    baseline, current = dirs
    _write(baseline, **{KEY: 0.20})
    _write(current, **{KEY: 0.30})
    (message,) = compare(baseline, current, 0.3)
    assert "regressed" in message and "50% worse" in message


def test_slowdown_within_threshold_passes(dirs):
    baseline, current = dirs
    _write(baseline, **{KEY: 0.20})
    _write(current, **{KEY: 0.25})
    assert compare(baseline, current, 0.3) == []


def test_baseline_under_noise_floor_is_reported_not_gated(dirs, capsys):
    baseline, current = dirs
    _write(baseline, **{KEY: 0.044})
    _write(current, **{KEY: 0.090})
    assert compare(baseline, current, 0.3) == []
    out = capsys.readouterr().out
    assert "REGRESSED (not gated: baseline under the 50 ms noise floor)" in out


@pytest.mark.parametrize("side", ["baseline", "current"])
def test_wide_iqr_is_reported_not_gated(dirs, capsys, side):
    medians = {"baseline": 0.20, "current": 0.40}  # a 2x slowdown
    for name, directory in zip(medians, dirs):
        iqr = 0.4 * medians[name] if name == side else 0.01
        _write(directory, **{KEY: medians[name], f"{KEY}_iqr": iqr})
    assert compare(*dirs, 0.3) == []
    assert f"not gated: {side} IQR 40% of the median" in capsys.readouterr().out


def test_narrow_iqr_still_gates(dirs):
    baseline, current = dirs
    _write(baseline, **{KEY: 0.20, f"{KEY}_iqr": 0.01})
    _write(current, **{KEY: 0.40, f"{KEY}_iqr": 0.02})
    assert len(compare(baseline, current, 0.3)) == 1


def test_throughput_metrics_have_no_seconds_floor(dirs, monkeypatch):
    baseline, current = dirs
    monkeypatch.setattr(check_regression, "WATCHED",
                        {EXPERIMENT: {"events_per_sec": "higher"}})
    _write(baseline, events_per_sec=0.04)
    _write(current, events_per_sec=0.01)
    assert len(compare(baseline, current, 0.3)) == 1


def test_missing_current_record_fails(dirs):
    baseline, current = dirs
    _write(baseline, **{KEY: 0.20})
    current.mkdir()
    (message,) = compare(baseline, current, 0.3)
    assert "current record missing" in message

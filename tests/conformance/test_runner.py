"""Tests for the conformance runner and report."""

import json

import pytest

from repro.conformance.runner import (ConformanceReport, _seed_for,
                                      run_conformance)
from repro.errors import ReproError


class TestSeedDerivation:
    def test_stable_and_order_independent(self):
        assert _seed_for(0, 1, 2) == _seed_for(0, 1, 2)
        cells = {_seed_for(0, t, c) for t in range(3) for c in range(4)}
        assert len(cells) == 12  # no collisions across the grid


class TestRunConformance:
    @pytest.fixture(scope="class")
    def report(self):
        return run_conformance("tiny", seed=0, corpus_dir=None,
                               shrink=False)

    def test_tiny_budget_passes_on_fixed_tree(self, report):
        assert report.ok, "\n".join(
            f"{r.check} [{r.engine}]: {r.detail}"
            for r in report.failures)

    def test_report_shape(self, report):
        payload = report.to_dict()
        assert payload["schema"] == "repro.conformance/1"
        assert payload["budget"] == "tiny"
        assert payload["seed"] == 0
        assert payload["targets"] == ["random:000"]
        counts = payload["summary"]
        assert counts["fail"] == 0
        assert counts["pass"] > 0
        assert counts["pass"] + counts["skip"] == len(payload["results"])
        # The report must be JSON-serialisable as-is (CLI --json path).
        json.dumps(payload)

    def test_report_has_no_wall_clock_fields(self, report):
        text = json.dumps(report.to_dict())
        for banned in ("time_s", "timestamp", "duration", "elapsed"):
            assert banned not in text

    def test_render_summarises(self, report):
        rendered = report.render()
        assert "budget=tiny" in rendered
        assert "all checks passed" in rendered

    def test_unknown_budget_rejected(self):
        with pytest.raises(ReproError, match="unknown budget"):
            run_conformance("enormous")


class TestReportAccounting:
    def test_counts_and_failures(self):
        from repro.conformance.metamorphic import CheckResult
        results = [CheckResult("a", "t", "e", "pass"),
                   CheckResult("b", "t", "e", "fail", "boom"),
                   CheckResult("c", "t", "e", "skip", "n/a")]
        report = ConformanceReport("tiny", 0, ["t"], results, [])
        assert report.counts == {"pass": 1, "fail": 1, "skip": 1}
        assert [r.check for r in report.failures] == ["b"]
        assert not report.ok
        assert "FAIL b on t [e]: boom" in report.render()

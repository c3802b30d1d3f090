"""Tests for the reporting helpers."""

import numpy as np
import pytest

from repro.crn.simulation.result import Trajectory
from repro.reporting import (markdown_table, plot_samples, plot_series,
                             plot_trajectory, write_report)


class TestTables:
    def test_markdown_structure(self):
        text = markdown_table(["name", "value"],
                              [["a", 1.0], ["b", 0.000123]])
        lines = text.splitlines()
        assert lines[0].startswith("| name")
        assert lines[1].startswith("|-")
        assert len(lines) == 4
        assert "1.230e-04" in text

    def test_write_report(self, tmp_path):
        path = tmp_path / "report.md"
        write_report(path, "Title", [("Sec", "body")])
        content = path.read_text()
        assert "# Title" in content and "## Sec" in content


class TestPlots:
    def test_plot_series_contains_glyphs(self):
        times = np.linspace(0, 1, 50)
        text = plot_series(times, {"up": times, "down": 1 - times},
                           width=40, height=8, title="demo")
        assert "demo" in text
        assert "#=up" in text and "*=down" in text
        assert text.count("\n") >= 10

    def test_plot_flat_series_ok(self):
        times = np.linspace(0, 1, 10)
        text = plot_series(times, {"flat": np.ones(10)})
        assert "flat" in text

    def test_plot_needs_two_samples(self):
        with pytest.raises(ValueError):
            plot_series(np.array([0.0]), {"x": np.array([1.0])})

    def test_plot_trajectory(self):
        times = np.linspace(0, 2, 30)
        states = np.column_stack([np.sin(times) + 1, np.cos(times) + 1])
        trajectory = Trajectory(times, states, ["A", "B"])
        text = plot_trajectory(trajectory, ["A", "B"])
        assert "#=A" in text

    def test_plot_samples_pads_short_series(self):
        text = plot_samples({"long": [1, 2, 3, 4], "short": [1, 2]})
        assert "short" in text

"""Reporting: ASCII figures and markdown tables for the benchmarks."""

from repro.reporting.ascii_plot import (plot_samples, plot_series,
                                        plot_trajectory)
from repro.reporting.tables import format_cell, markdown_table, write_report

__all__ = [
    "format_cell",
    "markdown_table",
    "plot_samples",
    "plot_series",
    "plot_trajectory",
    "write_report",
]

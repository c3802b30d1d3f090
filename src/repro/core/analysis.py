"""Measurement helpers for phase-protocol trajectories.

Signal accounting
-----------------
The positive-feedback accelerator reversibly parks part of a signal in its
dimer intermediate: at equilibrium roughly ``(k_slow/k_fast) * value**2``
units sit in ``I_S`` (each worth two units of ``S``).  The *effective value*
of a signal is therefore ``[S] + 2 [I_S]``; mass accounting over a transfer
chain is exact in this measure (one of the property tests asserts it).
"""

from __future__ import annotations

import numpy as np

from repro.crn.network import Network
from repro.crn.simulation.result import Trajectory
from repro.crn.species import COLORS
from repro.errors import SimulationError


def effective_series(trajectory: Trajectory, name: str) -> np.ndarray:
    """Time series of a signal including its dimer-bound share."""
    series = trajectory.column(name).copy()
    dimer = f"I_{name}"
    if dimer in trajectory:
        series = series + 2.0 * trajectory.column(dimer)
    return series


def effective_value(trajectory: Trajectory, name: str,
                    t: float | None = None) -> float:
    """Effective signal value at time ``t`` (default: final)."""
    series = effective_series(trajectory, name)
    if t is None:
        return float(series[-1])
    return float(np.interp(t, trajectory.times, series))


def transfer_fidelity(trajectory: Trajectory, source: str,
                      target: str) -> float:
    """Ratio of final effective target value to initial source value."""
    initial = float(trajectory.column(source)[0])
    if initial <= 0:
        raise SimulationError(f"source {source!r} starts empty")
    return effective_value(trajectory, target) / initial


def settling_time(trajectory: Trajectory, name: str,
                  tolerance: float = 0.01) -> float:
    """First time after which the effective signal stays within
    ``tolerance`` (relative) of its final value."""
    series = effective_series(trajectory, name)
    final = series[-1]
    scale = max(abs(final), 1e-12)
    outside = np.abs(series - final) > tolerance * scale
    if not outside.any():
        return float(trajectory.times[0])
    last_outside = np.nonzero(outside)[0][-1]
    if last_outside + 1 >= len(series):
        raise SimulationError(f"{name!r} has not settled")
    return float(trajectory.times[last_outside + 1])


def rise_time(trajectory: Trajectory, name: str, low: float = 0.1,
              high: float = 0.9) -> float:
    """10-90% rise time of a signal's effective series (crispness metric)."""
    series = effective_series(trajectory, name)
    final = series[-1]
    if final <= 0:
        raise SimulationError(f"{name!r} does not rise")
    t_low = _first_crossing(trajectory.times, series, low * final)
    t_high = _first_crossing(trajectory.times, series, high * final)
    return t_high - t_low


def _first_crossing(times: np.ndarray, series: np.ndarray,
                    level: float) -> float:
    above = series >= level
    if not above.any():
        raise SimulationError("series never crosses level")
    i = int(np.argmax(above))
    if i == 0:
        return float(times[0])
    t0, t1 = times[i - 1], times[i]
    y0, y1 = series[i - 1], series[i]
    if y1 == y0:
        return float(t1)
    return float(t0 + (level - y0) * (t1 - t0) / (y1 - y0))


def indicator_exclusivity(network: Network, trajectory: Trajectory,
                          protocol) -> float:
    """Mutual-exclusion metric for absence indicators.

    Returns the maximum over time of the *second largest* indicator
    quantity.  In a correctly phased system at most one indicator is ever
    substantially present, so this should stay near the indicator noise
    floor (~ k_slow / k_fast level relative to signal mass).
    """
    columns = np.stack(
        [trajectory.column(protocol.indicator_name(c)) for c in COLORS],
        axis=1)
    sorted_columns = np.sort(columns, axis=1)
    return float(sorted_columns[:, -2].max())


def conservation_drift(network: Network, trajectory: Trajectory) -> float:
    """Worst relative drift of any conservation law along the trajectory.

    Numerical-integrity check: mass-action ODEs preserve left null-space
    functionals exactly; solver error shows up here.
    """
    laws = network.conservation_laws()
    if laws.size == 0:
        return 0.0
    values = trajectory.states @ laws.T
    reference = values[0]
    scale = np.maximum(np.abs(reference), 1.0)
    return float(np.max(np.abs(values - reference[None, :]) / scale[None, :]))

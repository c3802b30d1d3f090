"""Event functions for piecewise integration.

Each factory returns a :class:`~repro.crn.simulation.margins.MarginEvent`:
a callable ``event(t, x) -> float`` whose sign change stops the
integrator (scipy ``solve_ivp`` semantics), over a one-term margin table
that sums the named species in the order given.  Such events detect
phase completion -- e.g. "total red signal mass has drained below a
threshold" -- without assuming anything about absolute phase
durations, which are rate-dependent even though the computed values
are not.  Every ODE method takes them, ``native-bdf`` included.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.crn.network import Network
from repro.crn.simulation.margins import MarginEvent, MarginTable


def _total(network: Network, names: Iterable[str], threshold: float,
           direction: float, terminal: bool) -> MarginEvent:
    """The event on ``sum(x[names]) - threshold``."""
    indices = [network.species_index(name) for name in names]
    table = MarginTable([(indices, [1.0] * len(indices), threshold, 1)])
    return MarginEvent(table, direction, terminal)


def species_below(network: Network, name: str, threshold: float,
                  terminal: bool = True) -> MarginEvent:
    """Fires when a species quantity falls below ``threshold``."""
    return _total(network, [name], threshold, -1.0, terminal)


def species_above(network: Network, name: str, threshold: float,
                  terminal: bool = True) -> MarginEvent:
    """Fires when a species quantity rises above ``threshold``."""
    return _total(network, [name], threshold, 1.0, terminal)


def total_below(network: Network, names: Iterable[str], threshold: float,
                terminal: bool = True) -> MarginEvent:
    """Fires when the summed quantity of a species group drains below
    ``threshold``.  Used for "category empty" phase detection."""
    return _total(network, names, threshold, -1.0, terminal)


def total_above(network: Network, names: Iterable[str], threshold: float,
                terminal: bool = True) -> MarginEvent:
    """Fires when the summed quantity of a species group exceeds
    ``threshold``."""
    return _total(network, names, threshold, 1.0, terminal)

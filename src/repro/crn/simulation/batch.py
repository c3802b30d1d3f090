"""Compatibility names for code that imports them from here: seeded
ensembles run through ``StochasticSimulator.simulate_ensemble``."""

from repro.crn.simulation.result import EnsembleResult
from repro.crn.simulation.ssa import StochasticSimulator

BatchStochasticSimulator = StochasticSimulator

__all__ = ["BatchStochasticSimulator", "EnsembleResult"]

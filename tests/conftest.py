"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from fractions import Fraction

import pytest
from hypothesis import settings

from repro.core.dfg import SignalFlowGraph

# Hypothesis profiles, chosen with HYPOTHESIS_PROFILE.  "kernel-fuzz" is
# the example budget CI's sanitizer step gives the kernel differential
# suite (tests/crn/test_native_differential.py), which otherwise runs its
# own small budget; every other property test sets its own.
settings.register_profile("kernel-fuzz", max_examples=300)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture
def ma2_sfg() -> SignalFlowGraph:
    """Two-tap moving average: y[n] = (x[n] + x[n-1]) / 2."""
    sfg = SignalFlowGraph("ma2")
    x = sfg.input("x")
    d = sfg.delay("d1", source=x)
    sfg.output("y", sfg.add(sfg.gain(Fraction(1, 2), x),
                            sfg.gain(Fraction(1, 2), d)))
    return sfg


@pytest.fixture
def iir1_sfg() -> SignalFlowGraph:
    """First-order IIR low-pass: y[n] = x[n]/2 + y[n-1]/2."""
    sfg = SignalFlowGraph("iir1")
    x = sfg.input("x")
    state = sfg.delay("s")
    y = sfg.add(sfg.gain(Fraction(1, 2), x),
                sfg.gain(Fraction(1, 2), state))
    sfg.output("y", y)
    sfg.connect(y, state)
    return sfg


@pytest.fixture
def diff_sfg() -> SignalFlowGraph:
    """Signed differentiator: y[n] = x[n] - x[n-1]."""
    sfg = SignalFlowGraph("diff")
    x = sfg.input("x")
    d = sfg.delay("d", source=x)
    sfg.output("y", sfg.subtract(x, d))
    return sfg

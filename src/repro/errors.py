"""Exception hierarchy for the repro package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class NetworkError(ReproError):
    """Raised for ill-formed chemical reaction networks."""


class ParseError(ReproError):
    """Raised when CRN text cannot be parsed."""

    def __init__(self, message: str, line_no: int | None = None,
                 line: str | None = None):
        self.line_no = line_no
        self.line = line
        if line_no is not None:
            message = f"line {line_no}: {message}"
            if line is not None:
                message = f"{message}\n    {line.strip()}"
        super().__init__(message)


class SimulationError(ReproError):
    """Raised when a simulation fails to complete."""


class SynthesisError(ReproError):
    """Raised when a signal-flow graph cannot be synthesized to reactions."""


class FaultError(ReproError):
    """Raised when a fault-injection plan is ill-formed or violates the
    fault-model contract (e.g. a model adds or removes species)."""


class ScenarioError(ReproError):
    """Raised for unknown scenario names or unsupported scenario
    capabilities (see :mod:`repro.scenarios`)."""


class ServeError(ReproError):
    """Raised for malformed job specs or serving-layer failures
    (see :mod:`repro.serve`)."""


class CertifyError(SynthesisError):
    """Raised when a module is uncertifiable (REPRO-C801) or a
    composition violates the small-gain condition (REPRO-C802)."""

"""Dynamic validation of static certificates.

A certificate claims: *at any fast/slow separation at or above*
``min_separation`` *the module computes digitally* (zero bit errors).
That claim is falsifiable, and this module tries to falsify it with
the fault-injection machinery:

:func:`certified_margin_campaign`
    runs seeded trial batches at separations spanning the certified
    region -- from exactly ``min_separation`` up to the nominal scheme
    -- with a :class:`~repro.faults.models.RateMismatch` jitter
    layered on top (compression models the systematic loss of
    separation, the mismatch models per-reaction spread).  A single
    digital failure inside the certified region disproves soundness.

:func:`margin_consistency`
    bisects the *measured* robustness margin of the same circuit and
    checks the static bound is conservative: the certificate must not
    certify any separation the campaign observed to fail
    (``min_separation >= failed_at``).

``tests/certify/test_soundness.py`` asserts both for the ``ma`` and
``iir`` circuits; ``docs/certify.md`` spells out the claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.apps.filters import iir_first_order, moving_average
from repro.certify.certificate import Certificate, CertifyConfig
from repro.certify.derive import design_certificate
from repro.crn.rates import RateScheme
from repro.errors import CertifyError
from repro.faults.circuits import make_circuit
from repro.faults.margin import (MarginResult, probe_separation,
                                 robustness_margin)
from repro.faults.models import RateMismatch

#: Designs behind the fault-campaign circuit adapters (the adapters
#: build the same filters internally; certificates need the matrix).
CERTIFIABLE_CIRCUITS = {
    "ma": lambda: moving_average(2).to_matrix(),
    "iir": lambda: iir_first_order().to_matrix(),
}


def circuit_certificate(name: str,
                        scheme: RateScheme | None = None,
                        config: CertifyConfig | None = None) -> Certificate:
    """Static certificate of a fault-campaign circuit."""
    try:
        builder = CERTIFIABLE_CIRCUITS[name]
    except KeyError:
        raise CertifyError(
            f"no certifiable design for circuit {name!r}; "
            f"choose from {sorted(CERTIFIABLE_CIRCUITS)}") from None
    return design_certificate(builder(), scheme, config)


@dataclass(frozen=True)
class SoundnessProbe:
    """One trial batch at one certified separation."""

    separation: float
    failures: int
    trials: int


@dataclass(frozen=True)
class SoundnessReport:
    """Outcome of a certified-margin campaign."""

    circuit: str
    min_separation: float
    failures: int
    trials: int
    probes: list[SoundnessProbe] = field(default_factory=list)

    @property
    def sound(self) -> bool:
        """True when no certified separation produced a failure."""
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "circuit": self.circuit,
            "min_separation": self.min_separation,
            "failures": self.failures,
            "trials": self.trials,
            "sound": self.sound,
            "probes": [{"separation": p.separation,
                        "failures": p.failures,
                        "trials": p.trials} for p in self.probes],
        }


def certified_margin_campaign(name: str, seed: int = 0,
                              trials: int = 3, points: int = 3,
                              sigma: float = 0.05,
                              config: CertifyConfig | None = None
                              ) -> SoundnessReport:
    """Attack the certified region; soundness means zero failures.

    Probes ``points`` separations geometrically spaced from the
    certificate's ``min_separation`` up to the nominal scheme's
    separation, each with ``trials`` seeded trials under a
    rate-mismatch fault of spread ``sigma``.
    """
    config = config if config is not None else CertifyConfig()
    adapter = make_circuit(name)
    nominal = adapter.nominal_scheme()
    certificate = circuit_certificate(name, nominal, config)
    floor = certificate.min_separation(config)
    ceiling = max(nominal.separation, floor)
    separations = np.geomspace(floor, ceiling, max(points, 1))

    root = np.random.SeedSequence(seed)
    probes: list[SoundnessProbe] = []
    for separation in separations:
        batch = probe_separation(adapter, [RateMismatch(sigma=sigma)],
                                 separation, root, trials)
        probes.append(SoundnessProbe(batch.separation, batch.failures,
                                     batch.trials))
    return SoundnessReport(circuit=name, min_separation=floor,
                           failures=sum(p.failures for p in probes),
                           trials=trials * len(probes), probes=probes)


def margin_consistency(name: str, seed: int = 0, trials: int = 2,
                       separation_lo: float = 4.0,
                       tolerance: float = 2.0,
                       config: CertifyConfig | None = None
                       ) -> tuple[Certificate, MarginResult]:
    """Measured margin next to the static bound.

    Returns the circuit's certificate and the bisected
    :class:`~repro.faults.margin.MarginResult`; the certificate is
    conservative when ``min_separation(config) >= failed_at`` (it
    never certifies a separation observed to fail).
    """
    config = config if config is not None else CertifyConfig()
    adapter = make_circuit(name)
    certificate = circuit_certificate(name, adapter.nominal_scheme(),
                                      config)
    result = robustness_margin(adapter, models=(), seed=seed,
                               trials=trials,
                               separation_lo=separation_lo,
                               tolerance=tolerance)
    return certificate, result

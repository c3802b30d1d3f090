"""Small-gain composition rules for certificates.

The algebra follows the ISS composition line: a cascade's ISS gain is
the product of the stage gains, and its disturbance amplification is
the first stage's disturbance pushed through the second stage's gain
plus the second stage's own disturbance:

.. math::

   g_{a \\to b} = g_a \\, g_b, \\qquad
   d_{a \\to b} = d_a \\, g_b + d_b.

Parallel sums add both.  Rate margins compose by worst case: the
slower settling rate and the smaller separation win.

These rules are deliberately *looser* than re-deriving the composite
design from scratch (the algebraic bound ignores cancellation across
the seam), so :func:`certify_composition` uses the direct derivation
when the composite design is at hand and the algebraic rule only as a
cross-check and fallback; both must stay inside the digital noise
margin or the composition is rejected with REPRO-C802.
"""

from __future__ import annotations

from repro.crn.rates import RateScheme
from repro.errors import CertifyError
from repro.certify.certificate import Certificate, CertifyConfig


def cascade_certificates(first: Certificate, second: Certificate,
                         module: str | None = None) -> Certificate:
    """Certificate of ``second(first(u))`` by the small-gain rule."""
    name = module or f"{first.module}->{second.module}"
    return Certificate(
        module=name,
        kind="cascade",
        gain=first.gain * second.gain,
        state_gain=max(first.state_gain,
                       first.gain * second.state_gain),
        contraction=max(first.contraction, second.contraction),
        horizon=max(first.horizon, second.horizon),
        transient=max(first.transient, second.transient),
        disturbance_gain=(first.disturbance_gain * second.gain
                          + second.disturbance_gain),
        settling_rate=min(first.settling_rate, second.settling_rate),
        separation=min(first.separation, second.separation),
    )


def parallel_certificates(first: Certificate, second: Certificate,
                          module: str | None = None) -> Certificate:
    """Certificate of the summing junction ``first(u) + second(v)``."""
    name = module or f"{first.module}+{second.module}"
    return Certificate(
        module=name,
        kind="parallel",
        gain=first.gain + second.gain,
        state_gain=first.state_gain + second.state_gain,
        contraction=max(first.contraction, second.contraction),
        horizon=max(first.horizon, second.horizon),
        transient=max(first.transient, second.transient),
        disturbance_gain=(first.disturbance_gain
                          + second.disturbance_gain),
        settling_rate=min(first.settling_rate, second.settling_rate),
        separation=min(first.separation, second.separation),
    )


_RULES = {
    "cascade": cascade_certificates,
    "parallel": parallel_certificates,
}


def compose_certificates(kind: str, first: Certificate,
                         second: Certificate,
                         module: str | None = None) -> Certificate:
    try:
        rule = _RULES[kind]
    except KeyError:
        raise CertifyError(
            f"unknown composition kind {kind!r}; "
            f"expected one of {sorted(_RULES)}") from None
    return rule(first, second, module)


def certify_composition(first: object, second: object,
                        composite: object | None, kind: str,
                        scheme: RateScheme | None = None,
                        config: CertifyConfig | None = None) -> Certificate:
    """Certify a composition; reject small-gain violations.

    Derives stage certificates and the composite's (directly, when the
    composed design is available -- tighter than the algebraic rule),
    then checks the certified error bound at the operating separation
    against the digital noise margin.  Raises
    :class:`~repro.errors.CertifyError` with REPRO-C802 phrasing when
    the bound escapes the margin, and propagates REPRO-C801 when any
    stage is uncertifiable.
    """
    from repro.certify.derive import certificate_for

    scheme = scheme if scheme is not None else RateScheme()
    config = config if config is not None else CertifyConfig()
    cert_a = certificate_for(first, scheme, config)
    cert_b = certificate_for(second, scheme, config)
    algebraic = compose_certificates(kind, cert_a, cert_b)
    if composite is not None:
        direct = certificate_for(composite, scheme, config)
        certificate = direct.renamed(direct.module)
    else:
        certificate = algebraic
    if not certificate.certified_at(certificate.separation, config):
        bound = certificate.error_bound(certificate.separation, config)
        raise CertifyError(
            f"composition {certificate.module!r} violates the "
            f"small-gain condition: certified error bound "
            f"{bound:.4g} exceeds the noise margin "
            f"{config.noise_margin:g} at separation "
            f"{certificate.separation:g} (needs >= "
            f"{certificate.min_separation(config):.4g}) (REPRO-C802)")
    return certificate

"""Rule registry and diagnostic engine for CRN static analysis.

The lint engine runs *structural* checks on chemical reaction networks
before any ODE is integrated -- the "validate by construction, then
simulate" step of the DAC 2011 methodology.  It runs on any
:class:`~repro.crn.network.Network`, including networks parsed from
``.crn`` files; :func:`lint_circuit` adds the synthesized circuit's
design bookkeeping, which the circuit-only rules read.

Concepts
--------
:class:`Rule`
    a named check registered in :data:`RULE_REGISTRY`.  One rule may emit
    several diagnostic codes (e.g. ``gate-legality`` owns both
    ``REPRO-E102`` and ``REPRO-E103``).
:class:`Diagnostic`
    one finding: code, severity, message, optional source span and fix
    hint.  Codes are namespaced ``REPRO-Exxx`` (error class) and
    ``REPRO-Wxxx`` (warning/note class); see ``docs/lint.md`` for the
    full catalogue.
:class:`LintConfig`
    per-rule enable/disable and per-code severity overrides.
:class:`LintReport`
    the ordered diagnostics plus which rules ran / were skipped.

Rules receive a :class:`LintContext` carrying the network, the optional
:class:`~repro.core.synthesis.SynthesizedCircuit` (rules that need design
bookkeeping declare ``needs_circuit=True`` and are skipped on raw
networks), and the configuration.
"""

from __future__ import annotations

import enum
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

from repro.crn.network import Network
from repro.crn.rates import RateScheme
from repro.crn.species import COLORS
from repro.errors import ReproError


class LintConfigError(ReproError):
    """Raised for invalid lint configuration (unknown rules/codes)."""


class Severity(enum.IntEnum):
    """Diagnostic severity, ordered: NOTE < WARNING < ERROR."""

    NOTE = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return self.name.lower()

    @property
    def sarif_level(self) -> str:
        return {Severity.NOTE: "note", Severity.WARNING: "warning",
                Severity.ERROR: "error"}[self]

    @classmethod
    def from_name(cls, name: str) -> "Severity":
        try:
            return cls[name.upper()]
        except KeyError:
            raise LintConfigError(
                f"unknown severity {name!r}; expected one of "
                f"{[s.label for s in cls]}") from None


@dataclass(frozen=True)
class Diagnostic:
    """One lint finding."""

    code: str
    rule: str
    severity: Severity
    message: str
    #: 1-based (start_line, end_line) in the source file, when known.
    span: tuple[int, int] | None = None
    path: str | None = None
    #: species name or reaction text the finding is about.
    subject: str = ""
    fix_hint: str = ""

    def format(self) -> str:
        location = ""
        if self.path and self.span:
            location = f" ({self.path}:{self.span[0]})"
        elif self.span:
            location = f" (line {self.span[0]})"
        text = (f"{self.code} {self.severity.label}: {self.message}"
                f"{location}  [{self.rule}]")
        if self.fix_hint:
            text += f"\n    fix: {self.fix_hint}"
        return text

    def to_dict(self) -> dict:
        payload = {
            "code": self.code,
            "rule": self.rule,
            "severity": self.severity.label,
            "message": self.message,
        }
        if self.span:
            payload["span"] = list(self.span)
        if self.path:
            payload["path"] = self.path
        if self.subject:
            payload["subject"] = self.subject
        if self.fix_hint:
            payload["fix_hint"] = self.fix_hint
        return payload


@dataclass(frozen=True)
class Rule:
    """A registered lint rule."""

    name: str
    codes: tuple[str, ...]
    description: str
    check: Callable[["LintContext"], Iterable[Diagnostic]]
    needs_circuit: bool = False
    default_severities: dict[str, Severity] = field(default_factory=dict)

    def severity_for(self, code: str) -> Severity:
        if code in self.default_severities:
            return self.default_severities[code]
        return Severity.ERROR if code.startswith("REPRO-E") \
            else Severity.WARNING


#: All registered rules, in registration order.
RULE_REGISTRY: dict[str, Rule] = {}


def rule(name: str, *, codes: tuple[str, ...], description: str,
         needs_circuit: bool = False,
         severities: dict[str, Severity] | None = None):
    """Decorator registering a check function as a lint rule."""

    def decorator(check):
        if name in RULE_REGISTRY:
            raise LintConfigError(f"duplicate rule name {name!r}")
        RULE_REGISTRY[name] = Rule(
            name=name, codes=tuple(codes), description=description,
            check=check, needs_circuit=needs_circuit,
            default_severities=dict(severities or {}))
        return check

    return decorator


def all_codes() -> dict[str, Rule]:
    """Mapping of every registered diagnostic code to its rule."""
    mapping: dict[str, Rule] = {}
    for registered in RULE_REGISTRY.values():
        for code in registered.codes:
            mapping[code] = registered
    return mapping


@dataclass(frozen=True)
class LintConfig:
    """Per-run rule selection and severity policy.

    Parameters
    ----------
    select:
        if given, only these rules run (by name).
    disable:
        rules to skip (by name).
    severity_overrides:
        ``{code: Severity}`` replacing a code's default severity.
    options:
        per-rule tuning knobs; recognised keys include
        ``separation_threshold`` (REPRO-W203, default 100.0),
        ``band_margin`` (REPRO-W201 numeric ambiguity, default 3.0) and
        ``scheme`` (a :class:`~repro.crn.rates.RateScheme`).
    """

    select: frozenset[str] | None = None
    disable: frozenset[str] = frozenset()
    severity_overrides: dict[str, Severity] = field(default_factory=dict)
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        known = set(RULE_REGISTRY)
        for name in (self.select or frozenset()) | self.disable:
            if name not in known:
                raise LintConfigError(
                    f"unknown lint rule {name!r}; known rules: "
                    f"{sorted(known)}")
        codes = set(all_codes())
        for code in self.severity_overrides:
            if code not in codes:
                raise LintConfigError(f"unknown diagnostic code {code!r}")

    def enabled_rules(self) -> list[Rule]:
        rules = []
        for name, registered in RULE_REGISTRY.items():
            if self.select is not None and name not in self.select:
                continue
            if name in self.disable:
                continue
            rules.append(registered)
        return rules

    def severity_for(self, registered: Rule, code: str) -> Severity:
        if code in self.severity_overrides:
            return self.severity_overrides[code]
        return registered.severity_for(code)

    def option(self, key: str, default):
        return self.options.get(key, default)


class LintContext:
    """Everything a rule needs to inspect one lint target."""

    def __init__(self, network: Network, circuit=None,
                 config: LintConfig | None = None,
                 path: str | None = None):
        self.network = network
        self.circuit = circuit
        self.config = config or LintConfig()
        self.path = path
        self._rule: Rule | None = None
        self._indicators: dict[str, str] | None = None

    # -- rate scheme ---------------------------------------------------------

    @property
    def scheme(self) -> RateScheme:
        scheme = self.config.option("scheme", None)
        return scheme if scheme is not None else RateScheme()

    # -- indicator discovery -------------------------------------------------

    def indicators(self) -> dict[str, str]:
        """Mapping of absence-indicator species name to its colour.

        For synthesized circuits the protocol names are authoritative.
        For raw networks, species with ``role="indicator"`` are matched by
        their trailing character, and the bare default names (``r``,
        ``g``, ``b``) are recognised whenever the network uses colours.
        """
        if self._indicators is not None:
            return self._indicators
        from repro.core.phases import INDICATOR_NAMES

        mapping: dict[str, str] = {}
        if self.circuit is not None:
            protocol = self.circuit.protocol
            mapping = {protocol.indicator_name(color): color
                       for color in COLORS}
        else:
            by_name = {name: color
                       for color, name in INDICATOR_NAMES.items()}
            has_colors = any(s.color is not None
                             for s in self.network.species)
            for species in self.network.species:
                if species.role == "indicator":
                    suffix = species.name[-1]
                    if suffix in by_name:
                        mapping[species.name] = by_name[suffix]
                elif species.name in by_name and has_colors:
                    mapping[species.name] = by_name[species.name]
        self._indicators = mapping
        return mapping

    def meta(self, species) -> "object":
        """The registered species (with colour/role metadata).

        Reaction sides may hold bare ``Species`` objects created from
        names (species compare by name only), so metadata must be read
        through the network registry, never off a reactant directly.
        """
        name = getattr(species, "name", species)
        return self.network.get_species(name)

    def indicator_name(self, color: str) -> str:
        """Name of the colour's absence indicator for this target."""
        if self.circuit is not None:
            return self.circuit.protocol.indicator_name(color)
        for name, mapped in self.indicators().items():
            if mapped == color:
                return name
        from repro.core.phases import INDICATOR_NAMES

        return INDICATOR_NAMES[color]

    # -- diagnostic construction ---------------------------------------------

    def diag(self, code: str, message: str, *, reaction_index: int | None = None,
             species: str | None = None, subject: str = "",
             fix_hint: str = "") -> Diagnostic:
        assert self._rule is not None, "diag() outside a rule run"
        if code not in self._rule.codes:
            raise LintConfigError(
                f"rule {self._rule.name!r} emitted unregistered code "
                f"{code!r}")
        span = None
        provenance = getattr(self.network, "provenance", {})
        if reaction_index is not None:
            line = provenance.get(("reaction", reaction_index))
            if line is not None:
                span = (line, line)
            if not subject:
                subject = str(self.network.reactions[reaction_index])
        if species is not None:
            if span is None:
                line = provenance.get(("species", species))
                if line is not None:
                    span = (line, line)
            if not subject:
                subject = species
        return Diagnostic(
            code=code, rule=self._rule.name,
            severity=self.config.severity_for(self._rule, code),
            message=message, span=span, path=self.path,
            subject=subject, fix_hint=fix_hint)


@dataclass
class LintReport:
    """Outcome of one lint run over one target."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    checked: list[str] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    target: str = ""

    def by_severity(self, severity: Severity) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.severity == severity]

    @property
    def errors(self) -> list[Diagnostic]:
        return self.by_severity(Severity.ERROR)

    @property
    def warnings(self) -> list[Diagnostic]:
        return self.by_severity(Severity.WARNING)

    @property
    def notes(self) -> list[Diagnostic]:
        return self.by_severity(Severity.NOTE)

    @property
    def ok(self) -> bool:
        return not self.errors

    def exit_code(self, strict: bool = False,
                  fail_on: "Severity | None" = None) -> int:
        """CI gate: 1 when any diagnostic reaches the threshold.

        ``fail_on`` sets the failing severity explicitly (``--fail-on``
        on the CLI); the default fails on errors only.  ``strict`` is
        the legacy spelling of ``fail_on=Severity.WARNING`` and the
        stricter of the two wins.
        """
        threshold = fail_on if fail_on is not None else Severity.ERROR
        if strict:
            threshold = min(threshold, Severity.WARNING)
        if any(d.severity >= threshold for d in self.diagnostics):
            return 1
        return 0

    def codes(self) -> set[str]:
        return {d.code for d in self.diagnostics}

    def summary(self) -> str:
        status = "OK" if self.ok else "FAILED"
        return (f"lint {status}: {len(self.checked)} rules, "
                f"{len(self.errors)} errors, {len(self.warnings)} "
                f"warnings, {len(self.notes)} notes")


def run_rules(context: LintContext) -> LintReport:
    """Run every enabled rule against the context."""
    report = LintReport(target=context.path or context.network.name)
    for registered in context.config.enabled_rules():
        if registered.needs_circuit and context.circuit is None:
            report.skipped.append(registered.name)
            continue
        context._rule = registered
        try:
            report.diagnostics.extend(registered.check(context))
        finally:
            context._rule = None
        report.checked.append(registered.name)
    return report


def lint_network(network: Network, config: LintConfig | None = None,
                 path: str | None = None) -> LintReport:
    """Lint a raw reaction network (e.g. parsed from a ``.crn`` file)."""
    return run_rules(LintContext(network, circuit=None, config=config,
                                 path=path))


def lint_circuit(circuit, config: LintConfig | None = None,
                 path: str | None = None) -> LintReport:
    """Lint a synthesized circuit (network + design bookkeeping)."""
    return run_rules(LintContext(circuit.network, circuit=circuit,
                                 config=config, path=path))

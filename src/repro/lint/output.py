"""Render lint reports as text, JSON, or SARIF.

All renderers take the same aggregate -- an ordered list of
``(target, report)`` pairs, where ``target`` is a display name (a file
path or ``circuit:<name>``) -- and return a string.  SARIF output is
the minimal SARIF 2.1.0 document GitHub code scanning accepts, with one
``rules`` entry per registered rule so diagnostics link back to their
documentation.
"""

from __future__ import annotations

import json

from repro.lint.engine import RULE_REGISTRY, LintReport, Severity

#: Documentation home of the REPRO-E/W catalogue.
DOCS_URL = "docs/lint.md"

#: Documentation home of the REPRO-C certificate namespace (the
#: composition-certificate rule's warning codes live there too).
CERTIFY_DOCS_URL = "docs/certify.md"

_CERTIFY_CODES = frozenset({"REPRO-W803", "REPRO-W804"})


def help_uri(code: str) -> str:
    """Per-code documentation anchor (``<a id=...>`` in the docs)."""
    certify = code.startswith("REPRO-C") or code in _CERTIFY_CODES
    base = CERTIFY_DOCS_URL if certify else DOCS_URL
    return f"{base}#{code.lower()}"


def render_text(results: list[tuple[str, LintReport]],
                verbose: bool = False) -> str:
    """Human-readable report, one line per diagnostic."""
    lines: list[str] = []
    total_errors = total_warnings = total_notes = 0
    for target, report in results:
        shown = report.diagnostics if verbose else [
            d for d in report.diagnostics
            if d.severity >= Severity.WARNING]
        if shown or verbose:
            lines.append(f"{target}:")
        for diag in shown:
            lines.append(f"  {diag.format()}")
        if verbose and not report.diagnostics:
            lines.append("  clean")
        if verbose and report.skipped:
            lines.append("  skipped (need a synthesized circuit): "
                         + ", ".join(report.skipped))
        total_errors += len(report.errors)
        total_warnings += len(report.warnings)
        total_notes += len(report.notes)
    lines.append(
        f"{len(results)} target(s): {total_errors} error(s), "
        f"{total_warnings} warning(s), {total_notes} note(s)")
    return "\n".join(lines)


def render_json(results: list[tuple[str, LintReport]]) -> str:
    """Machine-readable JSON: per-target diagnostics plus a summary."""
    payload = {
        "version": 1,
        "targets": [
            {
                "target": target,
                "ok": report.ok,
                "checked": list(report.checked),
                "skipped": list(report.skipped),
                "diagnostics": [d.to_dict() for d in report.diagnostics],
            }
            for target, report in results
        ],
        "summary": {
            "errors": sum(len(r.errors) for _, r in results),
            "warnings": sum(len(r.warnings) for _, r in results),
            "notes": sum(len(r.notes) for _, r in results),
        },
    }
    return json.dumps(payload, indent=2)


def _sarif_rules() -> list[dict]:
    entries = []
    for rule in RULE_REGISTRY.values():
        for code in rule.codes:
            entries.append({
                "id": code,
                "name": rule.name,
                "shortDescription": {"text": rule.description},
                "helpUri": help_uri(code),
                "defaultConfiguration": {
                    "level": rule.severity_for(code).sarif_level},
            })
    return entries


def render_sarif(results: list[tuple[str, LintReport]]) -> str:
    """Minimal SARIF 2.1.0 document for CI code-scanning upload."""
    sarif_results = []
    for target, report in results:
        for diag in report.diagnostics:
            entry: dict = {
                "ruleId": diag.code,
                "level": diag.severity.sarif_level,
                "message": {"text": diag.message},
            }
            location: dict = {
                "physicalLocation": {
                    "artifactLocation": {"uri": diag.path or target},
                }
            }
            if diag.span is not None:
                location["physicalLocation"]["region"] = {
                    "startLine": int(diag.span[0]),
                    "endLine": int(diag.span[1])}
            if diag.subject:
                location["logicalLocations"] = [{"name": diag.subject}]
            entry["locations"] = [location]
            sarif_results.append(entry)
    document = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "informationUri": DOCS_URL,
                    "rules": _sarif_rules(),
                }
            },
            "results": sarif_results,
        }],
    }
    return json.dumps(document, indent=2)

"""Every shipped network must lint clean.

Parametrized over all ``.crn`` files under ``examples/`` and every
built-in circuit: none may produce a single error-severity diagnostic.
This is the test CI mirrors with ``python -m repro lint``.
"""

from pathlib import Path

import pytest

from repro.crn.network import Network
from repro.crn.parser import load_network
from repro.lint import lint_circuit, lint_network
from repro.lint.builtins import BUILTIN_CIRCUITS

EXAMPLES = sorted(Path(__file__).resolve()
                  .parents[2].joinpath("examples").glob("*.crn"))


def test_examples_exist():
    assert len(EXAMPLES) >= 3, "expected shipped .crn examples"


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_file_lints_clean(path):
    network = load_network(path)
    report = lint_network(network, path=str(path))
    assert report.ok, report.summary()
    assert report.warnings == [], [d.format() for d in report.warnings]


@pytest.mark.parametrize("name", sorted(BUILTIN_CIRCUITS))
def test_builtin_lints_clean(name):
    target = BUILTIN_CIRCUITS[name]()
    if isinstance(target, Network):
        report = lint_network(target)
    else:
        report = lint_circuit(target)
    assert report.ok, report.summary()
    assert report.warnings == [], [d.format() for d in report.warnings]


class TestVerifyShimEquivalence:
    """The four circuit rules keep the messages of the checks they
    replaced."""

    def test_legacy_messages_preserved(self, ma2_sfg):
        from repro.core.synthesis import synthesize
        from repro.crn.species import Species
        from repro.lint import LintConfig

        circuit = synthesize(ma2_sfg)
        circuit.network.add_species(Species("orphan", color="red"))
        circuit.network.add(None, "orphan", "slow")
        report = lint_circuit(circuit, LintConfig(select=frozenset({
            "parking", "gate-legality", "coefficient-realisation",
            "implementability"})))
        assert [d.message for d in report.diagnostics] == [
            "coloured species 'orphan' has no way out of its colour: "
            "standing quantity would block the red-absence indicator "
            "forever"]

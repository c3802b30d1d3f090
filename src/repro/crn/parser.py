"""Text format for chemical reaction networks.

The format mirrors how the paper writes reactions.  One statement per line:

.. code-block:: text

    # comment
    network: delay_chain
    species R_1 color=red role=signal
    init X = 50
    X + Y -> 2 Z @ fast          # mass-action, symbolic rate category
    2 G -> I @ slow
    I + R -> 2 G + G_out @ 250.0 # numeric rate constant
    -> r @ slow                  # zeroth-order source
    r + R -> R @ fast            # catalytic consumption
    X ->  @ 0.1                  # degradation
    A <-> B @ slow / fast        # reversible: forward @ slow, back @ fast

The parser round-trips with :meth:`repro.crn.network.Network.to_text`.
"""

from __future__ import annotations

import math
import re

from repro.crn.network import Network
from repro.crn.reaction import Reaction
from repro.crn.species import Species
from repro.errors import ParseError

_TERM_RE = re.compile(r"^\s*(?:(\d+)\s+|(\d+)\s*\*\s*)?([A-Za-z_][\w.\[\]]*)\s*$")
_ATTR_RE = re.compile(r"^(\w+)=([\w.]+)$")


def _parse_side(text: str, line_no: int, line: str) -> dict[str, int]:
    text = text.strip()
    if not text or text == "0":
        return {}
    side: dict[str, int] = {}
    for term in text.split("+"):
        match = _TERM_RE.match(term)
        if not match:
            raise ParseError(f"cannot parse term {term.strip()!r}",
                             line_no, line)
        coeff = int(match.group(1) or match.group(2) or 1)
        name = match.group(3)
        side[name] = side.get(name, 0) + coeff
    return side


def _parse_rate(text: str, line_no: int, line: str) -> float | str:
    text = text.strip()
    if re.match(r"^[A-Za-z_]\w*$", text):
        return text
    try:
        value = float(text)
    except ValueError:
        raise ParseError(f"cannot parse rate {text!r}", line_no, line) from None
    if value < 0:
        raise ParseError("rate must be non-negative", line_no, line)
    return value


def parse_network(text: str, name: str = "crn") -> Network:
    """Parse CRN text into a :class:`~repro.crn.network.Network`."""
    network = Network(name)
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line, _, comment = raw.partition("#")
        line = line.strip()
        if not line:
            continue
        if line.startswith("network:"):
            network.name = line.split(":", 1)[1].strip() or network.name
            continue
        if line.startswith("species "):
            _parse_species_line(network, line, line_no, raw)
            continue
        if line.startswith("init "):
            _parse_init_line(network, line, line_no, raw)
            continue
        # A trailing comment on a reaction line round-trips as its label.
        _parse_reaction_line(network, line, line_no, raw,
                             label=comment.strip())
    return network


def _parse_species_line(network: Network, line: str, line_no: int,
                        raw: str) -> None:
    parts = line.split()
    if len(parts) < 2:
        raise ParseError("species line needs a name", line_no, raw)
    name = parts[1]
    attrs: dict[str, str] = {}
    for part in parts[2:]:
        match = _ATTR_RE.match(part)
        if not match:
            raise ParseError(f"bad species attribute {part!r}", line_no, raw)
        attrs[match.group(1)] = match.group(2)
    try:
        species = Species(name, color=attrs.get("color"),
                          role=attrs.get("role", "signal"))
        network.add_species(species)
    except ParseError:
        raise
    except Exception as exc:
        # Bad colour/role, invalid name, or a re-declaration that
        # conflicts with an earlier line -- all user errors in the file.
        raise ParseError(str(exc), line_no, raw) from exc
    network.provenance[("species", name)] = line_no


def _parse_init_line(network: Network, line: str, line_no: int,
                     raw: str) -> None:
    body = line[len("init "):]
    if "=" not in body:
        raise ParseError("init line needs 'name = value'", line_no, raw)
    name, value_text = body.split("=", 1)
    try:
        value = float(value_text)
    except ValueError:
        raise ParseError(f"bad init value {value_text.strip()!r}",
                         line_no, raw) from None
    if not math.isfinite(value):
        raise ParseError(f"init value of {name.strip()!r} must be finite, "
                         f"got {value!r}", line_no, raw)
    if value < 0:
        raise ParseError("init value must be non-negative", line_no, raw)
    network.set_initial(name.strip(), value)


def _parse_reaction_line(network: Network, line: str, line_no: int,
                         raw: str, label: str = "") -> None:
    if "@" in line:
        body, rate_text = line.rsplit("@", 1)
    else:
        body, rate_text = line, "slow"
    reversible = "<->" in body
    arrow = "<->" if reversible else "->"
    if arrow not in body:
        raise ParseError("expected '->' or '<->'", line_no, raw)
    left_text, right_text = body.split(arrow, 1)
    left = _parse_side(left_text, line_no, raw)
    right = _parse_side(right_text, line_no, raw)
    if not left and not right:
        raise ParseError("reaction with both sides empty", line_no, raw)
    if reversible:
        if "/" not in rate_text:
            raise ParseError("reversible reaction needs 'fwd / bwd' rates",
                             line_no, raw)
        fwd_text, bwd_text = rate_text.split("/", 1)
        fwd = _parse_rate(fwd_text, line_no, raw)
        bwd = _parse_rate(bwd_text, line_no, raw)
        network.add_reaction(Reaction(left, right, fwd, label=label))
        network.provenance[("reaction", network.n_reactions - 1)] = line_no
        network.add_reaction(Reaction(right, left, bwd, label=label))
        network.provenance[("reaction", network.n_reactions - 1)] = line_no
    else:
        rate = _parse_rate(rate_text, line_no, raw)
        network.add_reaction(Reaction(left, right, rate, label=label))
        network.provenance[("reaction", network.n_reactions - 1)] = line_no


def load_network(path, name: str | None = None) -> Network:
    """Parse a network from a file path."""
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    return parse_network(text, name=name or str(path))

"""Rate-category consistency rules.

The paper's robustness contract is that reactions fall into two coarse
categories and only *fast >> slow* matters.  Three checks police that
discipline:

``rate-category`` (REPRO-W201)
    every reaction must be classifiable: symbolic categories must be
    ones a default :class:`~repro.crn.rates.RateScheme` resolves, and
    numeric constants must sit clearly inside the fast or slow band
    (a constant near the geometric midpoint belongs to neither).

``rate-separation`` (REPRO-W202, REPRO-W203)
    cycles in the complex graph must not mix fast and slow reactions
    (a mixed-timescale loop has no two-category reading), and the
    worst-case separation ratio ``min(fast)/max(slow)`` across the
    network must stay above a threshold (default 100).
"""

from __future__ import annotations

import math

from repro.crn.rates import AMP, DAMP, FAST, GEN, SLOW
from repro.lint.engine import LintContext, rule

#: Symbolic categories that scale with the slow timescale.
SLOW_CLASS = frozenset({SLOW, GEN, AMP, DAMP})

#: Indicator-internal categories excluded from the separation ratio.
AUXILIARY_CATEGORIES = frozenset({GEN, AMP, DAMP})


def _midpoint(scheme) -> float:
    return math.sqrt(scheme.fast * scheme.slow)


def classify_rate(rate, scheme) -> str | None:
    """Coarse class of a rate: ``"fast"``, ``"slow"`` or ``None``.

    Symbolic categories map by name; numeric constants split at the
    geometric midpoint of the scheme's fast and slow values.  ``None``
    means the symbolic category is unknown to the scheme.
    """
    if isinstance(rate, str):
        if rate == FAST:
            return "fast"
        if rate in SLOW_CLASS:
            return "slow"
        return None
    return "fast" if float(rate) >= _midpoint(scheme) else "slow"


@rule("rate-category",
      codes=("REPRO-W201",),
      description="Every reaction must be classifiable as fast or slow "
                  "under the rate scheme.")
def check_rate_category(ctx: LintContext):
    scheme = ctx.scheme
    margin = float(ctx.config.option("band_margin", 3.0))
    midpoint = _midpoint(scheme)
    known = set(scheme.values)
    for index, reaction in enumerate(ctx.network.reactions):
        rate = reaction.rate
        if isinstance(rate, str):
            if rate not in known:
                yield ctx.diag(
                    "REPRO-W201",
                    f"reaction {reaction} uses unknown rate category "
                    f"{rate!r}; the scheme defines {sorted(known)}",
                    reaction_index=index,
                    fix_hint="use 'fast' or 'slow', or add the "
                             "category to the RateScheme")
            continue
        value = float(rate)
        if value > 0 and midpoint / margin <= value <= midpoint * margin:
            yield ctx.diag(
                "REPRO-W201",
                f"reaction {reaction} has numeric rate {value:g} near "
                f"the fast/slow midpoint {midpoint:g}: it belongs to "
                f"neither category",
                reaction_index=index,
                fix_hint="move the constant clearly into one band, or "
                         "use a symbolic category")


def _complex_cycles(network):
    """Strongly-connected complex groups and their reaction indices."""
    index: dict[frozenset, int] = {}
    edges: list[tuple[int, int, int]] = []
    for reaction_index, reaction in enumerate(network.reactions):
        source = frozenset((s.name, c)
                           for s, c in reaction.reactants.items())
        target = frozenset((s.name, c)
                           for s, c in reaction.products.items())
        for key in (source, target):
            if key not in index:
                index[key] = len(index)
        edges.append((index[source], index[target], reaction_index))
    import networkx as nx  # at first use: simulating needs no graphs

    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(index)))
    graph.add_edges_from((u, v) for u, v, _ in edges)
    names = {i: key for key, i in index.items()}
    for component in nx.strongly_connected_components(graph):
        if len(component) < 2:
            continue
        members = [r for u, v, r in edges
                   if u in component and v in component]
        yield component, members, names


def _format_complex(key: frozenset) -> str:
    terms = sorted(key)
    if not terms:
        return "0"
    return " + ".join(name if coeff == 1 else f"{coeff} {name}"
                      for name, coeff in terms)


@rule("rate-separation",
      codes=("REPRO-W202", "REPRO-W203"),
      description="Complex-graph cycles must not mix fast and slow "
                  "reactions, and the global fast/slow separation "
                  "ratio must stay large.")
def check_rate_separation(ctx: LintContext):
    network = ctx.network
    scheme = ctx.scheme
    for component, members, names in _complex_cycles(network):
        classes = {classify_rate(network.reactions[i].rate, scheme)
                   for i in members}
        if "fast" in classes and "slow" in classes:
            resolved = [scheme.resolve(network.reactions[i].rate)
                        for i in members]
            fasts = [v for i, v in zip(members, resolved)
                     if classify_rate(network.reactions[i].rate,
                                      scheme) == "fast"]
            slows = [v for i, v in zip(members, resolved)
                     if classify_rate(network.reactions[i].rate,
                                      scheme) == "slow"]
            ratio = min(fasts) / max(slows)
            cycle = ", ".join(sorted(_format_complex(names[node])
                                     for node in component))
            yield ctx.diag(
                "REPRO-W202",
                f"complex cycle {{{cycle}}} mixes fast and slow "
                f"reactions (worst-case separation {ratio:g}): a "
                f"mixed-timescale loop has no two-category reading",
                fix_hint="put every reaction of a closed complex "
                         "cycle in the same rate category")
    threshold = float(ctx.config.option("separation_threshold", 100.0))
    fasts: list[tuple[int, float]] = []
    slows: list[tuple[int, float]] = []
    for index, reaction in enumerate(network.reactions):
        rate = reaction.rate
        if isinstance(rate, str) and rate in AUXILIARY_CATEGORIES:
            continue  # indicator-internal timescales
        cls = classify_rate(rate, scheme)
        if cls == "fast":
            fasts.append((index, scheme.resolve(rate)))
        elif cls == "slow":
            slows.append((index, scheme.resolve(rate)))
    if fasts and slows:
        slowest_fast = min(fasts, key=lambda item: item[1])
        fastest_slow = max(slows, key=lambda item: item[1])
        ratio = slowest_fast[1] / fastest_slow[1]
        if ratio < threshold:
            yield ctx.diag(
                "REPRO-W203",
                f"worst-case fast/slow separation is {ratio:g} "
                f"(< {threshold:g}): slowest fast reaction "
                f"{network.reactions[slowest_fast[0]]} vs fastest "
                f"slow reaction {network.reactions[fastest_slow[0]]}",
                fix_hint="widen the gap between the fast and slow "
                         "bands; the protocol's correctness rests on "
                         "the separation")

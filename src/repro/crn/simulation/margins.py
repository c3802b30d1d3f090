"""Clock margins as data: the least of signed, weighted species sums.

A machine's cycle conditions (:mod:`repro.core.machine`) are margins
over state rows.  Each :class:`MarginTable` term sums a few species
with weights (2.0 counts both halves of the ``I_C_red`` dimer) and
compares the sum with a threshold, signed so that the term is
non-negative when its condition holds; the table's margin is the least
term.  Every ODE event is a :class:`MarginEvent`, the crossing of one
table; telemetry and the SSA poll loop's Python twin evaluate tables
here, and the compiled poll loop and BDF (:mod:`repro.crn.native`)
evaluate the same arrays in C.

Each term is evaluated with the operations the machine always used --
numpy's ``take``/``sum`` over a unit-weight group, ``red + 2.0 *
dimer`` one species at a time otherwise -- so ODE event values keep
their bits.  On SSA counts every sum is an exact integer in float64, so
any summation order, the C loop's included, gives the same margins.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np


def _least(first, *rest):
    """Elementwise minimum: ``np.minimum`` over rows, ``min`` over the
    scalars of one state."""
    if not isinstance(first, np.ndarray):
        return min(first, *rest)
    for margin in rest:
        first = np.minimum(first, margin)
    return first


def _term(species: list[int], weights: list[float], threshold: float,
          sign: int):
    """One term as a function of one state or of rows."""
    if len(species) != 1 and all(weight == 1.0 for weight in weights):
        index = np.array(species, dtype=np.intp)
        if sign > 0:
            return lambda x: x.take(index, -1).sum(-1) - threshold
        return lambda x: threshold - x.take(index, -1).sum(-1)
    (first, w0), *rest = zip(species, weights)
    if w0 == 1.0 and not rest:
        # x.T: one state's own entries, or the rows' columns.
        if sign > 0:
            return lambda x: x.T[first] - threshold
        return lambda x: threshold - x.T[first]

    def term(x):
        columns = x.T
        total = columns[first] if w0 == 1.0 else w0 * columns[first]
        for index, weight in rest:
            total = total + weight * columns[index]
        return total - threshold if sign > 0 else threshold - total

    return term


def _least_of(terms: list):
    """The table's margin: its one term, or the least of its terms."""
    if len(terms) == 1:
        return terms[0]
    if len(terms) == 2:
        a, b = terms
        return lambda x: _least(a(x), b(x))
    if len(terms) == 3:
        a, b, c = terms
        return lambda x: _least(a(x), b(x), c(x))
    return lambda x: _least(*[term(x) for term in terms])


class MarginTable:
    """The least of ``sign * (sum_i w_i x[s_i] - threshold)`` terms.

    ``terms`` holds ``(species, weights, threshold, sign)`` per term:
    ``sign`` 1 reads ``total - threshold`` and -1 ``threshold - total``.
    :attr:`evaluate` on one state gives a scalar, on a 2-D array of rows
    one margin per row.  The terms are also kept as flat arrays
    for the compiled loop: ``ptr`` (CSR per term), ``species``,
    ``weights``, ``thresholds`` and ``signs``.
    """

    def __init__(self, terms: Sequence[tuple]):
        if not terms:
            raise ValueError("a margin table needs at least one term")
        self.terms = []
        ptr = [0]
        for species, weights, threshold, sign in terms:
            species = np.asarray(species, dtype=np.intp).tolist()
            weights = np.asarray(weights, dtype=np.float64).tolist()
            if (len(species) != len(weights) or sign not in (1, -1)
                    or min(species, default=0) < 0):
                raise ValueError(f"malformed margin term: {species!r}, "
                                 f"{weights!r}, sign {sign!r}")
            self.terms.append((species, weights, threshold, sign))
            ptr.append(ptr[-1] + len(species))
        self.ptr = np.array(ptr, dtype=np.int64)
        self.species = np.array([i for term in self.terms for i in term[0]],
                                dtype=np.int64)
        #: The fewest species a state needs for every index to exist.
        self.n_species = max([i + 1 for term in self.terms for i in term[0]],
                             default=0)
        self.weights = np.array([w for term in self.terms for w in term[1]],
                                dtype=np.float64)
        self.thresholds = np.array([float(term[2]) for term in self.terms])
        self.signs = np.array([term[3] for term in self.terms],
                              dtype=np.int64)
        #: The margin as a function of one state or of rows.
        self.evaluate = _least_of([_term(*term) for term in self.terms])

    def with_last_threshold(self, threshold: float) -> "MarginTable":
        """This table with its last term's threshold replaced."""
        *kept, (species, weights, _, sign) = self.terms
        return MarginTable([*kept, (species, weights, threshold, sign)])


class MarginEvent:
    """An ODE event: the crossing of ``margin``, a :class:`MarginTable`.

    Called as ``event(t, x)`` it returns the table's margin on the state
    ``x`` as a float; a sign change in ``direction`` stops the solve when
    ``terminal`` (scipy ``solve_ivp`` semantics).  The LSODA walk and
    ``solve_ivp`` call it, and ``native-bdf`` evaluates ``margin`` in C.
    """

    __slots__ = ("margin", "direction", "terminal")

    def __init__(self, margin: MarginTable, direction: float,
                 terminal: bool = True):
        self.margin = margin
        self.direction = direction
        self.terminal = terminal

    def __call__(self, t: float, x: np.ndarray) -> float:
        return float(self.margin.evaluate(x))


def scan(rows: np.ndarray, departure: MarginTable, closing: MarginTable,
         departed: bool = False) -> tuple[bool, int | None]:
    """Scan sampled state rows, in time order, for a cycle's end.

    The cycle departs at the first row with a negative ``departure``
    margin (unless it already ``departed``); the first *later* row with
    a non-negative ``closing`` margin ends it.  Returns whether the
    cycle has departed and the closing row's index, or ``None`` when no
    row closes it.
    """
    start = 0
    if not departed:
        left = departure.evaluate(rows) < 0.0
        start = int(left.argmax()) + 1
        if not left[start - 1]:
            return False, None
    if start == rows.shape[0]:
        return True, None
    hits = closing.evaluate(rows[start:]) >= 0.0
    first = int(hits.argmax())
    return True, (start + first if hits[first] else None)

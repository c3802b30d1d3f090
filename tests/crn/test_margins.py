"""Clock margins as data: :class:`MarginTable` and :func:`scan`.

A table's margin is the least of its signed, weighted species sums, on
one state (a scalar, for ODE events) or on rows (one margin per row, for
the SSA poll scan and telemetry).  Both forms must agree bitwise, and
:func:`scan` must keep the machine's cycle semantics: the departure row
never closes a cycle, and a departure carries across calls.
"""

import numpy as np
import pytest

from repro.crn.simulation.margins import MarginTable, scan

#: Species 0 is a clock red, 1 its dimer (weight 2), 2-4 a colour group.
CLOCK = ([0, 1], [1.0, 2.0])


def _table(*thresholds):
    terms = [(*CLOCK, thresholds[0], 1)]
    if len(thresholds) > 1:
        terms.append(([2, 3, 4], np.ones(3), thresholds[1], -1))
    if len(thresholds) > 2:
        terms.append(([3], [1.0], thresholds[2], -1))
    return MarginTable(terms)


def test_terms_are_signed_weighted_sums():
    x = np.array([3.0, 4.0, 1.0, 2.0, 5.0])
    assert _table(10.0).evaluate(x) == 3.0 + 2.0 * 4.0 - 10.0
    # min(clock - 10, 6 - blues, 4 - x[3])
    assert _table(10.0, 6.0, 4.0).evaluate(x) == min(1.0, -2.0, 2.0)


def test_one_state_and_rows_agree_bitwise():
    rng = np.random.default_rng(0)
    rows = rng.uniform(0.0, 20.0, (16, 5))
    for table in (_table(7.3), _table(7.3, 1.1), _table(7.3, 1.1, 0.4)):
        on_rows = table.evaluate(rows)
        assert on_rows.shape == (16,)
        singles = np.array([table.evaluate(row) for row in rows])
        assert on_rows.tobytes() == singles.tobytes()


def test_packed_arrays_describe_the_terms():
    table = _table(10.0, 6.0, 4.0)
    assert table.ptr.tolist() == [0, 2, 5, 6]
    assert table.species.tolist() == [0, 1, 2, 3, 4, 3]
    assert table.weights.tolist() == [1.0, 2.0, 1.0, 1.0, 1.0, 1.0]
    assert table.thresholds.tolist() == [10.0, 6.0, 4.0]
    assert table.signs.tolist() == [1, -1, -1]
    assert table.n_species == 5
    assert table.ptr.dtype == table.species.dtype == table.signs.dtype \
        == np.int64


def test_with_last_threshold_replaces_only_the_last():
    table = _table(10.0, 6.0, 4.0)
    moved = table.with_last_threshold(9.0)
    x = np.array([3.0, 4.0, 1.0, 2.0, 5.0])
    assert moved.thresholds.tolist() == [10.0, 6.0, 9.0]
    assert table.thresholds.tolist() == [10.0, 6.0, 4.0]
    assert moved.evaluate(x) == min(1.0, -2.0, 7.0)
    assert table.evaluate(x) == -2.0


@pytest.mark.parametrize("terms", [
    [],
    [([0, 1], [1.0], 1.0, 1)],
    [([0], [1.0], 1.0, 0)],
    [([0, -1], [1.0, 1.0], 1.0, 1)],
])
def test_malformed_tables_are_refused(terms):
    with pytest.raises(ValueError):
        MarginTable(terms)


# -- scan -----------------------------------------------------------------------

#: Departs once species 0 drops below 5; closes once it is back to 8.
DEPARTURE = MarginTable([([0], [1.0], 5.0, 1)])
CLOSING = MarginTable([([0], [1.0], 8.0, 1)])


def _rows(*values):
    return np.array([[v] for v in values], dtype=float)


@pytest.mark.parametrize("values,departed,expected", [
    ((9, 7, 6), False, (False, None)),        # never departs
    ((9, 4, 9, 9), False, (True, 2)),         # first later row closes
    ((9, 3), False, (True, None)),            # departs on the last row
    ((9, 9), True, (True, 0)),                # departed before: row 0
    ((4, 6, 7), True, (True, None)),          # departed, never closes
])
def test_scan(values, departed, expected):
    assert scan(_rows(*values), DEPARTURE, CLOSING, departed) == expected


def test_the_departure_row_never_closes():
    """A closing table that holds everywhere still waits for the row
    after departure."""
    always = MarginTable([([0], [1.0], -1.0, 1)])
    assert scan(_rows(9, 4, 4), DEPARTURE, always) == (True, 2)

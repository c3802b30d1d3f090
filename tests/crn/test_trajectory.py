"""Unit tests for the trajectory container."""

import numpy as np
import pytest

from repro.crn.simulation.result import Trajectory
from repro.errors import SimulationError


def _trajectory():
    times = np.linspace(0.0, 4.0, 5)
    states = np.column_stack([times ** 2, 10 - times])
    return Trajectory(times, states, ["A", "B"])


class TestAccess:
    def test_column_and_getitem(self):
        trajectory = _trajectory()
        assert np.allclose(trajectory.column("A"), trajectory["A"])
        assert trajectory["B"][0] == 10.0

    def test_unknown_species(self):
        with pytest.raises(SimulationError):
            _trajectory().column("Z")

    def test_final(self):
        trajectory = _trajectory()
        assert trajectory.final("A") == 16.0
        assert np.allclose(trajectory.final(), [16.0, 6.0])

    def test_final_state_dict(self):
        assert _trajectory().final_state() == {"A": 16.0, "B": 6.0}

    def test_interpolated_at(self):
        assert _trajectory().at(0.5, "B") == pytest.approx(9.5)

    def test_total(self):
        trajectory = _trajectory()
        assert np.allclose(trajectory.total(["A", "B"]),
                           trajectory["A"] + trajectory["B"])

    def test_len_and_contains(self):
        trajectory = _trajectory()
        assert len(trajectory) == 5
        assert "A" in trajectory and "Z" not in trajectory

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SimulationError):
            Trajectory(np.zeros(3), np.zeros((2, 2)), ["A", "B"])


class TestComposition:
    def test_concat_drops_duplicate_boundary(self):
        a = _trajectory()
        b = Trajectory(np.array([4.0, 5.0]), np.array([[16.0, 6.0],
                                                       [25.0, 5.0]]),
                       ["A", "B"])
        joined = a.concat(b)
        assert len(joined) == 6
        assert joined.t_final == 5.0
        assert np.all(np.diff(joined.times) > 0)

    def test_concat_drops_ulp_duplicate_at_large_t(self):
        """At t >> 1 the continuation's first sample can differ from the
        boundary by a few ulps; the duplicate test must be relative to
        the boundary time, or the stitched time axis stops being
        strictly increasing."""
        boundary = 32.0
        a = Trajectory(np.array([31.0, boundary]),
                       np.array([[1.0], [2.0]]), ["A"])
        # One ulp above the boundary (3.55e-15 at this magnitude): a
        # fixed absolute epsilon misses it and keeps the degenerate
        # near-duplicate sample.
        wobble = np.nextafter(boundary, 100.0)
        b = Trajectory(np.array([wobble, 33.0]),
                       np.array([[2.0], [3.0]]), ["A"])
        joined = a.concat(b)
        assert len(joined) == 3
        assert np.all(np.diff(joined.times) > 0)

    def test_concat_requires_same_species(self):
        a = _trajectory()
        b = Trajectory(np.array([5.0]), np.array([[1.0]]), ["A"])
        with pytest.raises(SimulationError):
            a.concat(b)

    def test_window(self):
        window = _trajectory().window(1.0, 3.0)
        assert window.times[0] == 1.0 and window.times[-1] == 3.0

    def test_resampled(self):
        dense = _trajectory().resampled(np.linspace(0, 4, 17))
        assert len(dense) == 17
        assert dense.at(2.0, "B") == pytest.approx(8.0)


class TestHorizon:
    """Reads outside the simulated span must fail loudly (PR 5 fix).

    ``np.interp`` silently clamps to the endpoint values, which used to
    turn readout schedules that outran the horizon into plausible-but-
    wrong numbers."""

    def test_at_past_horizon_raises(self):
        with pytest.raises(SimulationError, match="horizon"):
            _trajectory().at(4.5, "A")

    def test_at_before_horizon_raises(self):
        with pytest.raises(SimulationError, match="horizon"):
            _trajectory().at(-0.5, "A")

    def test_at_clamp_optin_extends_endpoint(self):
        assert _trajectory().at(99.0, "A", clamp=True) == 16.0
        assert _trajectory().at(-1.0, "B", clamp=True) == 10.0

    def test_at_tolerates_boundary_float_fuzz(self):
        t = np.nextafter(4.0, 5.0)  # one ulp past t_final
        assert _trajectory().at(t, "A") == pytest.approx(16.0)

    def test_resampled_past_horizon_raises(self):
        with pytest.raises(SimulationError, match="horizon"):
            _trajectory().resampled(np.linspace(0.0, 5.0, 11))

    def test_resampled_clamp_optin(self):
        dense = _trajectory().resampled(np.array([3.0, 5.0]), clamp=True)
        assert dense.final("A") == 16.0

    def test_empty_trajectory_readouts_raise(self):
        empty = Trajectory(np.empty(0), np.empty((0, 1)), ["A"])
        with pytest.raises(SimulationError):
            empty.final()
        with pytest.raises(SimulationError):
            empty.final_state()
        with pytest.raises(SimulationError):
            _ = empty.t_final
        with pytest.raises(SimulationError):
            empty.at(0.0, "A")


class TestWindowBoundaries:
    """window() interpolates its boundaries and is never empty (PR 5 fix).

    A window falling strictly between two samples used to return an
    empty trajectory whose ``t_final`` crashed with a raw IndexError."""

    def test_window_between_samples_is_nonempty(self):
        window = _trajectory().window(1.25, 1.75)
        assert len(window) == 2
        assert window.times[0] == 1.25 and window.t_final == 1.75
        # Boundary values are linear interpolants of the bracketing rows.
        assert window.final("B") == pytest.approx(10.0 - 1.75)

    def test_window_interpolates_partial_overlap(self):
        window = _trajectory().window(2.5, 99.0)
        assert window.times[0] == 2.5
        assert window.t_final == 4.0

    def test_window_degenerate_point(self):
        point = _trajectory().window(1.5, 1.5)
        assert len(point) == 1
        assert point.final("B") == pytest.approx(8.5)

    def test_window_reversed_bounds_raise(self):
        with pytest.raises(SimulationError, match="reversed"):
            _trajectory().window(3.0, 1.0)

    def test_window_disjoint_raises(self):
        with pytest.raises(SimulationError, match="overlap"):
            _trajectory().window(5.0, 6.0)

    def test_window_of_empty_raises(self):
        empty = Trajectory(np.empty(0), np.empty((0, 1)), ["A"])
        with pytest.raises(SimulationError):
            empty.window(0.0, 1.0)

    def test_window_exact_samples_bitwise(self):
        window = _trajectory().window(1.0, 3.0)
        original = _trajectory()
        assert np.array_equal(window.times, original.times[1:4])
        assert np.array_equal(window.states, original.states[1:4])

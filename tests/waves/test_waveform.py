"""Tests for the change-list waveform data model."""

import json

import numpy as np
import pytest

from repro.crn.parser import parse_network
from repro.crn.simulation import simulate
from repro.waves import (WaveError, Waveform, waveform_from_trajectory,
                         write_waveform_jsonl)


class TestSignalTrack:
    def test_repeats_are_not_stored(self):
        wave = Waveform()
        wave.declare("b", "bit")
        assert wave.record("b", 0.0, 0) is True
        assert wave.record("b", 1.0, 0) is False
        assert wave.record("b", 2.0, 1) is True
        assert wave["b"].times == [0.0, 2.0]
        assert wave["b"].values == [0, 1]

    def test_same_time_last_write_wins(self):
        wave = Waveform()
        wave.record("n", 0.0, 3, kind="int")
        wave.record("n", 0.0, 5)
        assert wave["n"].values == [5]
        assert wave["n"].n_changes == 1

    def test_time_must_not_go_backwards(self):
        wave = Waveform()
        wave.record("b", 1.0, 1, kind="bit")
        with pytest.raises(WaveError, match="backwards"):
            wave.record("b", 0.5, 0)

    def test_bit_values_checked(self):
        wave = Waveform()
        wave.declare("b", "bit")
        wave.record("b", 0.0, True)  # bool coerces to int
        assert wave["b"].values == [1]
        with pytest.raises(WaveError, match="bit value"):
            wave.record("b", 1.0, 7)

    def test_x_is_a_valid_bit(self):
        wave = Waveform()
        wave.record("b", 0.0, "x", kind="bit")
        assert wave["b"].values == ["x"]

    def test_value_at(self):
        wave = Waveform()
        wave.record("n", 0.0, 1, kind="int")
        wave.record("n", 2.0, 2)
        track = wave["n"]
        assert track.value_at(-1.0) is None
        assert track.value_at(0.5) == 1
        assert track.value_at(2.0) == 2

    def test_unknown_kind(self):
        with pytest.raises(WaveError, match="unknown signal kind"):
            Waveform().declare("b", "analogue")


class TestExtend:
    """``SignalTrack.extend`` records a block of real samples exactly as
    ``record`` does one by one."""

    @staticmethod
    def _block(rng, t0):
        n = int(rng.integers(0, 30))
        # Repeated times, repeated values, zeros of both signs and NaN.
        times = t0 + np.cumsum(rng.integers(0, 3, n) * 0.5)
        values = rng.choice([0.0, -0.0, 1.0, 2.5, np.nan], n)
        return times, values

    def test_equals_sample_by_sample_records(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            bulk, single = Waveform(), Waveform()
            t0 = 0.0
            for _ in range(int(rng.integers(1, 5))):
                times, values = self._block(rng, t0)
                changed = bulk.declare("r", "real").extend(times, values)
                expected = [i for i, (t, v) in enumerate(zip(times, values))
                            if single.record("r", t, v, kind="real")]
                assert changed.tolist() == expected
                t0 = float(times[-1]) if times.size else t0
            if "r" in single:
                assert np.array_equal(bulk["r"].times, single["r"].times)
                assert np.array(bulk["r"].values).tobytes() == \
                    np.array(single["r"].values).tobytes()

    def test_time_must_not_go_backwards(self):
        track = Waveform().declare("r", "real")
        track.extend([1.0, 2.0], [0.0, 1.0])
        with pytest.raises(WaveError, match="backwards"):
            track.extend([1.5], [2.0])
        with pytest.raises(WaveError, match="backwards"):
            track.extend([3.0, 2.5], [2.0, 3.0])

    def test_only_real_tracks(self):
        with pytest.raises(WaveError, match="only real"):
            Waveform().declare("b", "bit").extend([0.0], [1])


class TestWaveform:
    def test_redeclare_same_shape_is_noop(self):
        wave = Waveform()
        first = wave.declare("n", "int", width=4)
        assert wave.declare("n", "int", width=4) is first

    def test_redeclare_different_shape_fails(self):
        wave = Waveform()
        wave.declare("n", "int", width=4)
        with pytest.raises(WaveError, match="re-declared"):
            wave.declare("n", "int", width=8)

    def test_record_without_declaration_needs_kind(self):
        with pytest.raises(WaveError, match="never declared"):
            Waveform().record("b", 0.0, 1)

    def test_changes_are_time_ordered_with_declaration_tiebreak(self):
        wave = Waveform()
        wave.record("late", 0.0, 1, kind="bit")
        wave.record("early", 0.0, 0, kind="bit")
        wave.record("late", 1.0, 0)
        order = [(c.signal, c.t) for c in wave.changes()]
        # Same-tick changes keep declaration order ("late" first).
        assert order == [("late", 0.0), ("early", 0.0), ("late", 1.0)]

    def test_counts_and_final_time(self):
        wave = Waveform()
        wave.record("a", 0.0, 1, kind="bit")
        wave.record("b", 3.5, "red", kind="state")
        assert wave.n_signals == 2
        assert wave.n_changes == 2
        assert wave.t_final == 3.5

    def test_missing_signal_lookup(self):
        with pytest.raises(WaveError, match="no signal"):
            Waveform()["ghost"]


class TestFromTrajectory:
    @pytest.fixture(scope="class")
    def trajectory(self):
        network = parse_network("X -> Y @ fast\ninit X = 10\n")
        return simulate(network, 2.0, n_samples=100)

    def test_species_become_real_lanes(self, trajectory):
        wave = waveform_from_trajectory(trajectory)
        assert set(wave.signals) == set(trajectory.names)
        assert all(track.kind == "real"
                   for track in wave.signals.values())

    def test_subsampling_keeps_last_row(self, trajectory):
        wave = waveform_from_trajectory(trajectory, max_samples=8)
        track = wave["X"]
        # The last row is always sampled; the change-list then drops it
        # when the signal has plateaued, but the held value must match.
        t_final = float(trajectory.times[-1])
        assert track.value_at(t_final) == pytest.approx(
            float(trajectory.column("X")[-1]))
        # 8 sample rows plus the final one, compressed further.
        assert track.n_changes <= 9

    def test_unknown_species_rejected(self, trajectory):
        with pytest.raises(WaveError, match="not in trajectory"):
            waveform_from_trajectory(trajectory, names=["GHOST"])


class TestJsonlExport:
    def test_wave_records_round_trip(self, tmp_path):
        from repro.obs.report import load_records

        wave = Waveform()
        wave.record("b", 0.0, 1, kind="bit")
        wave.record("s", 0.5, "red", kind="state")
        path = tmp_path / "wave.jsonl"
        write_waveform_jsonl(wave, path)
        records = load_records(path)
        assert [r["type"] for r in records] == ["wave", "wave"]
        assert records[0] == {"type": "wave", "signal": "b",
                              "kind": "bit", "t": 0.0, "value": 1}
        lines = path.read_text().strip().splitlines()
        assert all(json.loads(line) for line in lines)

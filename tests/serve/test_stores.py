"""Result stores: LRU behaviour, disk round-trips, corruption policy.

The disk store's contract under damage is the load-bearing part: a
corrupted entry must be **evicted with a warning and reported as a
miss** -- never deserialised into a wrong answer.
"""

from __future__ import annotations

import json
import warnings

import numpy as np
import pytest

from repro.serve import (DiskResultStore, MemoryResultStore,
                         canonical_result_bytes)
from repro.serve.cache import STORE_SCHEMA


def _result(scale: float = 1.0) -> dict:
    return {"kind": "simulate", "names": ["X", "Y"],
            "times": np.linspace(0.0, 1.0, 5),
            "states": scale * np.arange(10.0).reshape(5, 2)}


class TestCanonicalBytes:
    def test_arrays_and_scalars_encode(self):
        payload = dict(_result(), events=np.int64(3),
                       mean=np.float64(0.5))
        encoded = canonical_result_bytes(payload)
        assert json.loads(encoded)["events"] == 3

    def test_equal_data_equal_bytes(self):
        assert canonical_result_bytes(_result()) == \
            canonical_result_bytes(_result())
        assert canonical_result_bytes(_result()) != \
            canonical_result_bytes(_result(scale=2.0))

    def test_non_pure_data_rejected(self):
        with pytest.raises(TypeError, match="not pure data"):
            canonical_result_bytes({"handle": object()})


class TestMemoryStore:
    def test_miss_then_hit(self):
        store = MemoryResultStore()
        assert store.get("k") is None
        store.put("k", _result())
        assert canonical_result_bytes(store.get("k")) == \
            canonical_result_bytes(_result())

    def test_lru_eviction_order(self):
        store = MemoryResultStore(max_entries=2)
        store.put("a", _result())
        store.put("b", _result())
        assert store.get("a") is not None  # refresh a; b is now LRU
        store.put("c", _result())
        assert store.get("b") is None
        assert store.get("a") is not None
        assert len(store) == 2

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            MemoryResultStore(max_entries=0)


class TestDiskStore:
    def test_round_trip_is_byte_identical(self, tmp_path):
        store = DiskResultStore(tmp_path)
        store.put("key1", _result())
        reloaded = DiskResultStore(tmp_path).get("key1")
        assert canonical_result_bytes(reloaded) == \
            canonical_result_bytes(_result())
        assert reloaded["states"].dtype == np.float64

    def test_plain_results_skip_the_npz(self, tmp_path):
        store = DiskResultStore(tmp_path)
        store.put("key1", {"kind": "conformance", "report": {"ok": 1}})
        assert not (tmp_path / "key1.npz").exists()
        assert store.get("key1") == {"kind": "conformance",
                                     "report": {"ok": 1}}

    def test_corrupted_json_is_evicted_with_a_warning(self, tmp_path):
        store = DiskResultStore(tmp_path)
        store.put("key1", _result())
        (tmp_path / "key1.json").write_text("{not json", "utf-8")
        with pytest.warns(RuntimeWarning, match="evicting corrupted"):
            assert store.get("key1") is None
        assert not (tmp_path / "key1.json").exists()
        assert not (tmp_path / "key1.npz").exists()
        assert len(store) == 0

    def test_missing_npz_sidecar_is_evicted(self, tmp_path):
        store = DiskResultStore(tmp_path)
        store.put("key1", _result())
        (tmp_path / "key1.npz").unlink()
        with pytest.warns(RuntimeWarning, match="evicting corrupted"):
            assert store.get("key1") is None
        assert not (tmp_path / "key1.json").exists()

    def test_schema_mismatch_is_evicted(self, tmp_path):
        store = DiskResultStore(tmp_path)
        store.put("key1", {"kind": "x", "value": 1})
        document = json.loads((tmp_path / "key1.json").read_text())
        assert document["schema"] == STORE_SCHEMA
        document["schema"] = "repro.store/0"
        (tmp_path / "key1.json").write_text(json.dumps(document))
        with pytest.warns(RuntimeWarning, match="unexpected schema"):
            assert store.get("key1") is None

    def test_absent_key_is_a_plain_miss(self, tmp_path):
        store = DiskResultStore(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no eviction warning
            assert store.get("nope") is None
        assert len(store) == 0

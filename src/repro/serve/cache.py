"""Content-addressed result stores.

A result store maps a :meth:`~repro.serve.jobs.JobSpec.cache_key` to
the job's result dict.  Stored results are *pure data* -- plain JSON
values plus float64 numpy arrays at the top level -- and never contain
wall-clock timings, so a cached response is byte-identical to the
response a fresh computation would have produced (the property the
serve smoke test and E18 benchmark assert).

Two implementations share the tiny ``get``/``put`` protocol:

:class:`MemoryResultStore`
    an LRU dict, the default for an in-process service;
:class:`DiskResultStore`
    one ``<key>.json`` (+ ``<key>.npz`` when the result carries
    arrays) per entry.  Corrupted entries are **evicted with a
    warning, never served**: any decode failure deletes the files and
    reports a miss, so a damaged cache degrades to recomputation
    instead of wrong answers.
"""

from __future__ import annotations

import json
import warnings
from collections import OrderedDict
from pathlib import Path

import numpy as np

#: Version tag of the on-disk entry layout.
STORE_SCHEMA = "repro.store/1"


def canonical_result_bytes(result: dict) -> bytes:
    """The canonical wire encoding of a result (byte-identity tests).

    Arrays are rendered via ``tolist()``; Python float ``repr`` is
    shortest-round-trip, so equal bytes here really is bitwise-equal
    data.
    """
    def default(value):
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, (np.floating, np.integer)):
            return value.item()
        raise TypeError(
            f"result is not pure data: {type(value).__name__}")
    return json.dumps(result, sort_keys=True, separators=(",", ":"),
                      default=default).encode("utf-8")


class MemoryResultStore:
    """In-memory LRU store (the default)."""

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, dict] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> dict | None:
        try:
            self._entries.move_to_end(key)
        except KeyError:
            return None
        return self._entries[key]

    def put(self, key: str, result: dict) -> None:
        self._entries[key] = result
        self._entries.move_to_end(key)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)


class DiskResultStore:
    """On-disk store: ``<key>.json`` + optional ``<key>.npz``.

    Top-level numpy arrays are split into the ``.npz`` sidecar (exact
    float64 round-trip); everything else lives in the JSON document.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _paths(self, key: str) -> tuple[Path, Path]:
        return self.root / f"{key}.json", self.root / f"{key}.npz"

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*.json"))

    def _evict(self, key: str, reason: str) -> None:
        warnings.warn(
            f"evicting corrupted cache entry {key[:12]}…: {reason}",
            RuntimeWarning, stacklevel=3)
        for path in self._paths(key):
            try:
                path.unlink()
            except OSError:
                pass

    def get(self, key: str) -> dict | None:
        json_path, npz_path = self._paths(key)
        if not json_path.is_file():
            return None
        try:
            with open(json_path, encoding="utf-8") as handle:
                document = json.load(handle)
            if document.get("schema") != STORE_SCHEMA:
                raise ValueError(
                    f"unexpected schema {document.get('schema')!r}")
            result = document["result"]
            array_keys = document.get("arrays", [])
            if array_keys:
                with np.load(npz_path) as arrays:
                    for name in array_keys:
                        result[name] = arrays[name]
        except Exception as exc:  # noqa: BLE001 - any decode failure
            self._evict(key, f"{type(exc).__name__}: {exc}")
            return None
        return result

    def put(self, key: str, result: dict) -> None:
        json_path, npz_path = self._paths(key)
        arrays = {name: value for name, value in result.items()
                  if isinstance(value, np.ndarray)}
        plain = {name: value for name, value in result.items()
                 if name not in arrays}
        document = {"schema": STORE_SCHEMA, "key": key,
                    "arrays": sorted(arrays), "result": plain}
        if arrays:
            with open(npz_path, "wb") as handle:
                np.savez(handle, **arrays)
        # Write-then-rename so a crashed put never leaves a torn JSON
        # document behind (the npz sidecar is validated on read).
        tmp_path = json_path.with_suffix(".json.tmp")
        with open(tmp_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle, sort_keys=True)
        tmp_path.replace(json_path)

"""SimulationOptions: canonical serialisation and replace() hygiene."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import SimulationOptions
from repro.crn.simulation.options import OPTIONS_SCHEMA
from repro.errors import SimulationError


class TestReplace:
    def test_valid_field_replaced(self):
        opts = SimulationOptions().replace(rtol=1e-9)
        assert opts.rtol == 1e-9

    def test_unknown_field_names_nearest(self):
        with pytest.raises(TypeError,
                           match="did you mean 'n_samples'"):
            SimulationOptions().replace(n_sample=10)

    def test_unknown_field_without_a_near_miss(self):
        with pytest.raises(TypeError, match="valid options are"):
            SimulationOptions().replace(zzzzz=1)


class TestBackend:
    def test_unknown_backend_rejected_at_construction(self):
        for make in (lambda: SimulationOptions(backend="gpu"),
                     lambda: SimulationOptions().replace(backend="gpu")):
            with pytest.raises(SimulationError,
                               match="'gpu'.*'reference', 'batch'"):
                make()


class TestCanonicalDict:
    def test_defaults_collapse_to_schema_tag(self):
        assert SimulationOptions().canonical_dict() == {
            "schema": OPTIONS_SCHEMA}

    def test_non_default_fields_appear(self):
        # ``backend`` selects nothing, but stays in the key.
        payload = SimulationOptions(
            solver="BDF", n_samples=50, backend="batch").canonical_dict()
        assert payload == {"schema": OPTIONS_SCHEMA, "solver": "BDF",
                           "n_samples": 50, "backend": "batch"}

    def test_mapping_initial_serialises_sorted(self):
        payload = SimulationOptions(
            initial={"b": 2, "a": 1.5}).canonical_dict()
        assert list(payload["initial"]) == ["a", "b"]
        assert payload["initial"]["b"] == 2.0
        json.dumps(payload)

    def test_array_initial_rejected(self):
        opts = SimulationOptions(initial=np.array([1.0, 2.0]))
        with pytest.raises(SimulationError, match="declaration order"):
            opts.canonical_dict()

    @pytest.mark.parametrize("field,value", [
        ("seed", 3),
        ("rates", (1.0, 2.0)),
        ("events", (lambda t, y: y[0],)),
        ("tracer", object()),
        ("metrics", object()),
    ])
    def test_uncacheable_fields_rejected(self, field, value):
        opts = SimulationOptions(**{field: value})
        with pytest.raises(SimulationError, match=field):
            opts.canonical_dict()

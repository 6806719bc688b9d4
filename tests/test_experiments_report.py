"""Report-layer regression tests: JSON-safe coercion of experiment
results whose rows/metadata hold numpy scalars, arrays and non-finite
floats."""

import json
import math

import numpy as np
import pytest

from repro.campaign.planner import json_safe
from repro.experiments.report import ExperimentResult


class TestJsonSafe:
    def test_numpy_scalars_become_python(self):
        assert json_safe(np.float64(0.25)) == 0.25
        assert isinstance(json_safe(np.float64(0.25)), float)
        assert json_safe(np.int64(7)) == 7
        assert isinstance(json_safe(np.int64(7)), int)
        assert json_safe(np.bool_(True)) is True

    def test_non_finite_floats_deterministic(self):
        assert json_safe(float("nan")) == "NaN"
        assert json_safe(np.float64("nan")) == "NaN"
        assert json_safe(float("inf")) == "Infinity"
        assert json_safe(float("-inf")) == "-Infinity"

    def test_arrays_become_lists(self):
        value = json_safe(np.array([[1.0, 2.0], [3.0, np.nan]]))
        assert value == [[1.0, 2.0], [3.0, "NaN"]]

    def test_mapping_keys_stringified(self):
        value = json_safe({np.int64(3): np.float64(0.5), 4: "x"})
        assert value == {"3": 0.5, "4": "x"}

    def test_nested_containers(self):
        value = json_safe(
            {"a": (np.int64(1), [np.float64(2.0)]), "b": {np.int64(9)}}
        )
        assert value == {"a": [1, [2.0]], "b": [9]}

    def test_output_is_strict_json(self):
        payload = {
            "pk": {np.int64(k): np.float64(p) for k, p in [(9, 0.1), (10, 0.9)]},
            "deltas": np.array([1e-12, np.inf]),
            "bad": float("nan"),
        }
        text = json.dumps(json_safe(payload), allow_nan=False, sort_keys=True)
        assert json.loads(text)["bad"] == "NaN"

    def test_finite_floats_untouched(self):
        assert json_safe(0.1) == 0.1
        assert math.isclose(json_safe(np.float64(1 / 3)), 1 / 3)


class TestExperimentResultMetadataSerialization:
    def _result(self):
        # The regression: sweep engines put numpy scalars into rows and
        # cache/solver statistics into metadata; json.dumps used to
        # choke on them (TypeError) or emit non-standard NaN literals.
        return ExperimentResult(
            experiment_id="unit",
            title="t",
            headers=["x", "y"],
            rows=[{"x": np.int64(1), "y": np.float64(0.5)},
                  {"x": np.int64(2), "y": float("nan")}],
            timings={"total": np.float64(1.5)},
            metadata={
                "cache_stats": {
                    "capacity": {"hits": np.int64(3), "hit_rate": 0.75}
                },
                "deltas": np.array([0.0, np.inf]),
            },
        )

    def test_metadata_serializes_strictly(self):
        result = self._result()
        payload = json_safe(
            {
                "rows": result.rows,
                "timings": result.timings,
                "metadata": result.metadata,
            }
        )
        text = json.dumps(payload, allow_nan=False, sort_keys=True)
        again = json.loads(text)
        assert again["rows"][0] == {"x": 1, "y": 0.5}
        assert again["rows"][1]["y"] == "NaN"
        assert again["metadata"]["cache_stats"]["capacity"]["hits"] == 3
        assert again["metadata"]["deltas"] == [0.0, "Infinity"]

    def test_raw_metadata_would_fail_without_coercion(self):
        result = self._result()
        with pytest.raises((TypeError, ValueError)):
            json.dumps(result.metadata, allow_nan=False)

"""Strategy partition construction, binning, and serialization."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammachain.partition import (
    DEFAULT_BOUNDARIES,
    StrategyPartition,
    default_partition,
)
from helpers import make_partition


class TestDefaultPartition:
    def test_boundaries_and_labels(self):
        part = default_partition()
        assert part.bounds == DEFAULT_BOUNDARIES
        assert part.labels == ("HM", "SM", "LSM", "EFSM")
        assert len(part) == 4

    def test_lengths(self):
        lengths = default_partition().lengths()
        assert lengths == pytest.approx((0.675, 0.085, 0.001, 0.239))

    def test_midpoints(self):
        mids = default_partition().midpoints()
        assert mids == pytest.approx((0.3375, 0.7175, 0.7605, 0.8805))


class TestIndexOf:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0.0, 0),
            (0.5, 0),
            (0.675, 1),
            (0.7, 1),
            (0.76, 2),
            (0.7605, 2),
            (0.761, 3),
            (0.9, 3),
            (1.0, 3),
        ],
    )
    def test_examples(self, value, expected):
        assert default_partition().index_of(value) == expected

    @pytest.mark.parametrize("value", [-0.1, -1e-12, 1.0000001, 2.0, float("nan")])
    def test_rejects_out_of_range(self, value):
        with pytest.raises(ValueError, match=r"gamma values must lie in \[0, 1\]"):
            default_partition().index_of(value)

    @given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
    def test_every_value_binned_to_exactly_one_interval(self, value):
        part = default_partition()
        idx = part.index_of(value)
        lower, upper = part.bounds[idx], part.bounds[idx + 1]
        if idx == len(part) - 1:
            assert lower <= value <= upper
        else:
            assert lower <= value < upper


class TestValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            make_partition([0.1, 0.5, 1.0])

    def test_must_end_at_one(self):
        with pytest.raises(ValueError):
            make_partition([0.0, 0.5, 0.9])

    def test_rejects_gap(self):
        obj = [{"lower": 0.0, "upper": 0.4, "label": "A"}, {"lower": 0.5, "upper": 1.0, "label": "B"}]
        with pytest.raises(ValueError, match="^intervals 'A' and 'B' must be contiguous$"):
            StrategyPartition.from_json_obj(obj)

    def test_rejects_zero_length_interval(self):
        with pytest.raises(ValueError):
            make_partition([0.0, 0.5, 0.5, 1.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            StrategyPartition((0.0, 0.5, 1.0), ("A", "A"))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StrategyPartition((), ())

    def test_rejects_decreasing_interval(self):
        with pytest.raises(ValueError, match="interval 'B' must have positive length"):
            StrategyPartition((0.0, 0.6, 0.4, 1.0), ("A", "B", "C"))

    @pytest.mark.parametrize("labels", [("A",), ("A", "B", "C")])
    def test_rejects_label_count_mismatch(self, labels):
        with pytest.raises(ValueError, match="one label per interval"):
            StrategyPartition((0.0, 0.5, 1.0), labels)

    @pytest.mark.parametrize("bounds", [(False, True), (0.0, "0.5", 1.0), (0.0, None, 1.0), (0.0, np.bool_(1))])
    def test_rejects_non_number_bounds(self, bounds):
        labels = tuple(f"S{i}" for i in range(len(bounds) - 1))
        with pytest.raises(ValueError, match="partition bounds must be numbers"):
            StrategyPartition(bounds, labels)

    def test_quoted_bound_in_json_is_not_reported_as_a_gap(self):
        obj = [{"lower": 0, "upper": "0.5", "label": "A"}, {"lower": 0.5, "upper": 1, "label": "B"}]
        with pytest.raises(ValueError, match="partition bounds must be numbers"):
            StrategyPartition.from_json_obj(obj)

    @pytest.mark.parametrize("label", [5, ["x"], None, b"A"])
    def test_rejects_non_string_labels(self, label):
        with pytest.raises(ValueError, match="interval labels must be strings"):
            StrategyPartition((0.0, 1.0), (label,))

    def test_integer_bounds_are_stored_as_floats(self):
        part = StrategyPartition((0, np.float64(0.5), 1), ("A", "B"))
        assert part.bounds == (0.0, 0.5, 1.0)
        assert all(type(b) is float for b in part.bounds)


class TestSerialization:
    def test_json_round_trip(self):
        part = default_partition()
        again = StrategyPartition.from_json_obj(json.loads(json.dumps(part.to_json_obj())))
        assert again == part

    def test_bounds_equal_the_interval_list(self):
        obj = [{"lower": 0, "upper": 0.3, "label": "A"}, {"lower": 0.3, "upper": 1, "label": "B"}]
        assert StrategyPartition.from_json_obj(obj) == StrategyPartition((0.0, 0.3, 1.0), ("A", "B"))
        assert StrategyPartition((0.0, 0.3, 1.0), ("A", "B")).to_json_obj() == obj

    def test_json_obj_shape(self):
        obj = default_partition().to_json_obj()
        assert obj[0] == {"lower": 0.0, "upper": 0.675, "label": "HM"}
        assert json.loads(json.dumps(obj)) == obj


@given(
    st.lists(
        st.integers(min_value=1, max_value=999), min_size=1, max_size=5, unique=True
    )
)
def test_random_grid_partitions_are_valid_and_total(cuts):
    boundaries = [0.0] + sorted(c / 1000 for c in cuts) + [1.0]
    part = make_partition(boundaries)
    assert part.lengths() == pytest.approx(
        tuple(
            boundaries[i + 1] - boundaries[i] for i in range(len(boundaries) - 1)
        )
    )
    for probe in [0.0, 0.25, 0.5, 0.75, 1.0] + [c / 1000 for c in cuts]:
        idx = part.index_of(probe)
        lower, upper = part.bounds[idx], part.bounds[idx + 1]
        assert lower <= probe <= upper
        if probe < 1.0 and probe == upper:
            # boundary values belong to the interval on their right
            raise AssertionError("interior boundary assigned to its left interval")

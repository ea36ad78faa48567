"""Strategy partition construction, binning, and serialization."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from gammachain.partition import (
    DEFAULT_BOUNDARIES,
    Interval,
    StrategyPartition,
    default_partition,
)
from helpers import make_partition


class TestDefaultPartition:
    def test_boundaries_and_labels(self):
        part = default_partition()
        assert tuple(iv.lower for iv in part) + (part.intervals[-1].upper,) == DEFAULT_BOUNDARIES
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
        iv = part.intervals[idx]
        if idx == len(part) - 1:
            assert iv.lower <= value <= iv.upper
        else:
            assert iv.lower <= value < iv.upper


class TestValidation:
    def test_must_start_at_zero(self):
        with pytest.raises(ValueError):
            make_partition([0.1, 0.5, 1.0])

    def test_must_end_at_one(self):
        with pytest.raises(ValueError):
            make_partition([0.0, 0.5, 0.9])

    def test_rejects_gap(self):
        with pytest.raises(ValueError):
            StrategyPartition(
                (Interval(0.0, 0.4, "A"), Interval(0.5, 1.0, "B"))
            )

    def test_rejects_zero_length_interval(self):
        with pytest.raises(ValueError):
            make_partition([0.0, 0.5, 0.5, 1.0])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError):
            StrategyPartition(
                (Interval(0.0, 0.5, "A"), Interval(0.5, 1.0, "A"))
            )

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            StrategyPartition(())

    def test_rejects_decreasing_interval(self):
        with pytest.raises(ValueError):
            Interval(0.6, 0.4, "A")


class TestSerialization:
    def test_json_round_trip(self):
        part = default_partition()
        again = StrategyPartition.from_json_obj(json.loads(json.dumps(part.to_json_obj())))
        assert again == part

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
        iv = part.intervals[idx]
        assert iv.lower <= probe <= iv.upper
        if probe < 1.0 and probe == iv.upper:
            # boundary values belong to the interval on their right
            raise AssertionError("interior boundary assigned to its left interval")

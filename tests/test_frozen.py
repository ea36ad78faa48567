"""Value semantics of the array-holding dataclasses: read-only fields,
field-wise equality, no hashing."""

from dataclasses import fields, replace

import numpy as np
import pytest

from gammachain.inference import GammaSeries, TransitionCounts
from gammachain.markov import StateDistribution, TransitionMatrix
from gammachain.network import NetworkState, RegionConfig
from gammachain.partition import default_partition

from helpers import make_partition

# class, constructor arguments, and one different valid value for every field
CASES = [
    (
        RegionConfig,
        dict(region_names=("A", "B"), node_counts=(1, 2), mean_latency=[[10.0, 20.0], [20.0, 30.0]]),
        dict(region_names=("A", "C"), node_counts=(2, 1), mean_latency=[[10.0, 21.0], [21.0, 30.0]]),
    ),
    (
        NetworkState,
        dict(flat=[1.0], region_of=[0, 1]),
        dict(flat=[2.0], region_of=[1, 1]),
    ),
    (
        GammaSeries,
        dict(times=[0.0, 1.0], values=[0.1, 0.2]),
        dict(times=[0.0, 2.0], values=[0.1, 0.3]),
    ),
    (
        TransitionMatrix,
        dict(entries=[[0.5, 0.5], [0.0, 1.0]], labels=("A", "B")),
        dict(entries=[[0.25, 0.75], [0.0, 1.0]], labels=("A", "C")),
    ),
    (
        StateDistribution,
        dict(weights=[0.25, 0.75], labels=("A", "B")),
        dict(weights=[0.75, 0.25], labels=("B", "A")),
    ),
    (
        TransitionCounts,
        dict(counts=np.arange(16).reshape(4, 4), partition=default_partition()),
        dict(
            counts=np.arange(16).reshape(4, 4)[::-1],
            partition=make_partition([0.0, 0.25, 0.5, 0.75, 1.0]),
        ),
    ),
]


@pytest.mark.parametrize("cls, args, changed", CASES, ids=[case[0].__name__ for case in CASES])
def test_equality_is_field_wise_and_instances_are_unhashable(cls, args, changed):
    obj = cls(**args)
    assert set(changed) == {field.name for field in fields(cls)}
    assert obj == cls(**args)
    for name, value in changed.items():
        assert obj != replace(obj, **{name: value}), name
    assert obj.__eq__(object()) is NotImplemented
    with pytest.raises(TypeError):
        hash(obj)
    for field in fields(cls):
        value = getattr(obj, field.name)
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable

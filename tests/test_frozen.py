"""Value semantics of the package's frozen value classes: read-only fields, field-wise
equality, hashing only for the tuple-holding ones, the dataclass constructor and repr, and one
number rule for every field."""

import copy
import pickle
import warnings
from dataclasses import make_dataclass
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gammachain._frozen import check_dropout, numbers
from gammachain.inference import GammaSeries, LikelihoodReport, TransitionCounts
from gammachain.markov import KernelConfig, StateDistribution, TransitionMatrix
from gammachain.network import NetworkState, RegionConfig, evolve_network, init_network
from gammachain.partition import StrategyPartition, default_partition

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


def field_values(obj):
    return {name: getattr(obj, name) for name in type(obj).__match_args__}


def assert_field_wise_equality(cls, args, changed):
    obj = cls(**args)
    assert list(changed) == list(cls.__match_args__)
    assert obj == cls(**args)
    for name, value in changed.items():
        assert obj != cls(**{**field_values(obj), name: value}), name
    assert obj.__eq__(object()) is NotImplemented
    for value in field_values(obj).values():
        if isinstance(value, np.ndarray):
            assert not value.flags.writeable
    return obj


# the first three hold numpy arrays, the rest tuples of Python numbers
@pytest.mark.parametrize("cls, args, changed", CASES[:3], ids=[case[0].__name__ for case in CASES[:3]])
def test_equality_is_field_wise_and_instances_are_unhashable(cls, args, changed):
    obj = assert_field_wise_equality(cls, args, changed)
    with pytest.raises(TypeError):
        hash(obj)


@pytest.mark.parametrize("cls, args, changed", CASES[3:], ids=[case[0].__name__ for case in CASES[3:]])
def test_equality_is_field_wise_and_equal_values_hash_equal(cls, args, changed):
    obj = assert_field_wise_equality(cls, args, changed)
    assert hash(obj) == hash(cls(**args))


# every data type, with constructor arguments
VALUES = [(cls, args) for cls, args, _ in CASES] + [
    (StrategyPartition, dict(bounds=(0.0, 0.5, 1.0), labels=("A", "B"))),
    (KernelConfig, dict(length_scale=0.5)),
    (LikelihoodReport, dict(model_name="model1", relative_likelihood=1.5, log_likelihood=-2.0)),
]
VALUE_IDS = [cls.__name__ for cls, _ in VALUES]


@pytest.mark.parametrize("cls, args", VALUES, ids=VALUE_IDS)
def test_fields_refuse_assignment_and_deletion(cls, args):
    obj = cls(**args)
    for name, value in field_values(obj).items():
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is value


@pytest.mark.parametrize("cls, args", VALUES, ids=VALUE_IDS)
def test_constructor_takes_each_field_once_by_position_or_keyword(cls, args):
    first, *rest = cls.__match_args__
    assert cls(*args.values()) == cls(args[first], **{name: args[name] for name in rest}) == cls(**args)
    for name in cls.__match_args__:
        if not hasattr(cls, name):  # a field with no default
            with pytest.raises(TypeError):
                cls(**{key: value for key, value in args.items() if key != name})
    with pytest.raises(TypeError):
        cls(**args, unknown=1)
    with pytest.raises(TypeError):
        cls(args[first], **args)
    with pytest.raises(TypeError):
        cls(*args.values(), 1)


def test_a_default_reads_from_the_class():
    assert KernelConfig.length_scale == 0.25
    assert KernelConfig() == KernelConfig(0.25)
    assert repr(KernelConfig()) == "KernelConfig(length_scale=0.25)"


@pytest.mark.parametrize("cls, args", VALUES, ids=VALUE_IDS)
def test_repr_is_the_dataclass_form(cls, args):
    obj = cls(**args)
    reference = make_dataclass(cls.__name__, cls.__match_args__)(**field_values(obj))
    assert repr(obj) == repr(reference)


@pytest.mark.parametrize("cls, args", VALUES, ids=VALUE_IDS)
def test_pickle_and_copy_round_trip_to_an_equal_value(cls, args):
    obj = cls(**args)
    for other in (pickle.loads(pickle.dumps(obj)), copy.copy(obj)):
        assert type(other) is cls and other == obj


# each integer field, built with one chosen entry
INTEGER_FIELDS = {
    "node counts": lambda entry: RegionConfig(("A", "B"), (1, entry), [[10.0, 20.0], [20.0, 30.0]]),
    "counts": lambda entry: TransitionCounts([[1, entry], [0, 0]], make_partition([0.0, 0.5, 1.0])),
    "region assignment": lambda entry: NetworkState([1.0], [0, entry]),
}


@pytest.mark.parametrize("field", INTEGER_FIELDS)
@pytest.mark.parametrize(
    "entry",
    [1.5, Fraction(10**400 + 1, 2), 1 + Fraction(1, 10**20), np.nan, np.inf, None, "1", True, np.True_, [0.5]],
    ids=["fraction", "huge-fraction", "near-whole-fraction", "nan", "inf", "none", "text", "bool", "np-bool", "nested"],
)
def test_integer_fields_refuse_what_is_not_a_whole_number(field, entry):
    with pytest.raises(ValueError, match=f"^{field} must be whole numbers$"):
        INTEGER_FIELDS[field](entry)


@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_fields_take_whole_floats_and_refuse_past_int64(field):
    assert INTEGER_FIELDS[field](1.0) == INTEGER_FIELDS[field](np.int32(1)) == INTEGER_FIELDS[field](Fraction(2, 2))
    # a longdouble past the float range is whole, not an overflowed float
    for entry in (2**63, Fraction(10**400), np.longdouble("1e4000")):
        with pytest.raises(ValueError, match=f"^{field} must fit in a signed 64-bit integer$"):
            INTEGER_FIELDS[field](entry)


# each float field, built with one chosen entry: the name its message gives, and the builder;
# the entry sits beside plain numbers, so a nested list makes the input ragged
FLOAT_FIELDS = {
    "mean latencies": ("mean latencies", lambda entry: RegionConfig(("A", "B"), (1, 1), [[10.0, entry], [entry, 30.0]])),
    "partition bounds": ("partition bounds", lambda entry: StrategyPartition((0.0, entry, 1.0), ("A", "B"))),
    "pair weights": ("pair weights", lambda entry: NetworkState([1.0, entry, 1.0], [0, 1, 2])),
    "times": ("times", lambda entry: GammaSeries([0.0, entry], [0.1, 0.2])),
    "gamma values": ("gamma values", lambda entry: GammaSeries([0.0, 1.0], [0.1, entry])),
    "index_of": ("gamma values", lambda entry: default_partition().index_of([0.1, entry])),
    "transition matrix": ("probabilities", lambda entry: TransitionMatrix([[0.5, entry], [0.0, 1.0]], ("A", "B"))),
    "state distribution": ("probabilities", lambda entry: StateDistribution([0.5, entry], ("A", "B"))),
}


@pytest.mark.parametrize("case", FLOAT_FIELDS)
@pytest.mark.parametrize("entry", ["0.5", True, np.True_, None, [0.5]], ids=["text", "bool", "np-bool", "none", "nested"])
def test_float_fields_refuse_what_is_not_a_number(case, entry):
    field, build = FLOAT_FIELDS[case]
    with pytest.raises(ValueError, match=f"^{field} must be numbers, not strings or bools$"):
        build(entry)


# finite real numbers past the float range: float() of 10**400 raises, of the long double gives inf,
# and of the int less than half an ulp above the largest float rounds down to it
PAST_THE_FLOAT_RANGE = (10**400, Fraction(10**400), np.longdouble("1e4000"), 2**1024 - 2**971 + 1)


@pytest.mark.parametrize("case", FLOAT_FIELDS)
def test_float_fields_refuse_a_number_past_the_float_range(case):
    field, build = FLOAT_FIELDS[case]
    for entry in PAST_THE_FLOAT_RANGE:
        with pytest.raises(ValueError, match=f"^{field} must fit in a 64-bit float$"):
            build(entry)


# each rule that takes a float, built from a row of two numbers that sum to 1; the network is drawn once
REGIONS = RegionConfig(("A", "B"), (2, 2), [[10.0, 20.0], [20.0, 30.0]])
NETWORK = init_network(REGIONS, seed=1)
NARROW_FLOAT_BUILDS = {
    "transition matrix": lambda row: TransitionMatrix([row, row[::-1]], ("A", "B")),
    "state distribution": lambda row: StateDistribution(row, ("A", "B")),
    "partition bounds": lambda row: StrategyPartition([0.0, row[0], 1.0], ("A", "B")),
    "gamma series": lambda row: GammaSeries(list(row), list(row)),
    "index_of": lambda row: int(default_partition().index_of(row[1])),
    "length scale": lambda row: KernelConfig(row[0]),
    "dropout": lambda row: check_dropout(row[0]),
    "delta_t": lambda row: evolve_network(NETWORK, row[1], REGIONS, seed=2),
}


# a float narrower than 64 bits always fits: no bound is cast into its type, where it would overflow;
# 0.3 and 0.7 round in float32 to two numbers that still sum to 1, but not in float16
@pytest.mark.parametrize(
    "dtype, row", [(np.float32, [0.3, 0.7]), (np.float16, [0.375, 0.625])], ids=["float32", "float16"]
)
@pytest.mark.parametrize("case", NARROW_FLOAT_BUILDS)
def test_narrow_floats_are_taken_at_their_value_without_a_warning(case, dtype, row):
    row = np.array(row, dtype=dtype)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert NARROW_FLOAT_BUILDS[case](row) == NARROW_FLOAT_BUILDS[case](row.astype(float))


# the smallest int64 has no int64 absolute value: each field refuses it by its own rule, with no warning
@pytest.mark.parametrize("field", INTEGER_FIELDS)
def test_integer_fields_refuse_the_smallest_int64_as_negative(field):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{field} must be non-negative$"):
            INTEGER_FIELDS[field](np.int64(-(2**63)))


def test_a_float_field_takes_the_smallest_int64_without_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert GammaSeries([np.int64(-(2**63)), 0.0], [0.1, 0.2]).times[0] == -(2.0**63)


# the float fields numpy copies, each built from one array of three increasing numbers in [0, 1]:
# the name its message gives, and the builder; a weight must be at least 1
LONG_DOUBLE_FIELDS = {
    "pair weights": ("pair weights", lambda row: NetworkState(row + 1, [0, 1, 2])),
    "times": ("times", lambda row: GammaSeries(row, [0.1, 0.2, 0.3])),
    "gamma values": ("gamma values", lambda row: GammaSeries([0.0, 1.0, 2.0], row)),
    "index_of": ("gamma values", lambda row: tuple(default_partition().index_of(row))),
}


@pytest.mark.parametrize("case", LONG_DOUBLE_FIELDS)
def test_array_fields_check_a_long_double_array_cell_by_cell(case):
    field, build = LONG_DOUBLE_FIELDS[case]
    row = np.array(["0.25", "0.5", "0.75"], dtype=np.longdouble)
    assert build(row) == build(row.astype(float))
    row[1] = np.longdouble("1e4000")
    with pytest.raises(ValueError, match=f"^{field} must fit in a 64-bit float$"):
        build(row)


SHAPES = hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=4)


# for int64, the floats are whole and exact, as the helper requires
@pytest.mark.parametrize(
    "dtype, floats", [(float, st.floats()), (np.int64, st.integers(-(2**53), 2**53).map(float))], ids=["float64", "int64"]
)
@given(data=st.data())
def test_numbers_copies_real_numbers_as_numpy_would(dtype, floats, data):
    values = data.draw(
        st.one_of(
            hnp.arrays(np.int64, SHAPES),
            hnp.arrays(np.float64, SHAPES, elements=floats),
            st.lists(st.one_of(st.integers(-(2**63), 2**63 - 1), floats), max_size=6),
        )
    )
    out = numbers(values, "values", dtype)
    expected = np.array(values, dtype)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert out.tobytes() == expected.tobytes()
    assert not out.flags.writeable

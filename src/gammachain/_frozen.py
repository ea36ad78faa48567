"""Value semantics shared by the package's data types, and the one home of every scalar rule.

``frozen`` makes each data type a frozen value class over its annotated fields: a constructor that
passes the values given, in field order, to the class's check ``_checked`` and stores the values it
returns, one a field; field-wise ``==``, numpy arrays by value; a hash of the fields, so a type that
holds arrays is not hashable; and the ``Name(field=value, ...)`` repr.
One number rule holds for every field filled from outside the package: each cell is a real
number (not text, a bool, None or a list) that fits in a 64-bit float and, in an integer field,
a whole one that fits in int64. ``cells`` keeps it for the analytic fields, tuples of Python
floats or ints, and imports no numpy; ``numbers`` keeps it for the series and network fields,
read-only numpy copies, and imports numpy when called. The ``check_*`` rules, which the library
and the command line's flags share, and the two link defaults cover the scalar parameters:
length scale, ``delta_t``, dropout, activation, the skew-normal shape and the two nodes a race needs.
"""

from __future__ import annotations

import math
import sys
from numbers import Real


def is_real(value) -> bool:
    """Whether ``value`` is a real number by the rule above, for the package's scalar rules."""
    return isinstance(value, Real) and not isinstance(value, bool)


def rule(accept, message: str, whole: bool = False):
    """A scalar rule: its value as a float, or as the int given if ``whole``; ValueError(``message``) unless
    ``accept`` takes it. A float rule passes ``accept`` NaN, which fails every range, for what ``_cell``
    refuses as a float cell; a ``whole`` rule never goes through a float."""

    def check(value):
        if not whole:
            try:
                value = _cell(value, "value", whole=False)
            except ValueError:
                value = math.nan
        if not accept(value):
            raise ValueError(message)
        return value

    return check


# the simulator's link probabilities: initial dropout and per-step activation
DROPOUT, ACTIVATION = 0.1, 0.9
check_length_scale = rule(lambda v: 0 < v < math.inf, "length_scale must be positive and finite")
check_delta_t = rule(lambda v: 0 < v < math.inf, "delta_t must be positive and finite")
check_dropout = rule(lambda v: 0 <= v < 1, "dropout must lie in [0, 1)")
check_activation = rule(lambda v: 0 <= v <= 1, "activation must lie in [0, 1]")
# the skew-normal kernel squares its shape
check_shape = rule(lambda v: math.isfinite(v * v), "shape must be a real number whose square is finite")
check_nodes = rule(lambda n: n >= 2, "need at least two nodes to race propagation", whole=True)


def _cell(cell, field: str, whole: bool):
    """``cell`` as a Python int if ``whole``, else a float; ValueError unless it keeps the rule above."""
    # fit and wholeness are tested by value, not through a float a huge cell overflows; NaN and inf pass on
    if not is_real(cell) or whole and not (-math.inf < cell < math.inf and int(cell) == cell):
        raise ValueError(f"{field} must be {'whole numbers' if whole else 'numbers, not strings or bools'}")
    if not whole:
        # a numpy number of up to 8 bytes fits, as in ``numbers``; comparing a narrower float with the bound
        # would cast the bound into its type, where it overflows
        if getattr(cell, "itemsize", 16) > 8 and sys.float_info.max < abs(cell) < math.inf:
            raise ValueError(f"{field} must fit in a 64-bit float")
        return float(cell)
    if not -(2**63) <= int(cell) < 2**63:
        raise ValueError(f"{field} must fit in a signed 64-bit integer")
    return int(cell)


def cells(values, field: str, whole: bool = False, rank: int = 1) -> tuple:
    """``values`` as nested tuples ``rank`` deep of Python floats, or ints if ``whole``; ValueError unless
    every cell keeps the rule above. A ragged matrix stays ragged, for the caller's shape rule."""
    try:
        items = tuple(values)
    except TypeError:
        raise ValueError(f"{field} must be a sequence, not one value") from None
    if rank > 1:
        return tuple(cells(row, field, whole, rank - 1) for row in items)
    return tuple(_cell(cell, field, whole) for cell in items)


def numbers(values, field: str, dtype=float):
    """A read-only float64 or int64 numpy copy of ``values``; ValueError unless every cell keeps the rule above."""
    import numpy as np

    whole = np.dtype(dtype).kind == "i"
    # an array of up to 8-byte numbers fits; a long double may not, so it is checked cell by cell
    if not (isinstance(values, np.ndarray) and values.dtype.kind in ("i" if whole else "fiu") and values.itemsize <= 8):
        for cell in np.asarray(values, dtype=object).flat:
            _cell(cell, field, whole)
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


def frozen(cls):
    """``cls`` as a frozen value class over its annotated fields, their class attributes the defaults."""
    names, fields = tuple(cls.__annotations__), set(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}

    def __init__(self, *args, **kwargs):
        values = {**defaults, **dict(zip(names, args)), **kwargs}
        if len(args) > len(names) or not kwargs.keys().isdisjoint(names[: len(args)]) or values.keys() != fields:
            raise TypeError(f"{cls.__name__}() takes {', '.join(names)}: each once, by position or keyword")
        for name, value in zip(names, self._checked(*(values[name] for name in names)), strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        np = sys.modules.get("numpy")  # an array exists only once numpy is loaded
        pairs = ((getattr(self, name), getattr(other, name)) for name in names)
        return all(np.array_equal(a, b) if np and isinstance(a, np.ndarray) else a == b for a, b in pairs)

    def __hash__(self):
        return hash(tuple(getattr(self, name) for name in names))

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    for method in (__init__, __setattr__, __delattr__, __eq__, __hash__, __repr__):
        setattr(cls, method.__name__, method)
    cls.__match_args__ = names
    return cls

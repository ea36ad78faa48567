"""Value semantics shared by the package's dataclasses, and the one home of every scalar rule.

One number rule holds for every field filled from outside the package: each cell is a real
number (not text, a bool, None or a list) that fits in a 64-bit float and, in an integer field,
a whole one that fits in int64. ``cells`` keeps it for the analytic fields, tuples of Python
floats or ints, and imports no numpy; ``numbers`` keeps it for the series and network fields,
read-only numpy arrays, and imports numpy when called. ``ArrayEq`` compares arrays by value.
The ``check_*`` rules, which the library and the command line's flags share, and the two link
defaults cover the scalar parameters: length scale, ``delta_t``, dropout, activation, the
skew-normal shape and the two nodes a race needs.
"""

from __future__ import annotations

import math
from dataclasses import fields
from numbers import Integral, Real


def is_real(value) -> bool:
    """Whether ``value`` is a real number by the rule above, for the package's scalar rules."""
    return isinstance(value, Real) and not isinstance(value, bool)


def rule(accept, message: str, whole: bool = False):
    """A scalar rule: its value as a float, or as the int given if ``whole``; ValueError(``message``) unless
    ``accept`` takes it. A float rule passes ``accept`` NaN, which fails every range, for what is no real
    number that fits in a float; a ``whole`` rule never goes through a float."""

    def check(value):
        if not whole:
            try:
                value = float(value) if is_real(value) else math.nan
            except OverflowError:
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
    if not is_real(cell) or whole and not (isinstance(cell, Integral) or float(cell).is_integer()):
        raise ValueError(f"{field} must be {'whole numbers' if whole else 'numbers, not strings or bools'}")
    if not whole:
        try:
            return float(cell)
        except OverflowError:
            raise ValueError(f"{field} must fit in a 64-bit float") from None
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


def readonly(arr, dtype=float):
    """A read-only numpy copy of ``arr`` as ``dtype``, for arrays the package builds itself."""
    import numpy as np

    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def numbers(values, field: str, dtype=float):
    """A read-only float64 or int64 numpy copy of ``values``; ValueError unless every cell keeps the rule above."""
    import numpy as np

    whole = np.dtype(dtype).kind == "i"
    if not (isinstance(values, np.ndarray) and values.dtype.kind in ("i" if whole else "fiu")):
        for cell in np.asarray(values, dtype=object).flat:
            _cell(cell, field, whole)
    return readonly(values, dtype)


class ArrayEq:
    """Field-wise ``==``, arrays by value, for ``@dataclass(eq=False)`` subclasses, which stay unhashable."""

    def __eq__(self, other):
        import numpy as np

        if other.__class__ is not self.__class__:
            return NotImplemented
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            if not (np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs):
                return False
        return True

"""Value semantics shared by the package's dataclasses.

One number rule holds for every field filled from outside the package: each cell is a real
number (not text, a bool, None or a list) and, in an integer field, a whole one that fits in
int64. ``cells`` keeps it for the analytic fields, tuples of Python floats or ints, and imports
no numpy; ``numbers`` keeps it for the series and network fields, read-only numpy arrays, and
imports numpy when called. ``ArrayEq`` compares arrays by value, other fields with ``==``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields
from numbers import Integral, Real


def is_real(value) -> bool:
    """Whether ``value`` is a real number by the rule above, for the package's scalar rules."""
    return isinstance(value, Real) and not isinstance(value, bool)


def real_float(value) -> float:
    """``value`` as a float for a scalar range rule: NaN, which fails every range, unless a real number
    that fits in a float."""
    try:
        return float(value) if is_real(value) else math.nan
    except OverflowError:
        return math.nan


def _cell(cell, field: str, whole: bool):
    """``cell`` as a Python int if ``whole``, else a float; ValueError unless it keeps the rule above."""
    if not is_real(cell) or whole and not (isinstance(cell, Integral) or float(cell).is_integer()):
        raise ValueError(f"{field} must be {'whole numbers' if whole else 'numbers, not strings or bools'}")
    if not whole:
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
    """Field-wise ``==`` for ``@dataclass(eq=False)`` subclasses, which stay unhashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # an array field exists only once numpy is loaded, so this never imports it
        np = sys.modules.get("numpy")
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            same = np.array_equal(mine, theirs) if np and isinstance(mine, np.ndarray) else mine == theirs
            if not same:
                return False
        return True

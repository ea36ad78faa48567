"""Value semantics shared by the package's array-holding dataclasses.

``numbers`` is the one conversion of array values from outside the package: a read-only
copy, refused unless every cell is a real number (not text, a bool, None or a list) and,
for int64, a whole one that fits. ``==`` compares arrays by value, other fields with ``==``.
"""

from __future__ import annotations

from dataclasses import fields
from numbers import Integral, Real

import numpy as np


def readonly(arr, dtype=float) -> np.ndarray:
    """A read-only copy of ``arr`` as ``dtype``, for arrays the package builds itself."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def is_real(value) -> bool:
    """Whether ``value`` is a real number by the rule above, for the package's scalar rules."""
    return isinstance(value, Real) and not isinstance(value, bool)


def numbers(values, field: str, dtype=float) -> np.ndarray:
    """A read-only float64 or int64 copy of ``values``; ValueError unless every cell keeps the rule above."""
    whole = np.dtype(dtype).kind == "i"
    rule = "whole numbers" if whole else "numbers, not strings or bools"
    if not (isinstance(values, np.ndarray) and values.dtype.kind in ("i" if whole else "fiu")):
        for cell in np.asarray(values, dtype=object).flat:
            integral = isinstance(cell, Integral) or isinstance(cell, (float, np.floating)) and cell.is_integer()
            if not is_real(cell) or whole and not integral:
                raise ValueError(f"{field} must be {rule}")
            if whole and not -(2**63) <= int(cell) < 2**63:
                raise ValueError(f"{field} must fit in a signed 64-bit integer")
    return readonly(values, dtype)


class ArrayEq:
    """Field-wise ``==`` for ``@dataclass(eq=False)`` subclasses, which stay unhashable."""

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        for field in fields(self):
            mine, theirs = getattr(self, field.name), getattr(other, field.name)
            same = np.array_equal(mine, theirs) if isinstance(mine, np.ndarray) else mine == theirs
            if not same:
                return False
        return True

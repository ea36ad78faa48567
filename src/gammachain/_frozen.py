"""Value semantics shared by the package's array-holding dataclasses.

Array fields are stored as read-only copies, and ``==`` compares every field
by value: ``np.array_equal`` for arrays, ``==`` for everything else.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np


def readonly(arr, dtype=float) -> np.ndarray:
    """A read-only copy of ``arr`` as ``dtype``."""
    out = np.array(arr, dtype=dtype)
    out.setflags(write=False)
    return out


def whole_numbers(values, field: str) -> np.ndarray:
    """A read-only int64 copy of ``values``; ValueError unless each is a whole number (JSON true is not) in int64."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind == "i"):
        for cell in np.asarray(values, dtype=object).flat:
            integral = isinstance(cell, (int, np.integer)) and not isinstance(cell, bool)
            if not (integral or isinstance(cell, (float, np.floating)) and cell.is_integer()):
                raise ValueError(f"{field} must be whole numbers")
            if not -(2**63) <= int(cell) < 2**63:
                raise ValueError(f"{field} must fit in a signed 64-bit integer")
    return readonly(values, np.int64)


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

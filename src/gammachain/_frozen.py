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

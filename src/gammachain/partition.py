"""Strategy partitions of the unit interval.

A partition is its boundary points, strictly increasing from 0 to 1, and
one label for each interval between neighbouring points. Every interval is
half-open on the right except the last one, which is closed at 1, so each
value in [0, 1] belongs to exactly one interval. The default partition maps
the fork-following fraction to the mining strategy that is optimal there:
honest mining (HM), selfish mining (SM), lead-stubborn mining (LSM) and
equal-fork-stubborn mining (EFSM).
"""

from __future__ import annotations

from ._frozen import cells, frozen, numbers

DEFAULT_BOUNDARIES = (0.0, 0.675, 0.76, 0.761, 1.0)
DEFAULT_LABELS = ("HM", "SM", "LSM", "EFSM")


def _check_gammas(values) -> None:
    """The gamma range rule for a numpy array, shared with ``GammaSeries``: every value in [0, 1], NaN rejected."""
    if not ((values >= 0.0) & (values <= 1.0)).all():
        raise ValueError("gamma values must lie in [0, 1]")


@frozen
class StrategyPartition:
    """Labeled intervals covering [0, 1]: interval i is [bounds[i], bounds[i + 1]), named labels[i].

    The bounds are real numbers, kept as floats, that rise strictly from 0
    to 1; the labels are unique strings, one per interval.

    Raises
    ------
    ValueError
        If a bound is not a real number (text, a bool, None or a list), a
        label is not a string, or the bounds and labels break the rules above.
    """

    bounds: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        bounds, labels = cells(self.bounds, "partition bounds"), tuple(self.labels)
        if not all(isinstance(label, str) for label in labels):
            raise ValueError("interval labels must be strings")
        if not labels or len(bounds) != len(labels) + 1:
            raise ValueError("partition needs at least one interval and one label per interval")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "labels", labels)
        if (bounds[0], bounds[-1]) != (0.0, 1.0):
            raise ValueError("partition bounds must run from 0 to 1")
        for lo, hi, label in zip(bounds, bounds[1:], labels):
            if not hi > lo:
                raise ValueError(f"interval {label!r} must have positive length")
        if len(set(labels)) != len(labels):
            raise ValueError("interval labels must be unique")

    def __len__(self) -> int:
        return len(self.labels)

    def lengths(self) -> tuple[float, ...]:
        return tuple(hi - lo for lo, hi in zip(self.bounds, self.bounds[1:]))

    def midpoints(self) -> tuple[float, ...]:
        return tuple(lo + (hi - lo) / 2.0 for lo, hi in zip(self.bounds, self.bounds[1:]))

    def index_of(self, values):
        """Index of the interval containing each value, for a scalar or an array; imports numpy.

        Interior boundaries belong to the interval that starts there and
        1.0 belongs to the final interval.

        Raises
        ------
        ValueError
            If a value is not a real number, is NaN or lies outside [0, 1].
        """
        import numpy as np

        arr = numbers(values, "gamma values")
        _check_gammas(arr)
        return np.searchsorted(self.bounds[1:-1], arr, side="right")

    def to_json_obj(self) -> list[dict]:
        return [
            {"lower": lo, "upper": hi, "label": label}
            for lo, hi, label in zip(self.bounds, self.bounds[1:], self.labels)
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "StrategyPartition":
        """Read the interval-list form: ``[{"lower", "upper", "label"}, ...]``, contiguous."""
        bounds = (obj[0]["lower"], *(d["upper"] for d in obj)) if obj else ()
        partition = cls(bounds, tuple(d["label"] for d in obj))
        # after the types are checked, so a quoted number is not reported as a gap
        for left, right in zip(obj, obj[1:]):
            if left["upper"] != right["lower"]:
                raise ValueError(f"intervals {left['label']!r} and {right['label']!r} must be contiguous")
        return partition


def default_partition() -> StrategyPartition:
    """The four-interval strategy partition at ``DEFAULT_BOUNDARIES``."""
    return StrategyPartition(DEFAULT_BOUNDARIES, DEFAULT_LABELS)

"""Strategy partitions of the unit interval.

A partition splits [0, 1] into ordered labeled intervals. Every interval is
half-open on the right except the last one, which is closed at 1, so each
value in [0, 1] belongs to exactly one interval. The default partition maps
the fork-following fraction to the mining strategy that is optimal there:
honest mining (HM), selfish mining (SM), lead-stubborn mining (LSM) and
equal-fork-stubborn mining (EFSM).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

DEFAULT_BOUNDARIES = (0.0, 0.675, 0.76, 0.761, 1.0)
DEFAULT_LABELS = ("HM", "SM", "LSM", "EFSM")


@dataclass(frozen=True)
class Interval:
    """One labeled interval of a strategy partition.

    Raises
    ------
    ValueError
        If the bounds are reversed.
    """

    lower: float
    upper: float
    label: str

    def __post_init__(self):
        if self.lower > self.upper:
            raise ValueError("interval lower bound exceeds its upper bound")

    @property
    def length(self) -> float:
        return self.upper - self.lower

    @property
    def midpoint(self) -> float:
        return self.lower + (self.upper - self.lower) / 2.0


@dataclass(frozen=True)
class StrategyPartition:
    """Ordered disjoint intervals covering [0, 1] exactly.

    Parameters
    ----------
    intervals : sequence of Interval
        Must start at 0, end at 1, be contiguous, have strictly positive
        lengths and unique labels.

    Raises
    ------
    ValueError
        If any structural invariant is violated.
    """

    intervals: tuple[Interval, ...]

    def __post_init__(self):
        ivs = tuple(self.intervals)
        object.__setattr__(self, "intervals", ivs)
        if not ivs:
            raise ValueError("partition needs at least one interval")
        if ivs[0].lower != 0.0:
            raise ValueError("first interval must start at 0")
        if ivs[-1].upper != 1.0:
            raise ValueError("last interval must end at 1")
        for left, right in zip(ivs, ivs[1:]):
            if left.upper != right.lower:
                raise ValueError(
                    f"intervals {left.label!r} and {right.label!r} must be contiguous"
                )
        for iv in ivs:
            if not iv.upper > iv.lower:
                raise ValueError(f"interval {iv.label!r} must have positive length")
        labels = [iv.label for iv in ivs]
        if len(set(labels)) != len(labels):
            raise ValueError("interval labels must be unique")

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(iv.label for iv in self.intervals)

    def lengths(self) -> tuple[float, ...]:
        return tuple(iv.length for iv in self.intervals)

    def midpoints(self) -> tuple[float, ...]:
        return tuple(iv.midpoint for iv in self.intervals)

    def index_of(self, values):
        """Index of the interval containing each value, for a scalar or an array.

        Interior boundaries belong to the interval that starts there and
        1.0 belongs to the final interval.

        Raises
        ------
        ValueError
            If a value is NaN or lies outside [0, 1].
        """
        arr = np.asarray(values, dtype=float)
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise ValueError("gamma values must lie in [0, 1]")
        uppers = np.asarray([iv.upper for iv in self.intervals])
        return np.minimum(np.searchsorted(uppers, arr, side="right"), len(uppers) - 1)

    def to_json_obj(self) -> list[dict]:
        return [
            {"lower": iv.lower, "upper": iv.upper, "label": iv.label}
            for iv in self.intervals
        ]

    @classmethod
    def from_json_obj(cls, obj: list[dict]) -> "StrategyPartition":
        return cls(
            tuple(
                Interval(float(d["lower"]), float(d["upper"]), str(d["label"]))
                for d in obj
            )
        )


def default_partition() -> StrategyPartition:
    """The four-interval strategy partition with boundaries 0, 0.675, 0.76, 0.761, 1."""
    bounds = DEFAULT_BOUNDARIES
    return StrategyPartition(
        tuple(
            Interval(bounds[i], bounds[i + 1], DEFAULT_LABELS[i])
            for i in range(len(DEFAULT_LABELS))
        )
    )

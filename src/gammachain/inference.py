"""The gamma series, its binning into transition counts, and likelihood scoring.

A gamma series is mapped to a state sequence through a strategy partition;
consecutive states accumulate into a transition-count matrix. The empirical
row-normalized matrix is the maximum-likelihood transition model for those
counts, so any candidate model can be scored by its log-likelihood gap to
the empirical one. The gap is zero exactly when the candidate matches the
empirical matrix on every observed cell, and infinite when the candidate
assigns probability zero to an observed transition.

The likelihood half (counts, the empirical matrix and the scores) holds
Python numbers and imports no numpy. The series half (``GammaSeries`` and the
functions that bin, count or average a series) holds numpy arrays and
imports numpy when called.
"""

from __future__ import annotations

import math
import re
from importlib import resources
from typing import TYPE_CHECKING

from ._frozen import cells, frozen, numbers
from .markov import StateDistribution, TransitionMatrix, pairwise_sum
from .partition import DEFAULT_BOUNDARIES, StrategyPartition, _check_gammas, default_partition

if TYPE_CHECKING:
    import numpy as np

REFERENCE_COUNTS_FILE = "reference_counts.csv"
_INTEGER_CELL = re.compile(r"\s*[+-]?[0-9]+\s*")


def checked_times(times) -> np.ndarray:
    """A read-only float array copy of times; ValueError unless real numbers, 1-D, non-empty, finite and increasing."""
    import numpy as np

    times = numbers(times, "times")
    if times.ndim != 1:
        raise ValueError("times must be one-dimensional")
    if len(times) == 0:
        raise ValueError("series must contain at least one sample")
    if not np.all(np.isfinite(times)):
        raise ValueError("times must be finite")
    # neighbours compared, not subtracted: a difference of wide times overflows
    if not np.all(times[1:] > times[:-1]):
        raise ValueError("times must be strictly increasing")
    return times


def _series_csv(header: str, *columns: np.ndarray) -> str:
    """``header``, then one row per index of the equal-length float ``columns``, each cell its float's repr."""
    # repr of a python float is the shortest exact round-trip form
    rows = zip(*(column.tolist() for column in columns))
    return "\n".join([header, *(",".join(map(repr, row)) for row in rows)]) + "\n"


@frozen
class GammaSeries:
    """Gamma samples over a strictly increasing time schedule.

    Raises
    ------
    ValueError
        If the times break ``checked_times`` or the values are not real
        numbers in [0, 1] (NaN included), one per time.
    """

    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = checked_times(self.times)
        values = numbers(self.values, "gamma values")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)
        if values.shape != times.shape:
            raise ValueError("values must be one-dimensional, one per time")
        _check_gammas(values)

    def __len__(self) -> int:
        return len(self.values)

    def to_csv(self) -> str:
        return _series_csv("time,gamma", self.times, self.values)

    @classmethod
    def from_csv(cls, path) -> "GammaSeries":
        """Read a series file: the header ``time,gamma``, then one ``time,gamma`` row a line."""
        import numpy as np

        with open(path, encoding="utf-8") as fh:
            lines = enumerate(map(str.strip, fh), 1)
            skip, header = next((item for item in lines if item[1]), (0, ""))
            if header != "time,gamma":
                raise ValueError("series CSV must start with the header 'time,gamma'")
            if not any(text for _, text in lines):
                raise ValueError("series must contain at least one sample")
        # numpy reads a path in one pass of its C reader (a bare header would warn, hence the
        # check above); it skips blank lines and raises on a bad token or a changed field count
        rows = np.loadtxt(path, delimiter=",", comments=None, ndmin=2, skiprows=skip, encoding="utf-8")
        if rows.shape[1] != 2:
            raise ValueError("series CSV rows must hold two fields, time and gamma")
        nonfinite = ~np.isfinite(rows)
        if nonfinite.any():
            # a number past the float range reads as inf: the constructor gets it exact, for the number rule,
            # clamped to 1e400 in size so that a huge exponent costs no time
            from decimal import Decimal
            from fractions import Fraction

            with open(path, encoding="utf-8") as fh:
                texts = [line.split(",") for line in fh if line.strip()][1:]
            rows = rows.astype(object)
            for row, col in zip(*np.nonzero(nonfinite)):
                if (exact := Decimal(texts[row][col])).is_finite():
                    rows[row, col] = Fraction(min(exact.copy_abs(), Decimal("1e400")).copy_sign(exact))
        return cls(rows[:, 0], rows[:, 1])


def moving_average(series: GammaSeries) -> GammaSeries:
    """Cumulative mean of the series, times preserved."""
    import numpy as np

    counts = np.arange(1, len(series) + 1, dtype=float)
    return GammaSeries(series.times, np.cumsum(series.values) / counts)


@frozen
class TransitionCounts:
    """Non-negative transition counts over the states of a partition: ``counts[i][j]``, a tuple of row tuples of ints.

    Raises
    ------
    ValueError
        If the matrix is not square over the partition states or an entry
        is negative or not a whole number (a fraction, NaN, None, text, a bool or a list).
    """

    counts: tuple[tuple[int, ...], ...]
    partition: StrategyPartition

    def __post_init__(self):
        counts = cells(self.counts, "counts", whole=True, rank=2)
        object.__setattr__(self, "counts", counts)
        k = len(self.partition)
        if len(counts) != k or any(len(row) != k for row in counts):
            raise ValueError("counts must be square over the partition states")
        if any(c < 0 for row in counts for c in row):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        return sum(map(sum, self.counts))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.partition.labels

    def to_csv(self) -> str:
        return "\n".join(",".join(map(str, row)) for row in self.counts) + "\n"

    @classmethod
    def from_csv(cls, text: str, partition: StrategyPartition = default_partition()) -> "TransitionCounts":
        """Read one comma-separated row of decimal integers a line; blank lines are skipped."""
        rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("counts rows must all have the same number of cells")
        for cell in (cell for row in rows for cell in row):
            if not _INTEGER_CELL.fullmatch(cell):
                raise ValueError(f"count {cell.strip()!r} is not a decimal integer")
        return cls([[int(cell) for cell in row] for row in rows], partition)


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


@frozen
class LikelihoodReport:
    """Score of one model against observed counts."""

    model_name: str
    relative_likelihood: float
    log_likelihood: float

    def __post_init__(self):
        if not self.relative_likelihood >= 0:
            raise ValueError("relative likelihood must be non-negative")

    def to_json_obj(self) -> dict:
        """Strict-JSON form: a non-finite figure becomes null with a note."""
        obj = {
            "model_name": self.model_name,
            "relative_likelihood": _finite_or_none(self.relative_likelihood),
            "log_likelihood": _finite_or_none(self.log_likelihood),
        }
        if obj["relative_likelihood"] is None:
            obj["note"] = (
                "relative likelihood is infinite: the model gives "
                "probability zero to an observed transition"
            )
        return obj


def count_transitions(series: GammaSeries, partition: StrategyPartition = default_partition()) -> TransitionCounts:
    """Accumulate consecutive-pair transitions of a series into counts.

    The total over all cells equals the series length minus one.

    Raises
    ------
    ValueError
        If the series has fewer than two samples.
    """
    import numpy as np

    if len(series) < 2:
        raise ValueError("need at least two samples to count transitions")
    states = partition.index_of(series.values)
    k = len(partition)
    flat = states[:-1] * k + states[1:]
    return TransitionCounts(np.bincount(flat, minlength=k * k).reshape(k, k).tolist(), partition)


def empirical_transition_matrix(counts: TransitionCounts) -> TransitionMatrix:
    """Row-normalize counts into the maximum-likelihood transition matrix.

    A row with no observations carries no information; it becomes the
    uniform row so the result stays row-stochastic.
    """
    k = len(counts.labels)
    rows = [[float(c) for c in row] for row in counts.counts]
    totals = map(pairwise_sum, rows)
    normalized = [[c / total for c in row] if total > 0 else [1.0 / k] * k for row, total in zip(rows, totals)]
    return TransitionMatrix(normalized, counts.labels)


def occupancy_fractions(series: GammaSeries, partition: StrategyPartition = default_partition()) -> StateDistribution:
    """Fraction of samples falling in each partition state."""
    import numpy as np

    states = partition.index_of(series.values)
    k = len(partition)
    occ = np.bincount(states, minlength=k) / len(series)
    return StateDistribution(occ, partition.labels)


def occupancy_from_counts(counts: TransitionCounts, series: GammaSeries) -> StateDistribution:
    """``occupancy_fractions`` of the series ``counts`` came from: each sample but the last opens one pair."""
    occ = [sum(row) for row in counts.counts]
    occ[counts.partition.index_of(series.values[-1])] += 1
    return StateDistribution([c / len(series) for c in occ], counts.labels)


def log_likelihood(model: TransitionMatrix, counts: TransitionCounts) -> float:
    """Sum of count-weighted log transition probabilities.

    Cells with zero counts contribute nothing regardless of the model
    probability; an observed cell with model probability zero (or the
    rounding residue below it that ``TransitionMatrix`` admits) makes the
    whole value -inf.

    Raises
    ------
    ValueError
        If the model and the counts label different states.
    """
    if model.labels != counts.labels:
        raise ValueError(f"model states {model.labels} differ from counts states {counts.labels}")
    observed = [(c, p) for crow, prow in zip(counts.counts, model.entries) for c, p in zip(crow, prow) if c > 0]
    if any(p <= 0.0 for _, p in observed):
        return float("-inf")
    return pairwise_sum([float(c) * math.log(p) for c, p in observed])


def _gap_to_best(model_log_likelihood: float, counts: TransitionCounts) -> float:
    best = log_likelihood(empirical_transition_matrix(counts), counts)
    return max(best - model_log_likelihood, 0.0)


def relative_likelihood(model: TransitionMatrix, counts: TransitionCounts) -> float:
    """Log-likelihood gap from the empirical maximum-likelihood matrix.

    Always non-negative: zero when the model matches the empirical matrix
    on every observed cell, +inf when the model zeroes an observed cell.
    """
    return _gap_to_best(log_likelihood(model, counts), counts)


def score_model(name: str, model: TransitionMatrix, counts: TransitionCounts) -> LikelihoodReport:
    """Bundle the two likelihood figures for one model into a report, scoring the model once."""
    model_log_likelihood = log_likelihood(model, counts)
    return LikelihoodReport(name, _gap_to_best(model_log_likelihood, counts), model_log_likelihood)


def load_reference_counts(partition: StrategyPartition = default_partition()) -> TransitionCounts:
    """The packaged reference transition counts, binned under the default partition's bounds.

    ``partition`` may relabel the four default states; other bounds raise ``ValueError``.
    """
    if partition.bounds != DEFAULT_BOUNDARIES:
        default, given = (", ".join(f"{b:g}" for b in bounds) for bounds in (DEFAULT_BOUNDARIES, partition.bounds))
        raise ValueError(
            "the bundled reference counts cover the four default states, "
            f"binned at {default}, not at {given}"
        )
    text = (
        resources.files("gammachain")
        .joinpath("data", REFERENCE_COUNTS_FILE)
        .read_text(encoding="utf-8")
    )
    return TransitionCounts.from_csv(text, partition)

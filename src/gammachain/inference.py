"""Binning, transition counting, and likelihood scoring of candidate models.

A gamma series is mapped to a state sequence through a strategy partition;
consecutive states accumulate into a transition-count matrix. The empirical
row-normalized matrix is the maximum-likelihood transition model for those
counts, so any candidate model can be scored by its log-likelihood gap to
the empirical one. The gap is zero exactly when the candidate matches the
empirical matrix on every observed cell, and infinite when the candidate
assigns probability zero to an observed transition.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from ._frozen import ArrayEq, readonly
from .markov import StateDistribution, TransitionMatrix
from .network import GammaSeries
from .partition import StrategyPartition, default_partition

REFERENCE_COUNTS_FILE = "reference_counts.csv"
_INTEGER_CELL = re.compile(r"\s*[+-]?[0-9]+\s*")


@dataclass(frozen=True, eq=False)
class TransitionCounts(ArrayEq):
    """Non-negative transition counts over the states of a partition.

    Raises
    ------
    ValueError
        If the matrix is not square over the partition states or any entry
        is negative.
    """

    counts: np.ndarray
    partition: StrategyPartition

    def __post_init__(self):
        counts = readonly(self.counts, np.int64)
        object.__setattr__(self, "counts", counts)
        k = len(self.partition)
        if counts.shape != (k, k):
            raise ValueError("counts must be square over the partition states")
        if np.any(counts < 0):
            raise ValueError("counts must be non-negative")

    @property
    def total(self) -> int:
        # python ints: valid int64 cells can sum past 2**63
        return int(self.counts.sum(dtype=object))

    @property
    def labels(self) -> tuple[str, ...]:
        return self.partition.labels

    def to_csv(self) -> str:
        return "\n".join(",".join(str(int(v)) for v in row) for row in self.counts) + "\n"

    @classmethod
    def from_csv(cls, text: str, partition: StrategyPartition | None = None) -> "TransitionCounts":
        """Read one comma-separated row of decimal integers a line; blank lines are skipped."""
        partition = partition or default_partition()
        rows = [line.split(",") for line in text.strip().splitlines() if line.strip()]
        if len({len(row) for row in rows}) > 1:
            raise ValueError("counts rows must all have the same number of cells")
        for cell in (cell for row in rows for cell in row):
            if not _INTEGER_CELL.fullmatch(cell):
                raise ValueError(f"count {cell.strip()!r} is not a decimal integer")
        return cls(np.asarray([[int(cell) for cell in row] for row in rows], dtype=np.int64), partition)


def _finite_or_none(value: float) -> float | None:
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
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


def count_transitions(series: GammaSeries, partition: StrategyPartition | None = None) -> TransitionCounts:
    """Accumulate consecutive-pair transitions of a series into counts.

    The total over all cells equals the series length minus one.

    Raises
    ------
    ValueError
        If the series has fewer than two samples.
    """
    partition = partition or default_partition()
    if len(series) < 2:
        raise ValueError("need at least two samples to count transitions")
    states = partition.index_of(series.values)
    k = len(partition)
    flat = states[:-1] * k + states[1:]
    counts = np.bincount(flat, minlength=k * k).reshape(k, k)
    return TransitionCounts(counts, partition)


def empirical_transition_matrix(counts: TransitionCounts) -> TransitionMatrix:
    """Row-normalize counts into the maximum-likelihood transition matrix.

    A row with no observations carries no information; it becomes the
    uniform row so the result stays row-stochastic.
    """
    matrix = counts.counts.astype(float)
    row_sums = matrix.sum(axis=1, keepdims=True)
    k = matrix.shape[0]
    uniform = np.full((k, k), 1.0 / k)
    normalized = np.where(row_sums > 0, matrix / np.maximum(row_sums, 1.0), uniform)
    return TransitionMatrix(normalized, counts.labels)


def occupancy_fractions(series: GammaSeries, partition: StrategyPartition | None = None) -> StateDistribution:
    """Fraction of samples falling in each partition state."""
    partition = partition or default_partition()
    states = partition.index_of(series.values)
    k = len(partition)
    occ = np.bincount(states, minlength=k) / len(series)
    return StateDistribution(occ, partition.labels)


def occupancy_from_counts(counts: TransitionCounts, series: GammaSeries) -> StateDistribution:
    """``occupancy_fractions`` of the series ``counts`` came from: each sample but the last opens one pair."""
    occ = counts.counts.sum(axis=1)
    occ[counts.partition.index_of(series.values[-1])] += 1
    return StateDistribution(occ / len(series), counts.labels)


def log_likelihood(model: TransitionMatrix, counts: TransitionCounts) -> float:
    """Sum of count-weighted log transition probabilities.

    Cells with zero counts contribute nothing regardless of the model
    probability; an observed cell with model probability zero (or the
    rounding residue below it that ``TransitionMatrix`` admits) makes the
    whole value -inf.

    Raises
    ------
    ValueError
        If the model and counts dimensions disagree.
    """
    if model.size != counts.counts.shape[0]:
        raise ValueError("model and counts dimensions disagree")
    observed = counts.counts > 0
    theta = model.entries[observed]
    if np.any(theta <= 0.0):
        return float("-inf")
    weights = counts.counts[observed].astype(float)
    return float((weights * np.log(theta)).sum())


def relative_likelihood(model: TransitionMatrix, counts: TransitionCounts) -> float:
    """Log-likelihood gap from the empirical maximum-likelihood matrix.

    Always non-negative: zero when the model matches the empirical matrix
    on every observed cell, +inf when the model zeroes an observed cell.
    """
    best = log_likelihood(empirical_transition_matrix(counts), counts)
    return max(best - log_likelihood(model, counts), 0.0)


def score_model(name: str, model: TransitionMatrix, counts: TransitionCounts) -> LikelihoodReport:
    """Bundle the two likelihood figures for one model into a report."""
    return LikelihoodReport(
        model_name=name,
        relative_likelihood=relative_likelihood(model, counts),
        log_likelihood=log_likelihood(model, counts),
    )


def load_reference_counts(partition: StrategyPartition | None = None) -> TransitionCounts:
    """The packaged reference transition counts over the default partition."""
    text = (
        resources.files("gammachain")
        .joinpath("data", REFERENCE_COUNTS_FILE)
        .read_text(encoding="utf-8")
    )
    return TransitionCounts.from_csv(text, partition or default_partition())

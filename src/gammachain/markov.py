"""Analytical transition models over a strategy partition.

Two constructions produce row-stochastic transition matrices on the partition
states. The midpoint model weights each target interval by its length damped
by the distance between interval midpoints. The kernel model integrates a
squared-exponential similarity kernel over source and target intervals and
normalizes by the integral over the whole unit interval. A linear solver
recovers the stationary distribution of any irreducible chain.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .partition import Interval, StrategyPartition

_ROW_SUM_TOL = 1e-9
_STATIONARY_RESIDUAL_TOL = 1e-10


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class TransitionMatrix:
    """Row-stochastic matrix over partition states.

    Raises
    ------
    ValueError
        If the matrix is not square, has entries outside [0, 1], or has a
        row that does not sum to 1 within 1e-9.
    """

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        entries = _readonly(self.entries)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", tuple(self.labels))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("transition matrix must be square")
        if entries.shape[0] != len(self.labels):
            raise ValueError("label count must match matrix size")
        if np.any(entries < -1e-12) or np.any(entries > 1.0 + 1e-12):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = entries.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > _ROW_SUM_TOL):
            raise ValueError("every row must sum to 1 within 1e-9")

    def __eq__(self, other):
        if not isinstance(other, TransitionMatrix):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.entries, other.entries)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def rounded(self, decimals: int = 2) -> np.ndarray:
        return np.round(self.entries, decimals)

    def to_json_obj(self) -> dict:
        return {
            "labels": list(self.labels),
            "entries": [[_sig12(v) for v in row] for row in self.entries],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    @classmethod
    def from_json_obj(cls, obj: dict) -> "TransitionMatrix":
        return cls(np.asarray(obj["entries"], dtype=float), tuple(obj["labels"]))

    def to_csv(self) -> str:
        return "\n".join(",".join(f"{v:.12g}" for v in row) for row in self.entries) + "\n"


@dataclass(frozen=True, eq=False)
class StateDistribution:
    """Probability vector over partition states."""

    weights: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        weights = _readonly(self.weights)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", tuple(self.labels))
        if weights.ndim != 1 or weights.shape[0] != len(self.labels):
            raise ValueError("weight count must match label count")
        if np.any(weights < -1e-12) or np.any(weights > 1.0 + 1e-12):
            raise ValueError("probabilities must lie in [0, 1]")
        if abs(float(weights.sum()) - 1.0) > _ROW_SUM_TOL:
            raise ValueError("probabilities must sum to 1 within 1e-9")

    def __eq__(self, other):
        if not isinstance(other, StateDistribution):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.weights, other.weights)

    def to_json_obj(self) -> dict:
        return {
            "labels": list(self.labels),
            "weights": [_sig12(v) for v in self.weights],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2)

    def to_csv(self) -> str:
        return ",".join(f"{v:.12g}" for v in self.weights) + "\n"


@dataclass(frozen=True)
class KernelConfig:
    """Length scale of the squared-exponential kernel."""

    length_scale: float = 0.25

    def __post_init__(self):
        if not self.length_scale > 0:
            raise ValueError("length_scale must be positive")


def _sig12(value: float) -> float:
    # 12 significant digits on serialized output; full precision stays in memory
    return float(f"{float(value):.12g}")


def midpoint_distance(a, b) -> float:
    """Distance between the midpoints of two intervals in [0, 1].

    Parameters
    ----------
    a, b : Interval or (lower, upper) pair

    Raises
    ------
    ValueError
        If an interval has lower > upper or extends outside [0, 1].
    """
    ax, ay = _interval_bounds(a)
    bx, by = _interval_bounds(b)
    return abs((ax + (ay - ax) / 2.0) - (bx + (by - bx) / 2.0))


def _interval_bounds(iv) -> tuple[float, float]:
    if isinstance(iv, Interval):
        lo, hi = iv.lower, iv.upper
    else:
        lo, hi = float(iv[0]), float(iv[1])
    if lo > hi:
        raise ValueError(f"interval has lower {lo} > upper {hi}")
    if lo < 0.0 or hi > 1.0:
        raise ValueError(f"interval [{lo}, {hi}] extends outside [0, 1]")
    return lo, hi


def model1_transition_matrix(partition: StrategyPartition) -> TransitionMatrix:
    """Midpoint model: target weight is length times one minus midpoint distance.

    Entry (i, j) is length(A_j) * (1 - d(A_j, A_i)) normalized over all
    targets j, where d is the midpoint distance. On [0, 1] the distance never
    exceeds 1, so all weights are non-negative.
    """
    mids = np.asarray(partition.midpoints())
    lens = np.asarray(partition.lengths())
    dist = np.abs(mids[None, :] - mids[:, None])
    weights = lens[None, :] * (1.0 - dist)
    entries = weights / weights.sum(axis=1, keepdims=True)
    return TransitionMatrix(entries, partition.labels)


def sq_exp_kernel(x: float, y: float, config: KernelConfig = KernelConfig()) -> float:
    """Squared-exponential similarity exp(-((x - y) / l)**2 / 2)."""
    z = (x - y) / config.length_scale
    return math.exp(-0.5 * z * z)


def _erf_antiderivative(s: float) -> float:
    # E(s) = integral of erf; d/ds [s*erf(s) + exp(-s^2)/sqrt(pi)] = erf(s)
    return s * math.erf(s) + math.exp(-s * s) / math.sqrt(math.pi)


def kernel_box_integral(a: float, b: float, c: float, d: float, length_scale: float) -> float:
    """Exact integral of the squared-exponential kernel over [a, b] x [c, d].

    Integrating exp(-((x - y) / l)**2 / 2) in x over [a, b] gives a scaled
    difference of error functions in y; integrating again uses the erf
    antiderivative E(s) = s*erf(s) + exp(-s**2)/sqrt(pi), yielding
    l**2 * sqrt(pi) * (E((b-c)/h) - E((b-d)/h) - E((a-c)/h) + E((a-d)/h))
    with h = l*sqrt(2).
    """
    h = length_scale * math.sqrt(2.0)
    ee = _erf_antiderivative
    return (
        length_scale
        * length_scale
        * math.sqrt(math.pi)
        * (ee((b - c) / h) - ee((b - d) / h) - ee((a - c) / h) + ee((a - d) / h))
    )


def model2_transition_matrix(
    partition: StrategyPartition,
    config: KernelConfig = KernelConfig(),
    method: str = "closed_form",
) -> TransitionMatrix:
    """Kernel model: normalized kernel mass between source and target intervals.

    Entry (i, j) is the kernel integral over A_j x A_i divided by the
    integral over [0, 1] x A_i, so each row sums to 1 by additivity.

    Parameters
    ----------
    partition : StrategyPartition
    config : KernelConfig
        Kernel length scale, default 0.25.
    method : {"closed_form", "quadrature"}
        "closed_form" evaluates the error-function formula and is
        authoritative; "quadrature" integrates adaptively and is retained
        as an independent cross-check (absolute tolerance 1e-10).
    """
    k = len(partition)
    lo = np.asarray([iv.lower for iv in partition])
    hi = np.asarray([iv.upper for iv in partition])
    scale = config.length_scale

    if method == "closed_form":
        def integral(a, b, c, d):
            return kernel_box_integral(a, b, c, d, scale)
    elif method == "quadrature":
        # imported here: scipy.integrate costs about 0.6 s of every cold start
        from scipy.integrate import dblquad

        def integral(a, b, c, d):
            value, _ = dblquad(
                lambda x, y: sq_exp_kernel(x, y, config),
                c, d, a, b, epsabs=1e-10, epsrel=1e-10,
            )
            return value
    else:
        raise ValueError(f"unknown method {method!r}")

    entries = np.empty((k, k))
    for i in range(k):
        denom = integral(0.0, 1.0, lo[i], hi[i])
        for j in range(k):
            entries[i, j] = integral(lo[j], hi[j], lo[i], hi[i]) / denom
    return TransitionMatrix(entries, partition.labels)


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """Whether every state reaches every other under positive-probability steps.

    Computes the transitive closure of the positive-entry digraph by
    repeated boolean squaring.
    """
    reach = (matrix.entries > 0) | np.eye(matrix.size, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(matrix.size)) + 1)):
        reach = reach | (reach @ reach)
    return bool(reach.all())


def stationary_distribution(matrix: TransitionMatrix) -> StateDistribution:
    """Solve pi = pi P with sum(pi) = 1 for an irreducible chain.

    The singular balance system is closed by replacing one equation with the
    normalization constraint. The transition system has rank k - 1 for an
    irreducible chain; a larger deficiency is reported as an error rather
    than silently solved.

    Raises
    ------
    ValueError
        If the chain is not irreducible, the rank deficiency exceeds one,
        or the solution fails the residual bound 1e-10.
    """
    if not is_irreducible(matrix):
        raise ValueError(
            "chain is not irreducible: stationary distribution is not unique"
        )
    k = matrix.size
    balance = matrix.entries.T - np.eye(k)
    if np.linalg.matrix_rank(balance) < k - 1:
        raise ValueError("balance system rank deficiency exceeds one")
    system = balance.copy()
    system[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    pi = np.linalg.solve(system, rhs)
    pi = pi / pi.sum()
    residual = float(np.abs(pi @ matrix.entries - pi).max())
    if residual >= _STATIONARY_RESIDUAL_TOL:
        raise ValueError(f"stationary solve residual {residual:.3e} exceeds 1e-10")
    return StateDistribution(pi, matrix.labels)

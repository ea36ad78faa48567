"""Analytical transition models over a strategy partition.

Two constructions produce row-stochastic transition matrices on the partition
states. The midpoint model weights each target interval by its length damped
by the distance between interval midpoints. The kernel model integrates a
squared-exponential similarity kernel over source and target intervals and
normalizes by the integral over the whole unit interval. A linear solver
recovers the stationary distribution of any chain with exactly one closed
class, the one case in which it is unique; states outside that class, the
transient ones, get weight 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._frozen import ArrayEq, is_real, numbers
from .partition import StrategyPartition

_ROW_SUM_TOL = 1e-9
_STATIONARY_RESIDUAL_TOL = 1e-10


def _check_probabilities(rows: np.ndarray) -> None:
    """The probability rule, for a matrix of rows or one row: entries in [0, 1] up to a 1e-12
    rounding slack (NaN rejected), and each row summing to 1 within 1e-9."""
    if not np.all((rows >= -1e-12) & (rows <= 1.0 + 1e-12)):
        raise ValueError("probabilities must lie in [0, 1]")
    if np.any(np.abs(rows.sum(axis=-1) - 1.0) > _ROW_SUM_TOL):
        raise ValueError("probabilities must sum to 1 within 1e-9 in every row")


@dataclass(frozen=True, eq=False)
class TransitionMatrix(ArrayEq):
    """Row-stochastic matrix over partition states.

    Raises
    ------
    ValueError
        If an entry is not a real number, the matrix is not square, has entries
        outside [0, 1] (NaN included), or has a row that does not sum to 1 within 1e-9.
    """

    entries: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        entries = numbers(self.entries, "probabilities")
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", tuple(self.labels))
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise ValueError("transition matrix must be square")
        if entries.shape[0] != len(self.labels):
            raise ValueError("label count must match matrix size")
        _check_probabilities(entries)

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "entries": [[_sig12(v) for v in row] for row in self.entries]}

    def to_csv(self) -> str:
        return "\n".join(",".join(f"{v:.12g}" for v in row) for row in self.entries) + "\n"


@dataclass(frozen=True, eq=False)
class StateDistribution(ArrayEq):
    """Probability vector over partition states; ValueError unless real numbers, one per label, that
    keep the probability rule of ``TransitionMatrix`` (NaN is out of range)."""

    weights: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        weights = numbers(self.weights, "probabilities")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", tuple(self.labels))
        if weights.ndim != 1 or weights.shape[0] != len(self.labels):
            raise ValueError("weight count must match label count")
        _check_probabilities(weights)

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "weights": [_sig12(v) for v in self.weights]}

    def to_csv(self) -> str:
        return ",".join(f"{v:.12g}" for v in self.weights) + "\n"


@dataclass(frozen=True)
class KernelConfig:
    """Length scale of the squared-exponential kernel, a positive and finite real number (not a bool or text)."""

    length_scale: float = 0.25

    def __post_init__(self):
        if not is_real(self.length_scale) or not 0 < self.length_scale < math.inf:
            raise ValueError("length_scale must be positive and finite")


def _sig12(value: float) -> float:
    # 12 significant digits on serialized output; full precision stays in memory
    return float(f"{float(value):.12g}")


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
    # E(s) = s*erf(s) + (exp(-s^2) - 1)/sqrt(pi), the integral of erf from 0;
    # the constant 1/sqrt(pi) cancels in the four-term sum, and leaving it
    # out keeps the digits of small s, that is of large length scales
    return s * math.erf(s) + math.expm1(-s * s) / math.sqrt(math.pi)


def kernel_box_integral(a: float, b: float, c: float, d: float, config: KernelConfig) -> float:
    """Exact integral of the squared-exponential kernel over [a, b] x [c, d].

    Integrating exp(-((x - y) / l)**2 / 2) in x over [a, b] gives a scaled
    difference of error functions in y; integrating again uses the erf
    antiderivative E(s) = s*erf(s) + (exp(-s**2) - 1)/sqrt(pi), yielding
    l**2 * sqrt(pi) * (E((b-c)/h) - E((b-d)/h) - E((a-c)/h) + E((a-d)/h))
    with h = l*sqrt(2). The four terms cancel where the integral is near zero,
    so a result that rounds below zero is returned as zero: the integrand is
    positive.
    """
    scale = config.length_scale
    h = scale * math.sqrt(2.0)
    ee = _erf_antiderivative
    terms = ee((b - c) / h) - ee((b - d) / h) - ee((a - c) / h) + ee((a - d) / h)
    return max(0.0, scale * scale * math.sqrt(math.pi) * terms)


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
        authoritative; "quadrature" integrates adaptively with scipy, which
        it needs, and is retained as an independent cross-check (absolute
        tolerance 1e-10).
    """
    k = len(partition)
    # python floats: an overflowed scale yields inf or nan without a warning
    lo, hi = partition.bounds[:-1], partition.bounds[1:]

    if method == "closed_form":
        def integral(a, b, c, d):
            return kernel_box_integral(a, b, c, d, config)
    elif method == "quadrature":
        # imported here: scipy is only a dev dependency, and scipy.integrate
        # adds about 0.4 s to a cold start
        from scipy.integrate import nquad

        tol = {"limit": 200, "epsabs": 1e-10, "epsrel": 1e-10}

        def integral(a, b, c, d):
            # a break point at the kernel's ridge x = y keeps small length
            # scales within the subdivision limit
            def inner(y):
                return {**tol, "points": [y]} if a < y < b else tol

            value, _ = nquad(
                lambda x, y: sq_exp_kernel(x, y, config), [(a, b), (c, d)], opts=[inner, tol]
            )
            return value
    else:
        raise ValueError(f"unknown method {method!r}")

    entries = np.empty((k, k))
    for i in range(k):
        denom = integral(0.0, 1.0, lo[i], hi[i])
        if not 0.0 < denom < math.inf:
            raise ValueError(f"length_scale {config.length_scale!r} gives a row kernel mass of {denom}")
        for j in range(k):
            entries[i, j] = integral(lo[j], hi[j], lo[i], hi[i]) / denom
    return TransitionMatrix(entries, partition.labels)


def _reach(matrix: TransitionMatrix) -> np.ndarray:
    """Entry (i, j): whether state i reaches state j; the closure by repeated boolean squaring."""
    reach = (matrix.entries > 0) | np.eye(matrix.size, dtype=bool)
    for _ in range(max(1, math.ceil(math.log2(matrix.size)) + 1)):
        reach = reach | (reach @ reach)
    return reach


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """Whether every state reaches every other under positive-probability steps."""
    return bool(_reach(matrix).all())


def stationary_distribution(matrix: TransitionMatrix) -> StateDistribution:
    """Solve pi = pi P with sum(pi) = 1 on the chain's one closed class; transient states get 0.

    The closed class is the states that every state reaches (all of them
    in an irreducible chain); with none, the chain has two or more closed
    classes and no unique solution. The class's submatrix is stochastic and
    irreducible, so eigenvalue 1 is simple (Perron-Frobenius), and the
    balance system with one equation replaced by sum(pi) = 1 is nonsingular.

    Raises
    ------
    ValueError
        If the chain has more than one closed class, or the solution fails
        the residual bound 1e-10 against the full matrix.
    """
    closed = _reach(matrix).all(axis=0)
    if not closed.any():
        raise ValueError("stationary distribution is not unique: the chain has more than one closed class")
    k = int(closed.sum())
    system = matrix.entries[np.ix_(closed, closed)].T - np.eye(k)
    system[-1, :] = 1.0
    rhs = np.zeros(k)
    rhs[-1] = 1.0
    solved = np.linalg.solve(system, rhs)
    pi = np.zeros(matrix.size)
    pi[closed] = solved / solved.sum()
    residual = float(np.abs(pi @ matrix.entries - pi).max())
    if residual >= _STATIONARY_RESIDUAL_TOL:
        raise ValueError(f"stationary solve residual {residual:.3e} exceeds 1e-10")
    return StateDistribution(pi, matrix.labels)

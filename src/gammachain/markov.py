"""Analytical transition models over a strategy partition.

Two constructions produce row-stochastic transition matrices on the partition
states. The midpoint model weights each target interval by its length damped
by the distance between interval midpoints. The kernel model integrates a
squared-exponential similarity kernel over source and target intervals and
normalizes by the integral over the whole unit interval. GTH elimination
recovers the stationary distribution of any chain with exactly one closed
class, the one case in which it is unique; states outside that class, the
transient ones, get weight 0. Matrices and distributions hold Python floats
in tuples, and the module imports no numpy.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add

from ._frozen import cells, check_length_scale, frozen
from .partition import StrategyPartition

_ROW_SUM_TOL = 1e-9
_STATIONARY_RESIDUAL_TOL = 1e-10


def pairwise_sum(values) -> float:
    """Sum of a sequence of floats in numpy's pairwise order, so that it equals ``np.sum`` bit for bit.

    Below 8 values, a plain loop from 0.0; up to 128, eight running sums of
    every eighth value, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)), then
    the tail; past that, the sum of two halves summed the same way, the first
    cut to a multiple of 8.
    """
    # reduce(add), not sum(): from Python 3.12 sum() compensates float rounding, which numpy does not
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        tail = n - n % 8
        r = [reduce(add, values[j:tail:8]) for j in range(8)]
        return reduce(add, values[tail:], ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return pairwise_sum(values[:half]) + pairwise_sum(values[half:])


def _check_probabilities(rows) -> None:
    """The probability rule, for rows of probabilities: entries in [0, 1] up to a 1e-12
    rounding slack (NaN rejected), and each row summing to 1 within 1e-9."""
    if not all(-1e-12 <= p <= 1.0 + 1e-12 for row in rows for p in row):
        raise ValueError("probabilities must lie in [0, 1]")
    if any(abs(pairwise_sum(row) - 1.0) > _ROW_SUM_TOL for row in rows):
        raise ValueError("probabilities must sum to 1 within 1e-9 in every row")


@frozen
class TransitionMatrix:
    """Row-stochastic matrix over partition states: ``entries[i][j]``, a tuple of row tuples of floats.

    Raises
    ------
    ValueError
        If an entry is not a real number, the matrix has no state or is not square, has entries
        outside [0, 1] (NaN included), or has a row that does not sum to 1 within 1e-9.
    """

    entries: tuple[tuple[float, ...], ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        entries = cells(self.entries, "probabilities", rank=2)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "labels", tuple(self.labels))
        if not entries:
            raise ValueError("transition matrix must have at least one state")
        if any(len(row) != len(entries) for row in entries):
            raise ValueError("transition matrix must be square")
        if len(entries) != len(self.labels):
            raise ValueError("label count must match matrix size")
        _check_probabilities(entries)

    @property
    def size(self) -> int:
        return len(self.entries)

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "entries": [[_sig12(v) for v in row] for row in self.entries]}

    def to_csv(self) -> str:
        return "\n".join(",".join(f"{v:.12g}" for v in row) for row in self.entries) + "\n"


@frozen
class StateDistribution:
    """Probability vector over partition states, a tuple of floats; ValueError unless real numbers, one per
    label, that keep the probability rule of ``TransitionMatrix`` (NaN is out of range)."""

    weights: tuple[float, ...]
    labels: tuple[str, ...]

    def __post_init__(self):
        weights = cells(self.weights, "probabilities")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(weights) != len(self.labels):
            raise ValueError("weight count must match label count")
        _check_probabilities((weights,))

    def to_json_obj(self) -> dict:
        return {"labels": list(self.labels), "weights": [_sig12(v) for v in self.weights]}

    def to_csv(self) -> str:
        return ",".join(f"{v:.12g}" for v in self.weights) + "\n"


@frozen
class KernelConfig:
    """Length scale of the squared-exponential kernel, a positive real number (not a bool or text) below
    the float range's top."""

    length_scale: float = 0.25

    def __post_init__(self):
        check_length_scale(self.length_scale)


def _sig12(value: float) -> float:
    # 12 significant digits on serialized output; full precision stays in memory
    return float(f"{float(value):.12g}")


def model1_transition_matrix(partition: StrategyPartition) -> TransitionMatrix:
    """Midpoint model: target weight is length times one minus midpoint distance.

    Entry (i, j) is length(A_j) * (1 - d(A_j, A_i)) normalized over all
    targets j, where d is the midpoint distance. On [0, 1] the distance never
    exceeds 1, so all weights are non-negative.
    """
    mids, lens = partition.midpoints(), partition.lengths()
    weights = [[length * (1.0 - abs(mid - source)) for mid, length in zip(mids, lens)] for source in mids]
    entries = [[w / total for w in row] for row, total in zip(weights, map(pairwise_sum, weights))]
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

    entries = []
    for i in range(k):
        denom = integral(0.0, 1.0, lo[i], hi[i])
        if not 0.0 < denom < math.inf:
            raise ValueError(f"length_scale {config.length_scale!r} gives a row kernel mass of {denom}")
        entries.append([integral(lo[j], hi[j], lo[i], hi[i]) / denom for j in range(k)])
    return TransitionMatrix(entries, partition.labels)


def _reach(matrix: TransitionMatrix) -> list[set[int]]:
    """The states each state reaches, itself included: Warshall's closure of the positive entries."""
    reach = [{j for j, p in enumerate(row) if p > 0} | {i} for i, row in enumerate(matrix.entries)]
    for via, through in enumerate(reach):
        for states in reach:
            if via in states:
                states |= through
    return reach


def is_irreducible(matrix: TransitionMatrix) -> bool:
    """Whether every state reaches every other under positive-probability steps."""
    return all(len(states) == matrix.size for states in _reach(matrix))


def _gth(chain: list[list[float]]) -> list[float]:
    """Stationary weights, summing to 1, of an irreducible stochastic matrix by GTH elimination.

    States are censored out from the last: each pivot is a state's exit mass to the states before
    it, so no step subtracts, and each weight is off by a few roundings per state (O'Cinneide 1993).
    Back-substitution keeps every weight at most 1 by exact powers of two; a weight past the float
    range, as from a pivot of 0, outweighs all before it, and the weights restart there.
    """
    a, pivots = [list(row) for row in chain], [1.0] * len(chain)
    for k in reversed(range(1, len(a))):
        pivots[k] = pivot = pairwise_sum(a[k][:k])
        exits = [p / pivot for p in a[k][:k]] if pivot else [0.0] * k
        for row in a[:k]:
            row[:k] = [v + row[k] * e for v, e in zip(row, exits)]
    weights = [1.0]
    for k in range(1, len(a)):
        weight = pairwise_sum([w * row[k] for w, row in zip(weights, a)]) / pivots[k] if pivots[k] else math.inf
        shift = max(0, math.frexp(weight)[1])
        weights = [math.ldexp(w, -shift) for w in weights + [weight]] if weight < math.inf else [0.0] * k + [1.0]
    total = pairwise_sum(weights)
    return [w / total for w in weights]


def stationary_distribution(matrix: TransitionMatrix) -> StateDistribution:
    """Solve pi = pi P with sum(pi) = 1 on the chain's one closed class; transient states get 0.

    The closed class is the states that every state reaches, all of them in an irreducible chain;
    with none, the chain has two or more closed classes and no unique solution. On the class the
    chain is irreducible, and ``_gth`` solves it from the off-diagonal entries without a subtraction.

    Raises
    ------
    ValueError
        If the chain has more than one closed class, or the solution fails
        the residual bound 1e-10 against the full matrix.
    """
    entries = matrix.entries
    closed = sorted(set(range(matrix.size)).intersection(*_reach(matrix)))
    if not closed:
        raise ValueError("stationary distribution is not unique: the chain has more than one closed class")
    weights = dict(zip(closed, _gth([[entries[i][j] for j in closed] for i in closed])))
    pi = [weights.get(state, 0.0) for state in range(matrix.size)]
    residual = max(abs(pairwise_sum([p * row[j] for p, row in zip(pi, entries)]) - q) for j, q in enumerate(pi))
    if residual >= _STATIONARY_RESIDUAL_TOL:
        raise ValueError(f"stationary solve residual {residual:.3e} exceeds 1e-10")
    return StateDistribution(pi, matrix.labels)

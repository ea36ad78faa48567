"""Hot numerical kernels of the simulator: the latency update and the race.

The latency update works on the flat pair vector of a network: one weight per
unordered node pair in row-major upper-triangle order (``pair_indices``),
with the sentinel 1e7 marking an inactive link. ``entry_pairs`` maps each
off-diagonal matrix entry, row by row, to its pair; through it a pair vector
becomes a symmetric matrix (``fill_off_diagonal``).

The race reads a square matrix row by row as out-links, in plain numpy; it
needs no symmetry, and a non-negative diagonal has no effect. From each source it settles, in
one vectorised round, every pending node whose distance is at most
``bound = min(pending) + WEIGHT_FLOOR`` and relaxes all their rows at once.
Every off-diagonal weight, the sentinel included, is at least WEIGHT_FLOOR,
and float addition is monotone, so any path through a pending node costs at
least the bound: a settled node is final. The result satisfies
``d(v) = min_u fl(d(u) + w_uv)``; as fl(d + w) > d, that equation has one
solution, the one a plain dense Dijkstra computes, bit for bit. The sentinel is an ordinary
weight, so a path over an inactive link costs at least 1e7. The race stops
once the bound reaches 1e7, when every pending node below 1e7 already holds
its exact distance. Distances are clamped to the sentinel, so unreachable
nodes and nodes whose cheapest path costs at least 1e7 report exactly 1e7.

All random draws happen outside these kernels; callers pass the drawn arrays
in, which keeps the consumed random stream fixed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ._frozen import readonly

INACTIVE = 1e7
WEIGHT_FLOOR = 1.0
# finite weights must stay strictly below the sentinel
WEIGHT_CEIL = INACTIVE - 1.0


@lru_cache(maxsize=8)
def pair_indices(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of every unordered pair, in flat-vector order."""
    # row-major upper-triangle order fixes both storage and RNG draw order
    rows, cols = np.triu_indices(node_count, k=1)
    return readonly(rows, np.intp), readonly(cols, np.intp)


@lru_cache(maxsize=8)
def entry_pairs(node_count: int) -> np.ndarray:
    """Pair index of every off-diagonal matrix entry, in row-major order."""
    rows, cols = pair_indices(node_count)
    pair_of = np.empty((node_count, node_count), dtype=np.intp)
    pair_of[rows, cols] = pair_of[cols, rows] = np.arange(len(rows))
    return readonly(pair_of[~np.eye(node_count, dtype=bool)], np.intp)


def fill_off_diagonal(matrix: np.ndarray, flat: np.ndarray) -> np.ndarray:
    """Write pair values into both triangles of a C-contiguous square matrix; return it."""
    n = len(matrix)
    # the row-major buffer minus its first entry is n - 1 rows of n
    # off-diagonal entries, each followed by the next diagonal entry
    matrix.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n] = flat[entry_pairs(n)].reshape(n - 1, n)
    return matrix


def race_latencies(weights: np.ndarray, sources) -> np.ndarray:
    """Shortest latencies from each source, one row per source, capped at 1e7.

    Row ``u`` of ``weights`` holds the out-links of node ``u``; every
    off-diagonal entry, the sentinel included, is at least WEIGHT_FLOOR,
    and the diagonal may hold any non-negative value.
    """
    dist = weights[sources]
    for d, source in zip(dist, sources):
        d[source] = 0.0
        # zero for a pending node, inf once it has settled
        settled = np.zeros(len(d))
        settled[source] = np.inf
        while True:
            pending = d + settled
            bound = np.minimum.reduce(pending) + WEIGHT_FLOOR
            if bound >= INACTIVE:
                break
            batch = (pending <= bound).nonzero()[0]
            settled[batch] = np.inf
            rows = weights[batch]
            rows += d[batch, None]
            np.minimum(d, np.minimum.reduce(rows, axis=0), out=d)
    return np.minimum(dist, INACTIVE, out=dist)


def perturb_weights(
    prev: np.ndarray,
    mean: np.ndarray,
    omega_sum: np.ndarray,
    u0: np.ndarray,
    u1: np.ndarray,
    delta_t: float,
    active: np.ndarray,
) -> np.ndarray:
    """Elementwise latency update for one evolution step over flattened pairs.

    A finite link that stays active scales by (1 + delta_t * S); a finite
    link sampled inactive becomes the sentinel; an inactive link restarts
    from its regional mean scaled the same way, regardless of the sampled
    adjacency. S is a skew-normal draw built from the two standard normals
    with shape 3 * omega_sum. Finite results are clamped into
    [WEIGHT_FLOOR, WEIGHT_CEIL].
    """
    # the operations and their order are fixed by the seeded output bytes;
    # intermediates go to scratch arrays so the caller's arrays stay as passed
    alpha = np.multiply(omega_sum, 3.0)
    scratch = np.multiply(alpha, alpha)
    scratch += 1.0
    np.sqrt(scratch, out=scratch)
    delta = np.divide(alpha, scratch, out=alpha)
    factor = np.abs(u0)
    factor *= delta
    np.multiply(delta, delta, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch *= u1
    factor += scratch
    factor *= delta_t
    factor += 1.0
    prev_finite = prev < INACTIVE
    value = np.where(prev_finite, prev, mean)
    value *= factor
    np.clip(value, WEIGHT_FLOOR, WEIGHT_CEIL, out=value)
    np.putmask(value, prev_finite > active, INACTIVE)
    return value

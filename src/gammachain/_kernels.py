"""Hot numerical kernels of the simulator: the latency update and the race.

The latency update works on the flat pair vector of a network: one weight per
unordered node pair in ``np.triu_indices(n, 1)`` order, with the sentinel 1e7
marking an inactive link. ``pair_layout`` builds each pair's column and each
off-diagonal matrix entry's pair, through which a pair vector becomes a
symmetric matrix (``fill_off_diagonal``), and ``pair_ends`` reads a node
vector at each pair's two ends. A simulation builds and drops its own
layout; the one-call helpers share ``shared_layout``'s cached copies.

The race reads a square matrix row by row as out-links, in plain numpy; it
needs no symmetry, and a non-negative diagonal has no effect. From its source it settles, in
one vectorised round, every pending node whose distance is at most
``bound = min(pending) + WEIGHT_FLOOR`` and relaxes all their rows at once.
Every off-diagonal weight, the sentinel included, is at least WEIGHT_FLOOR,
and float addition is monotone, so any path through a pending node costs at
least the bound: a settled node is final. The result satisfies
``d(v) = min_u fl(d(u) + w_uv)``; as fl(d + w) > d, that equation has one
solution, the one a plain dense Dijkstra computes, bit for bit. The sentinel is an ordinary
weight, so a path over an inactive link costs at least 1e7. The race stops
at the first of two points. When a round settles the last pending nodes, it
stops before relaxing their rows: every node is then final, so those rows
can change no distance. When the bound reaches 1e7, every pending node
below 1e7 already holds its exact distance. Distances are clamped to the
sentinel, so unreachable nodes and nodes whose cheapest path costs at least
1e7 report exactly 1e7.

All random draws happen outside these kernels; callers pass the drawn arrays
in, which keeps the consumed random stream fixed. ``skew_normal`` builds the
latency update's shock, and ``network.sample_skew_normal`` draws through it.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

INACTIVE = 1e7
WEIGHT_FLOOR = 1.0
# finite weights must stay strictly below the sentinel
WEIGHT_CEIL = INACTIVE - 1.0


def pair_layout(node_count: int) -> tuple[np.ndarray, np.ndarray]:
    """``(cols, entries)``: each pair's column, in pair order, and each off-diagonal entry's pair, row by row."""
    # row-major upper-triangle order fixes both storage and RNG draw order
    upper = ~np.tri(node_count, dtype=bool)
    pair_of = np.zeros(upper.shape, dtype=np.intp)
    pair_of[upper] = np.arange(np.count_nonzero(upper))
    pair_of += pair_of.T
    layout = np.broadcast_to(np.arange(node_count), upper.shape)[upper], pair_of[~np.eye(node_count, dtype=bool)]
    for table in layout:
        table.setflags(write=False)
    return layout


shared_layout = lru_cache(maxsize=8)(pair_layout)


def pair_ends(values: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``values`` at each pair's two ends, in pair order: its row (n - 1 zeros, n - 2 ones, ...) and its column."""
    return np.repeat(values[:-1], np.arange(len(values) - 1, 0, -1)), values[cols]


def fill_off_diagonal(matrix: np.ndarray, flat: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """Write pair values into both triangles of a C-contiguous square matrix through ``entries``; return it."""
    n = len(matrix)
    # the row-major buffer minus its first entry is n - 1 rows of n
    # off-diagonal entries, each followed by the next diagonal entry
    matrix.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n] = flat[entries].reshape(n - 1, n)
    return matrix


def race_latencies(weights: np.ndarray, source: int) -> np.ndarray:
    """Shortest latencies from ``source`` as one row, capped at 1e7.

    Row ``u`` of ``weights`` holds the out-links of node ``u``; every
    off-diagonal entry, the sentinel included, is at least WEIGHT_FLOOR,
    and the diagonal may hold any non-negative value. A race reads the
    source's row, then the rows of each settle round but the last: the
    round that settles the last pending nodes leaves their rows unread, and
    a bound of 1e7 ends the race with unreachable nodes still pending.
    """
    # a copy, never a view: the race writes into it
    d = weights[source].copy()
    d[source] = 0.0
    # zero for a pending node, inf once it has settled
    settled = np.zeros(len(d))
    settled[source] = np.inf
    left = len(d) - 1
    while True:
        pending = d + settled
        bound = np.minimum.reduce(pending) + WEIGHT_FLOOR
        if bound >= INACTIVE:
            break
        batch = (pending <= bound).nonzero()[0]
        left -= len(batch)
        if not left:
            break
        settled[batch] = np.inf
        rows = weights[batch]
        rows += d[batch, None]
        np.minimum(d, np.minimum.reduce(rows, axis=0), out=d)
    return np.minimum(d, INACTIVE, out=d)


def skew_normal(alpha: np.ndarray, u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Skew-normal draws of shape ``alpha`` from standard normals; ``alpha`` is overwritten.

    With delta = alpha / sqrt(1 + alpha**2), a draw is
    delta * |u0| + sqrt(1 - delta**2) * u1.
    """
    # the operations and their order are fixed by the seeded output bytes
    scratch = np.multiply(alpha, alpha)
    scratch += 1.0
    np.sqrt(scratch, out=scratch)
    delta = np.divide(alpha, scratch, out=alpha)
    draw = np.abs(u0)
    draw *= delta
    np.multiply(delta, delta, out=scratch)
    np.subtract(1.0, scratch, out=scratch)
    np.sqrt(scratch, out=scratch)
    scratch *= u1
    draw += scratch
    return draw


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
    adjacency. S is the ``skew_normal`` draw of the two standard normals
    with shape 3 * omega_sum. Finite results are clamped into
    [WEIGHT_FLOOR, WEIGHT_CEIL].
    """
    # skew_normal overwrites its shape array, so it gets a fresh one: the caller's arrays stay as passed
    factor = skew_normal(np.multiply(omega_sum, 3.0), u0, u1)
    factor *= delta_t
    factor += 1.0
    prev_finite = prev < INACTIVE
    value = np.where(prev_finite, prev, mean)
    value *= factor
    np.clip(value, WEIGHT_FLOOR, WEIGHT_CEIL, out=value)
    np.putmask(value, prev_finite > active, INACTIVE)
    return value

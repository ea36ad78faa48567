"""Small construction helpers, the race, perturbation and simulation references
and the child-interpreter environment shared across test modules."""

import os
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import gammachain
from gammachain._kernels import INACTIVE, WEIGHT_CEIL, WEIGHT_FLOOR
from gammachain.network import NetworkState
from gammachain.partition import StrategyPartition


# sha256 of the seed-3 gamma values over ``np.arange(steps)`` on the default layout scaled to ``nodes``, by
# ``(nodes, steps)``; the CPU-path test checks the 500- and the 40-step pin under other BLAS and SIMD paths
SEED3_DIGESTS = {
    (100, 500): "d260d3269b9e3a9204b2166a10819ef9c7696b84f546c67b9340f7de50ff3db9",
    (100, 5000): "ed1fb806d230a8a2ee073f56b03b17184c4241adbe09e5dee90f95d33b3dd6f1",
    (400, 40): "b48429cdc87c75c1406bd8c65e0b5f1f17497e24d2dbfdaf9966c103f9c774be",
}


def make_partition(boundaries):
    return StrategyPartition(boundaries, tuple(f"S{i}" for i in range(len(boundaries) - 1)))


def state_of(matrix):
    """The ``NetworkState`` of a symmetric weight matrix, every node in region 0.

    The state keeps the upper triangle; its ``weights`` are ``matrix`` with a zero diagonal.
    """
    matrix = np.asarray(matrix, dtype=float)
    assert np.array_equal(matrix, matrix.T), "weight matrix must be symmetric"
    n = len(matrix)
    return NetworkState(matrix[np.triu_indices(n, 1)], np.zeros(n, dtype=np.int64))


def grid_partitions(max_cuts=5):
    """Random contiguous partitions with boundaries on a 1/1000 grid."""
    return (
        st.lists(
            st.integers(min_value=1, max_value=999),
            min_size=1,
            max_size=max_cuts,
            unique=True,
        )
        .map(lambda cuts: [0.0] + sorted(c / 1000 for c in cuts) + [1.0])
        .map(make_partition)
    )


def exact_stationary(matrix):
    """The stationary distribution, in ``Fraction``s, of the chain that ``matrix``'s off-diagonal entries give.

    Each diagonal entry is taken as 1 minus the rest of its row, exactly, so the balance equations
    are exactly dependent and the solution does not hang on which one gives way to sum(pi) = 1.
    They are solved by Gauss-Jordan elimination on the closed class, the states that every state
    reaches (found by Warshall's closure of the positive entries); the other states get 0.
    """
    entries = [[Fraction(p) for p in row] for row in matrix.entries]
    k = len(entries)
    reach = [{j for j, p in enumerate(row) if p > 0} | {i} for i, row in enumerate(entries)]
    for via in range(k):
        for states in reach:
            if via in states:
                states |= reach[via]
    closed = [j for j in range(k) if all(j in states for states in reach)]
    # column j of the balance system: inflow to j minus outflow of j; the last row is sum(pi) = 1
    rows = [
        [entries[i][j] if i != j else -sum(entries[j][m] for m in closed if m != j) for i in closed] + [Fraction(0)]
        for j in closed[:-1]
    ] + [[Fraction(1)] * (len(closed) + 1)]
    for col in range(len(closed)):
        top = next(r for r in range(col, len(rows)) if rows[r][col] != 0)
        rows[col], rows[top] = rows[top], rows[col]
        rows[col] = [v / rows[col][col] for v in rows[col]]
        for r, row in enumerate(rows):
            if r != col and row[col] != 0:
                rows[r] = [v - row[col] * w for v, w in zip(row, rows[col])]
    pi = [Fraction(0)] * k
    for state, row in zip(closed, rows):
        pi[state] = row[-1]
    return pi


def dijkstra_numpy(weights, source):
    """Reference single-source shortest latencies on a dense weight matrix.

    A plain O(V^2) Dijkstra, kept as the oracle for the simulator's race.
    Distances start at the sentinel and only strict improvements below it
    are recorded, so unreachable nodes and nodes whose best path costs at
    least 1e7 both report exactly 1e7. Sentinel-valued edges never relax.
    """
    n = weights.shape[0]
    dist = np.full(n, INACTIVE)
    dist[source] = 0.0
    visited = np.zeros(n, dtype=bool)
    for _ in range(n):
        masked = np.where(visited, np.inf, dist)
        u = int(np.argmin(masked))
        if masked[u] >= INACTIVE:
            # every remaining node is unreachable below the sentinel
            break
        visited[u] = True
        row = weights[u]
        candidate = dist[u] + row
        better = (row < INACTIVE) & ~visited & (candidate < dist)
        dist[better] = candidate[better]
    return dist


def perturb_reference(prev, mean, omega_sum, u0, u1, delta_t, active):
    """Reference latency update, written as one expression per quantity.

    ``_kernels.perturb_weights`` must match it bit for bit: same operations,
    and every product and sum pairs the same two operands.
    """
    alpha = 3.0 * omega_sum
    delta = alpha / np.sqrt(1.0 + alpha * alpha)
    factor = 1.0 + delta_t * (delta * np.abs(u0) + np.sqrt(1.0 - delta * delta) * u1)
    finite = prev < INACTIVE
    value = np.clip(np.where(finite, prev, mean) * factor, WEIGHT_FLOOR, WEIGHT_CEIL)
    return np.where(finite & ~active, INACTIVE, value)


def reference(times, seed, config, dropout, activation):
    """The simulation loop written out plainly: ``(gamma values, pair vector after each step)``.

    An independent statement of the model to check the loop against byte for
    byte. It calls no function of ``network`` or ``_kernels``: matrices are
    filled through ``np.triu_indices``, the shock is ``perturb_reference`` and
    both races are ``dijkstra_numpy``. It draws in the order of ``network``'s
    module docstring: the initial drop and Pareto uniforms, then per step the
    link uniforms and two normal blocks (not before the first race), then the
    node pair. A generator passed as ``seed`` is consumed in place.
    """
    rng = np.random.default_rng(seed)
    region_of = np.repeat(np.arange(len(config.node_counts)), config.node_counts)
    n = len(region_of)
    rows, cols = np.triu_indices(n, k=1)
    means = np.asarray(config.mean_latency)[region_of[rows], region_of[cols]]
    drop, pareto = rng.random(len(means)), rng.random(len(means))
    drawn = np.clip((means - 5.0) / pareto ** (1.0 / (0.2 * means)), WEIGHT_FLOOR, WEIGHT_CEIL)
    flat = np.where(drop < dropout, INACTIVE, drawn)
    adjacency, weights = np.eye(n), np.zeros((n, n))
    values, flats = [], []
    for step in range(len(times)):
        if step:
            active = rng.random(len(means)) < activation
            u0, u1 = rng.standard_normal(len(means)), rng.standard_normal(len(means))
            adjacency[rows, cols] = adjacency[cols, rows] = active
            # power iteration from uniform: at most 50 products, until the L1 change is below n * 1e-5
            omega = np.full(n, 1.0 / n)
            for _ in range(50):
                previous, omega = omega, adjacency @ omega
                omega = omega / np.sqrt(np.sum(omega * omega))
                if np.sum(np.abs(omega - previous)) < n * 1e-5:
                    break
            delta_t = times[step] - times[step - 1]
            flat = perturb_reference(flat, means, omega[rows] + omega[cols], u0, u1, delta_t, active)
            flats.append(flat)
        attacker, honest = int(rng.integers(0, n)), int(rng.integers(0, n))
        while honest == attacker:
            honest = int(rng.integers(0, n))
        weights[rows, cols] = weights[cols, rows] = flat
        closer = dijkstra_numpy(weights, attacker) < dijkstra_numpy(weights, honest)
        closer[[attacker, honest]] = False
        values.append(np.count_nonzero(closer) / n)
    return np.array(values), flats


def write_file(tmp_path, text, name="input.csv"):
    """Write ``text`` verbatim (no newline translation) to ``tmp_path / name``; return the path."""
    path = tmp_path / name
    path.write_text(text, encoding="utf-8", newline="")
    return path


def subprocess_env():
    """A copy of the caller's environment for a child interpreter.

    The directory holding the imported ``gammachain`` package goes first on
    ``PYTHONPATH``, so the child imports the same source as the test process
    whether or not the package is installed.
    """
    env = dict(os.environ)
    package_root = str(Path(gammachain.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env

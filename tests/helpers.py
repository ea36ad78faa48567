"""Small construction helpers, the race and perturbation references and the
child-interpreter environment shared across test modules."""

import os
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

import gammachain
from gammachain._kernels import INACTIVE, WEIGHT_CEIL, WEIGHT_FLOOR
from gammachain.partition import Interval, StrategyPartition


def make_partition(boundaries):
    return StrategyPartition(
        tuple(
            Interval(boundaries[i], boundaries[i + 1], f"S{i}")
            for i in range(len(boundaries) - 1)
        )
    )


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

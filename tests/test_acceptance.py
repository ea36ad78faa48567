"""Acceptance gate: ten numbered criteria, one verdict line each.

Every test prints "criterion N: PASS" or "criterion N: FAIL (...)" before
asserting, so a verbose pytest run shows one verdict per criterion.  The
reference matrices and distributions below are frozen published values and
must not be regenerated from the code under test.
"""

import math
import time

import numpy as np

from gammachain.inference import (
    count_transitions,
    empirical_transition_matrix,
    load_reference_counts,
    log_likelihood,
    occupancy_fractions,
    relative_likelihood,
)
from gammachain.markov import (
    KernelConfig,
    TransitionMatrix,
    model1_transition_matrix,
    model2_transition_matrix,
    stationary_distribution,
)
from gammachain.network import (
    INACTIVE,
    eigenvector_centrality,
    sample_skew_normal,
    shortest_latencies,
    simulate_gamma_series,
)
from gammachain.partition import default_partition
from helpers import make_partition, state_of

P1 = np.array(
    [
        [0.81, 0.06, 0.00, 0.13],
        [0.59, 0.12, 0.01, 0.28],
        [0.57, 0.12, 0.00, 0.31],
        [0.50, 0.11, 0.00, 0.39],
    ]
)
P2 = np.array(
    [
        [0.84, 0.07, 0.000, 0.090],
        [0.50, 0.15, 0.002, 0.348],
        [0.43, 0.16, 0.002, 0.408],
        [0.32, 0.158, 0.002, 0.520],
    ]
)
P3 = np.array(
    [
        [0.77, 0.050, 0.000, 0.18],
        [0.83, 0.036, 0.004, 0.13],
        [0.53, 0.070, 0.000, 0.40],
        [0.79, 0.050, 0.000, 0.16],
    ]
)
PI1 = np.array([0.73, 0.08, 0.00, 0.19])
PI2 = np.array([0.70, 0.10, 0.00, 0.20])
PI3 = np.array([0.78, 0.05, 0.00, 0.17])
PUBLISHED_RL = {"model1": 157.0, "model2": 512.0}


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else f'FAIL ({detail})'}")
    assert ok, f"{label}: {detail}"


def test_criterion_01_model1_matches_published_matrix():
    start = time.perf_counter()
    matrix = model1_transition_matrix(default_partition())
    elapsed = time.perf_counter() - start
    err = np.abs(matrix.entries - P1).max()
    _verdict(
        "criterion 1",
        err <= 0.01 and elapsed < 1.0,
        f"max entry error {err:.5f}, build time {elapsed:.3f}s",
    )


def test_criterion_02_model1_stationary():
    pi = stationary_distribution(model1_transition_matrix(default_partition()))
    err = np.abs(pi.weights - PI1).max()
    _verdict("criterion 2", err <= 0.01, f"max entry error {err:.5f}")


def test_criterion_03_model2_matches_published_matrix():
    partition = default_partition()
    closed = model2_transition_matrix(partition, KernelConfig(0.25))
    quad = model2_transition_matrix(partition, KernelConfig(0.25), method="quadrature")
    route_gap = np.abs(np.subtract(closed.entries, quad.entries)).max()
    errors = np.abs(closed.entries - P2)
    worst = tuple(int(i) for i in np.unravel_index(errors.argmax(), errors.shape))
    _verdict(
        "criterion 3",
        errors.max() <= 0.01 and route_gap <= 1e-7,
        f"max entry error {errors.max():.5f} at {worst} "
        f"(computed {closed.entries[worst[0]][worst[1]]:.6f} vs published {P2[worst]}), "
        f"closed-form/quadrature gap {route_gap:.2e}",
    )


def test_criterion_04_model2_stationary():
    pi = stationary_distribution(model2_transition_matrix(default_partition()))
    err = np.abs(pi.weights - PI2).max()
    _verdict("criterion 4", err <= 0.05, f"max entry error {err:.5f}")


def test_criterion_05_empirical_fixture_matrix_and_stationary():
    counts = load_reference_counts()
    empirical = empirical_transition_matrix(counts)
    matrix_err = np.abs(empirical.entries - P3).max()
    pi_err = np.abs(stationary_distribution(empirical).weights - PI3).max()
    _verdict(
        "criterion 5",
        matrix_err <= 0.01 and pi_err <= 0.01,
        f"matrix error {matrix_err:.5f}, stationary error {pi_err:.5f}",
    )


def test_criterion_06_likelihood_table():
    counts = load_reference_counts()
    partition = default_partition()
    start = time.perf_counter()
    rl1 = relative_likelihood(model1_transition_matrix(partition), counts)
    rl2 = relative_likelihood(model2_transition_matrix(partition), counts)
    elapsed = time.perf_counter() - start
    within = (
        abs(rl1 - PUBLISHED_RL["model1"]) <= 0.2 * PUBLISHED_RL["model1"]
        and abs(rl2 - PUBLISHED_RL["model2"]) <= 0.2 * PUBLISHED_RL["model2"]
    )
    _verdict(
        "criterion 6",
        within and rl1 < rl2 and elapsed < 1.0,
        f"computed RL ({rl1:.2f}, {rl2:.2f}) vs published "
        f"({PUBLISHED_RL['model1']:.0f}, {PUBLISHED_RL['model2']:.0f}) at 20% "
        f"tolerance, ordering model1<model2 {rl1 < rl2}, time {elapsed:.3f}s",
    )


def test_criterion_07_simulation_properties():
    partition = default_partition()
    schedule = np.arange(5000, dtype=float)
    problems = []
    first = None
    for seed in range(5):
        start = time.perf_counter()
        series = simulate_gamma_series(schedule, seed=seed)
        elapsed = time.perf_counter() - start
        if seed == 0:
            first = series
        values = series.values
        if not ((values >= 0.0) & (values <= 0.98)).all():
            problems.append(f"seed {seed} gamma outside [0, 0.98]")
        total = count_transitions(series, partition).total
        if total != 4999:
            problems.append(f"seed {seed} counted {total} transitions")
        hm = occupancy_fractions(series, partition).weights[0]
        if hm <= 0.5:
            problems.append(f"seed {seed} HM occupancy {hm:.3f}")
        if elapsed >= 600.0:
            problems.append(f"seed {seed} took {elapsed:.0f}s")
    replay = simulate_gamma_series(schedule, seed=0)
    if not np.array_equal(replay.values, first.values):
        problems.append("seed 0 replay diverged")
    _verdict("criterion 7", not problems, "; ".join(problems))


def _mirrored_partition(gen, equal_lengths):
    center = gen.uniform(0.35, 0.65)
    half_width = gen.uniform(0.005, 0.02)
    if equal_lengths:
        length = gen.uniform(0.02, 0.09)
        lengths = (length, length)
        near = gen.uniform(0.1, 0.22)
        distances = (near, near + gen.uniform(0.01, 0.05))
    else:
        distance = gen.uniform(0.1, 0.22)
        distances = (distance, distance)
        short = gen.uniform(0.02, 0.09)
        long = short + gen.uniform(0.005, 0.03)
        lengths = (long, short) if gen.random() < 0.5 else (short, long)
    bounds = [
        0.0,
        center - distances[0] - lengths[0] / 2,
        center - distances[0] + lengths[0] / 2,
        center - half_width,
        center + half_width,
        center + distances[1] - lengths[1] / 2,
        center + distances[1] + lengths[1] / 2,
        1.0,
    ]
    return make_partition(bounds), lengths, distances


def test_criterion_08_monotonicity_suite():
    gen = np.random.default_rng(4242)
    problems = []

    for trial in range(1000):
        k = int(gen.integers(3, 7))
        bounds = np.concatenate(
            [[0.0], np.sort(gen.uniform(0.02, 0.98, size=k - 1)), [1.0]]
        )
        pair = int(gen.integers(0, k - 1))
        bounds[pair + 1] = (bounds[pair] + bounds[pair + 2]) / 2
        partition = make_partition(bounds.tolist())
        entries = np.array(model1_transition_matrix(partition).entries)
        mids = np.array(partition.midpoints())
        for row in range(k):
            d_left = abs(mids[pair] - mids[row])
            d_right = abs(mids[pair + 1] - mids[row])
            if abs(d_left - d_right) <= 1e-12:
                continue
            near, far = (pair, pair + 1) if d_left < d_right else (pair + 1, pair)
            if entries[row, far] > entries[row, near] + 1e-12:
                problems.append(
                    f"model1 equal-length trial {trial} row {row}: farther "
                    f"interval got {entries[row, far]:.6f} > {entries[row, near]:.6f}"
                )

    for trial in range(1000):
        partition, lengths, _ = _mirrored_partition(gen, equal_lengths=False)
        long_side, short_side = (1, 5) if lengths[0] > lengths[1] else (5, 1)
        for name, matrix in (
            ("model1", model1_transition_matrix(partition)),
            ("model2", model2_transition_matrix(partition)),
        ):
            row = matrix.entries[3]
            if row[long_side] <= row[short_side]:
                problems.append(
                    f"{name} equal-distance trial {trial}: longer interval got "
                    f"{row[long_side]:.6f} <= {row[short_side]:.6f}"
                )

    for trial in range(1000):
        partition, _, _ = _mirrored_partition(gen, equal_lengths=True)
        for name, matrix in (
            ("model1", model1_transition_matrix(partition)),
            ("model2", model2_transition_matrix(partition)),
        ):
            row = matrix.entries[3]
            if row[1] <= row[5]:
                problems.append(
                    f"{name} closer-midpoint trial {trial}: nearer interval got "
                    f"{row[1]:.6f} <= {row[5]:.6f}"
                )

    _verdict("criterion 8", not problems, "; ".join(problems[:3]))


def _enumerate_shortest(weights, source):
    n = weights.shape[0]
    best = np.full(n, INACTIVE)
    best[source] = 0.0
    on_path = [False] * n

    def extend(node, dist):
        for nxt in range(n):
            w = weights[node, nxt]
            if nxt == node or on_path[nxt] or w == INACTIVE:
                continue
            reached = dist + w
            if reached < best[nxt]:
                best[nxt] = reached
            on_path[nxt] = True
            extend(nxt, reached)
            on_path[nxt] = False

    on_path[source] = True
    extend(source, 0.0)
    return best


def _random_state(gen, size, inactive_fraction):
    upper = np.triu(gen.uniform(1.0, 90.0, (size, size)), k=1)
    mask = np.triu(gen.random((size, size)) < inactive_fraction, k=1)
    upper[mask] = INACTIVE
    return state_of(upper + upper.T)


def test_criterion_09_oracle_equivalences():
    problems = []

    gen = np.random.default_rng(515)
    for trial in range(200):
        state = _random_state(gen, 8, 0.35)
        source = trial % 8
        fast = shortest_latencies(state, source)
        slow = _enumerate_shortest(state.weights, source)
        if not np.array_equal(fast, slow):
            problems.append(f"dijkstra trial {trial} disagrees with enumeration")

    solved = 0
    while solved < 50:
        state = _random_state(gen, 6, 0.4)
        adjacency = (state.weights < INACTIVE).astype(float)
        np.fill_diagonal(adjacency, 0.0)
        reach = np.linalg.matrix_power(adjacency + np.eye(6), 6)
        if not (reach > 0).all():
            continue
        solved += 1
        scores = eigenvector_centrality(state)
        eigvals, eigvecs = np.linalg.eigh(adjacency + np.eye(6))
        dominant = np.abs(eigvecs[:, np.argmax(eigvals)])
        dominant /= np.linalg.norm(dominant)
        gap = np.abs(scores - dominant).max()
        if gap > 1e-3:
            problems.append(f"centrality instance {solved} off by {gap:.2e}")

    sampler_gen = np.random.default_rng(2718)
    for alpha in (0.0, 3.0, 10.0):
        draws = np.fromiter(
            (sample_skew_normal(alpha, sampler_gen) for _ in range(100000)),
            dtype=float,
        )
        delta = alpha / math.sqrt(1.0 + alpha * alpha)
        expected = delta * math.sqrt(2.0 / math.pi)
        if abs(draws.mean() - expected) > 0.01:
            problems.append(
                f"skew-normal mean at shape {alpha}: {draws.mean():.4f} "
                f"vs {expected:.4f}"
            )

    two_state = make_partition([0.0, 0.5, 1.0])
    raw = np.array([[30, 10], [5, 55]], dtype=np.int64)
    from gammachain.inference import TransitionCounts

    counts = TransitionCounts(raw, two_state)
    empirical = empirical_transition_matrix(counts)
    best = log_likelihood(empirical, counts)
    grid = np.linspace(0.0, 1.0, 1001)
    with np.errstate(divide="ignore", invalid="ignore"):
        row0 = 30 * np.log(grid) + 10 * np.log(1.0 - grid)
        row1 = 5 * np.log(grid) + 55 * np.log(1.0 - grid)
    row0 = np.nan_to_num(row0, nan=-np.inf)
    row1 = np.nan_to_num(row1, nan=-np.inf)
    if row0.max() + row1.max() > best + 1e-9:
        problems.append("grid search beat the empirical matrix")
    if abs(grid[np.argmax(row0)] - 0.75) > 1e-3 + 1e-12:
        problems.append("grid argmax for row 0 away from the empirical rate")
    if abs(grid[np.argmax(row1)] - 5 / 60) > 1e-3 + 1e-12:
        problems.append("grid argmax for row 1 away from the empirical rate")

    _verdict("criterion 9", not problems, "; ".join(problems[:3]))


def test_criterion_10_stationary_solver_residuals():
    partition = default_partition()
    chains = [
        model1_transition_matrix(partition),
        model2_transition_matrix(partition),
        empirical_transition_matrix(load_reference_counts()),
    ]
    gen = np.random.default_rng(616)
    for _ in range(50):
        size = int(gen.integers(2, 9))
        entries = gen.uniform(0.05, 1.0, (size, size))
        entries /= entries.sum(axis=1, keepdims=True)
        labels = tuple(f"S{i}" for i in range(size))
        chains.append(TransitionMatrix(entries, labels))

    worst_residual = 0.0
    worst_sum = 0.0
    for chain in chains:
        pi = np.array(stationary_distribution(chain).weights)
        residual = np.abs(pi @ chain.entries - pi).max()
        worst_residual = max(worst_residual, residual)
        worst_sum = max(worst_sum, abs(float(pi.sum()) - 1.0))
    _verdict(
        "criterion 10",
        worst_residual < 1e-10 and worst_sum <= 1e-12,
        f"worst residual {worst_residual:.2e}, worst sum error {worst_sum:.2e}",
    )

"""The simulator kernels: the radius-batched numpy race against a dense
Dijkstra oracle, the pair-vector expansion, and the latency update."""

import numpy as np
import pytest

from gammachain._kernels import (
    INACTIVE,
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    fill_off_diagonal,
    pair_layout,
    perturb_weights,
    race_latencies,
)
from gammachain.network import (
    default_region_config,
    evolve_network,
    gamma_of,
    init_network,
    sample_skew_normal,
    shortest_latencies,
)

from helpers import dijkstra_numpy, perturb_reference, state_of


def random_weight_matrix(rng, size, inactive_fraction):
    weights = np.zeros((size, size))
    iu, ju = np.triu_indices(size, 1)
    vals = rng.uniform(1.0, 300.0, iu.size)
    vals[rng.random(iu.size) < inactive_fraction] = INACTIVE
    weights[iu, ju] = vals
    weights[ju, iu] = vals
    return weights


class TestDijkstraNumpy:
    def test_source_distance_zero(self, rng):
        weights = random_weight_matrix(rng, 6, 0.2)
        assert dijkstra_numpy(weights, 2)[2] == 0.0

    def test_unreachable_reported_as_sentinel(self):
        weights = np.full((4, 4), INACTIVE)
        np.fill_diagonal(weights, 0.0)
        dist = dijkstra_numpy(weights, 0)
        assert dist[0] == 0.0
        assert (dist[1:] == INACTIVE).all()

    def test_indirect_route_wins(self):
        weights = np.array(
            [
                [0.0, 10.0, 3.0],
                [10.0, 0.0, 4.0],
                [3.0, 4.0, 0.0],
            ]
        )
        assert dijkstra_numpy(weights, 0).tolist() == [0.0, 7.0, 3.0]

    def test_sentinel_edge_never_traversed(self):
        # a "cheap" route through an inactive link must not exist
        weights = np.array(
            [
                [0.0, INACTIVE, 5.0],
                [INACTIVE, 0.0, 5.0],
                [5.0, 5.0, 0.0],
            ]
        )
        assert dijkstra_numpy(weights, 0)[1] == 10.0


def assert_race_matches_oracle(state, attacker, honest):
    nodes = state.node_count
    dist_attacker = dijkstra_numpy(state.weights, attacker)
    dist_honest = dijkstra_numpy(state.weights, honest)
    assert np.array_equal(shortest_latencies(state, attacker), dist_attacker)
    assert np.array_equal(shortest_latencies(state, honest), dist_honest)
    others = np.ones(nodes, dtype=bool)
    others[[attacker, honest]] = False
    closer = int((dist_attacker[others] < dist_honest[others]).sum())
    assert gamma_of(state, attacker, honest) == closer / nodes


class TestRaceMatchesOracle:
    @pytest.mark.parametrize("nodes", [100, 400])
    def test_evolved_states_bit_for_bit(self, nodes):
        config = default_region_config().scaled_to(nodes)
        gen = np.random.default_rng(nodes)
        state = init_network(config, seed=gen)
        for _ in range(30):
            state = evolve_network(state, float(gen.uniform(0.1, 2.0)), config, seed=gen)
            attacker, honest = (int(v) for v in gen.choice(nodes, 2, replace=False))
            assert_race_matches_oracle(state, attacker, honest)

    @pytest.mark.parametrize("nodes", [100, 400])
    def test_slow_drift_sparse_states_bit_for_bit(self, nodes):
        # few active links and small shocks keep the Pareto spread of the
        # initial draw, so each race needs many settle rounds
        config = default_region_config().scaled_to(nodes)
        gen = np.random.default_rng(nodes + 1)
        state = init_network(config, dropout=0.6, seed=gen)
        for _ in range(20):
            state = evolve_network(state, 0.05, config, activation=0.3, seed=gen)
            attacker, honest = (int(v) for v in gen.choice(nodes, 2, replace=False))
            assert_race_matches_oracle(state, attacker, honest)

    def test_heavy_route_below_sentinel_is_exact(self):
        # two 4e6 links beat a direct WEIGHT_CEIL link: distances far above
        # any simulated latency, but below the sentinel, still settle exactly
        weights = np.array(
            [
                [0.0, 4e6, WEIGHT_CEIL],
                [4e6, 0.0, 4e6],
                [WEIGHT_CEIL, 4e6, 0.0],
            ]
        )
        state = state_of(weights)
        assert shortest_latencies(state, 0).tolist() == [0.0, 4e6, 8e6]
        assert np.array_equal(shortest_latencies(state, 0), dijkstra_numpy(weights, 0))

    def test_node_with_every_link_inactive(self, rng):
        weights = random_weight_matrix(rng, 12, 0.3)
        weights[4, :] = weights[:, 4] = INACTIVE
        weights[4, 4] = 0.0
        state = state_of(weights)
        isolated = shortest_latencies(state, 4)
        assert isolated[4] == 0.0
        assert (np.delete(isolated, 4) == INACTIVE).all()
        assert shortest_latencies(state, 0)[4] == INACTIVE
        # no node is strictly closer to an isolated attacker
        assert gamma_of(state, 4, 0) == 0.0
        assert_race_matches_oracle(state, 4, 0)

    def test_near_unit_weights_with_mass_ties(self, rng):
        # eleven distinct weights in [1.0, 1.001]: many exact path-cost ties,
        # and most of the graph settles in the same round
        size = 60
        weights = random_weight_matrix(rng, size, 0.3)
        active = weights < INACTIVE
        grid = 1.0 + rng.integers(0, 11, weights.shape) * 1e-4
        weights[active] = np.minimum(grid, grid.T)[active]
        np.fill_diagonal(weights, 0.0)
        state = state_of(weights)
        for source in range(size):
            assert np.array_equal(shortest_latencies(state, source), dijkstra_numpy(weights, source))

    def test_random_matrices_bit_for_bit(self, rng):
        for _ in range(40):
            size = int(rng.integers(1, 30))
            weights = random_weight_matrix(rng, size, float(rng.uniform(0.0, 0.8)))
            state = state_of(weights)
            source = int(rng.integers(size))
            assert np.array_equal(shortest_latencies(state, source), dijkstra_numpy(weights, source))

    def test_two_ceiling_links_clamp_to_sentinel(self):
        # the only route from 0 to 2 costs 2 * WEIGHT_CEIL, above the sentinel
        weights = np.array(
            [
                [0.0, WEIGHT_CEIL, INACTIVE],
                [WEIGHT_CEIL, 0.0, WEIGHT_CEIL],
                [INACTIVE, WEIGHT_CEIL, 0.0],
            ]
        )
        state = state_of(weights)
        dist = shortest_latencies(state, 0)
        assert dist.tolist() == [0.0, WEIGHT_CEIL, INACTIVE]
        assert np.array_equal(dist, dijkstra_numpy(weights, 0))

    def test_stops_with_a_pending_node_below_sentinel(self):
        # from node 0 the settle bound is WEIGHT_CEIL + WEIGHT_FLOOR = 1e7 in
        # the first round, so the race stops with node 1 still pending below 1e7
        weights = np.array(
            [
                [0.0, WEIGHT_CEIL, INACTIVE],
                [WEIGHT_CEIL, 0.0, INACTIVE],
                [INACTIVE, INACTIVE, 0.0],
            ]
        )
        state = state_of(weights)
        assert shortest_latencies(state, 0).tolist() == [0.0, WEIGHT_CEIL, INACTIVE]
        for source in range(3):
            assert np.array_equal(shortest_latencies(state, source), dijkstra_numpy(weights, source))


class RowCounter:
    """Weights that record how many rows each index into them reads."""

    def __init__(self, weights):
        self.weights = weights
        self.reads = []

    def __getitem__(self, index):
        rows = self.weights[index]
        # an integer index reads one row
        self.reads.append(1 if np.ndim(index) == 0 else len(rows))
        return rows


def relaxed_rows(weights, source):
    """Distances from ``source`` and the rows the race relaxes after its initial source row."""
    counter = RowCounter(weights)
    dist = race_latencies(counter, source)
    assert counter.reads[0] == 1
    return dist, sum(counter.reads[1:])


def floor_graph(size, links):
    weights = np.full((size, size), INACTIVE)
    np.fill_diagonal(weights, 0.0)
    for u, v in links:
        weights[u, v] = weights[v, u] = WEIGHT_FLOOR
    return weights


class TestRaceStopRule:
    @pytest.mark.parametrize("size", [2, 3, 9])
    def test_path_skips_the_last_row(self, size):
        weights = floor_graph(size, [(u, u + 1) for u in range(size - 1)])
        dist, rows = relaxed_rows(weights, 0)
        assert dist.tolist() == [float(u) for u in range(size)]
        assert rows == size - 2

    @pytest.mark.parametrize("size", [2, 5, 12])
    def test_complete_graph_relaxes_no_row(self, size):
        weights = floor_graph(size, [(u, v) for u in range(size) for v in range(u)])
        dist, rows = relaxed_rows(weights, 0)
        assert dist.tolist() == [0.0] + [WEIGHT_FLOOR] * (size - 1)
        assert rows == 0

    def test_isolated_node_stops_on_the_sentinel_bound(self):
        size = 6
        weights = floor_graph(size, [(u, v) for u in range(size - 1) for v in range(u)])
        dist, rows = relaxed_rows(weights, 0)
        # the first round settles every node but the isolated one, so it
        # relaxes their rows, and the race ends when the bound reaches 1e7
        assert rows == size - 2
        assert dist.tolist() == [0.0] + [WEIGHT_FLOOR] * (size - 2) + [INACTIVE]
        assert np.array_equal(dist, dijkstra_numpy(weights, 0))


def random_digraph(rng, size, inactive_fraction, diagonal, top):
    weights = rng.uniform(1.0, top, (size, size))
    weights[rng.random((size, size)) < inactive_fraction] = INACTIVE
    np.fill_diagonal(weights, diagonal)
    return weights


@pytest.mark.parametrize("top", [300.0, 4.0])
@pytest.mark.parametrize("diagonal", [0.0, 1.0, np.inf])
def test_race_reads_rows_as_out_links_and_ignores_the_diagonal(diagonal, top, rng):
    # asymmetric weights: only the out-link reading matches the oracle; with
    # weights near the floor, a bound past min + WEIGHT_FLOOR settles too early
    for _ in range(40):
        size = int(rng.integers(1, 30))
        weights = random_digraph(rng, size, float(rng.uniform(0.0, 0.8)), diagonal, top)
        before = weights.copy()
        for source in range(size):
            dist = race_latencies(weights, source)
            assert np.array_equal(weights, before)
            assert np.array_equal(dist, dijkstra_numpy(weights, source))


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_fill_off_diagonal_matches_both_triangles(size, rng):
    rows, cols = np.triu_indices(size, 1)
    flat = rng.uniform(1.0, 9.0, len(rows))
    expected = np.full((size, size), -1.0)
    expected[rows, cols] = flat
    expected[cols, rows] = flat
    matrix = np.full((size, size), -1.0)
    fill_off_diagonal(matrix, flat, pair_layout(size)[1])
    assert np.array_equal(matrix, expected)


@pytest.mark.parametrize("size", [2, 3, 12])
def test_pair_layout_columns_are_the_upper_triangle_order(size):
    cols, entries = pair_layout(size)
    assert np.array_equal(cols, np.triu_indices(size, 1)[1])
    assert entries.shape == (size * (size - 1),)
    assert not cols.flags.writeable and not entries.flags.writeable


class TestPerturbSemantics:
    def test_surviving_link_scales(self):
        out = perturb_weights(
            np.array([100.0]),
            np.array([11.0]),
            np.array([0.0]),  # shape 0 makes the shock just u1
            np.array([0.5]),
            np.array([0.25]),
            2.0,
            np.array([True]),
        )
        assert out[0] == pytest.approx(100.0 * 1.5)

    def test_deactivated_link_becomes_sentinel(self):
        out = perturb_weights(
            np.array([100.0]),
            np.array([11.0]),
            np.array([0.1]),
            np.array([0.0]),
            np.array([0.0]),
            1.0,
            np.array([False]),
        )
        assert out[0] == INACTIVE

    def test_inactive_link_restarts_from_mean_even_when_inactive_again(self):
        out = perturb_weights(
            np.array([INACTIVE, INACTIVE]),
            np.array([11.0, 11.0]),
            np.array([0.0, 0.0]),
            np.array([0.0, 0.0]),
            np.array([0.0, 0.0]),
            1.0,
            np.array([True, False]),
        )
        assert out.tolist() == [11.0, 11.0]

    def test_floor_clamp(self):
        out = perturb_weights(
            np.array([50.0]),
            np.array([11.0]),
            np.array([0.0]),
            np.array([0.0]),
            np.array([-3.0]),  # factor 1 - 3 = -2 drives the weight negative
            1.0,
            np.array([True]),
        )
        assert out[0] == WEIGHT_FLOOR

    def test_ceiling_clamp_stays_below_sentinel(self):
        out = perturb_weights(
            np.array([9e6]),
            np.array([11.0]),
            np.array([0.0]),
            np.array([0.0]),
            np.array([5.0]),
            1.0,
            np.array([True]),
        )
        assert out[0] == WEIGHT_CEIL
        assert out[0] < INACTIVE


@pytest.mark.parametrize("omega", [0.0, 0.01, 0.1, 0.33, 1.0, 5.0])
def test_perturb_shock_is_sample_skew_normal(omega):
    # ties the skew-normal checks of sample_skew_normal to the shock the simulator applies
    for seed in range(200):
        u0, u1 = np.random.default_rng(seed).standard_normal((2, 1))
        out = perturb_weights(np.array([100.0]), np.array([11.0]), np.array([omega]), u0, u1, 0.001, np.array([True]))
        assert out[0] == 100.0 * (1.0 + 0.001 * sample_skew_normal(3.0 * omega, seed))


def perturb_inputs(rng, size, prev_kind, active_kind):
    if prev_kind == "sentinel":
        prev = np.full(size, INACTIVE)
    else:
        prev = rng.uniform(1.0, 400.0, size)
        prev[rng.random(size) < 0.2] = INACTIVE
    active = {
        "random": rng.random(size) < 0.7,
        "all": np.ones(size, dtype=bool),
        "none": np.zeros(size, dtype=bool),
    }[active_kind]
    # wide shocks: many factors go negative and hit the floor clamp
    return (
        prev,
        rng.uniform(6.0, 330.0, size),
        rng.uniform(0.0, 0.5, size),
        rng.standard_normal(size) * 4.0,
        rng.standard_normal(size) * 4.0,
        0.37,
        active,
    )


@pytest.mark.parametrize(
    "prev_kind, active_kind",
    [("mixed", "random"), ("sentinel", "random"), ("mixed", "all"), ("mixed", "none")],
)
def test_perturb_matches_reference_and_leaves_arguments(prev_kind, active_kind, rng):
    args = perturb_inputs(rng, 500, prev_kind, active_kind)
    before = [np.copy(arg) for arg in args]
    out = perturb_weights(*args)
    assert out.tobytes() == perturb_reference(*args).tobytes()
    for arg, kept in zip(args, before):
        assert np.array_equal(arg, kept)

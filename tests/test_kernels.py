"""The simulator kernels: the csgraph race against a dense Dijkstra oracle,
the pair-vector expansion, and the latency update."""

import numpy as np
import pytest

from gammachain._kernels import (
    INACTIVE,
    WEIGHT_CEIL,
    WEIGHT_FLOOR,
    fill_off_diagonal,
    pair_indices,
    perturb_weights,
)
from gammachain.network import (
    NetworkState,
    default_region_config,
    evolve_network,
    gamma_of,
    init_network,
    shortest_latencies,
)

from helpers import dijkstra_numpy


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


class TestRaceMatchesOracle:
    @pytest.mark.parametrize("nodes", [100, 400])
    def test_evolved_states_bit_for_bit(self, nodes):
        config = default_region_config().scaled_to(nodes)
        gen = np.random.default_rng(nodes)
        state = init_network(config, seed=gen)
        for _ in range(30):
            state = evolve_network(state, float(gen.uniform(0.1, 2.0)), config, seed=gen)
            attacker, honest = (int(v) for v in gen.choice(nodes, 2, replace=False))
            dist_attacker = dijkstra_numpy(state.weights, attacker)
            dist_honest = dijkstra_numpy(state.weights, honest)
            assert np.array_equal(shortest_latencies(state, attacker), dist_attacker)
            assert np.array_equal(shortest_latencies(state, honest), dist_honest)
            others = np.ones(nodes, dtype=bool)
            others[[attacker, honest]] = False
            closer = int((dist_attacker[others] < dist_honest[others]).sum())
            assert gamma_of(state, attacker, honest) == closer / nodes

    def test_random_matrices_bit_for_bit(self, rng):
        for _ in range(40):
            size = int(rng.integers(1, 30))
            weights = random_weight_matrix(rng, size, float(rng.uniform(0.0, 0.8)))
            state = NetworkState(weights, np.zeros(size, dtype=np.int64))
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
        state = NetworkState(weights, np.zeros(3, dtype=np.int64))
        dist = shortest_latencies(state, 0)
        assert dist.tolist() == [0.0, WEIGHT_CEIL, INACTIVE]
        assert np.array_equal(dist, dijkstra_numpy(weights, 0))


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_fill_off_diagonal_matches_both_triangles(size, rng):
    rows, cols = pair_indices(size)
    flat = rng.uniform(1.0, 9.0, len(rows))
    expected = np.full((size, size), -1.0)
    expected[rows, cols] = flat
    expected[cols, rows] = flat
    matrix = np.full((size, size), -1.0)
    fill_off_diagonal(matrix, flat)
    assert np.array_equal(matrix, expected)


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

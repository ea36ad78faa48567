"""Latency network simulation: init, centrality, evolution, and gamma series."""

import hashlib
import json
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammachain import network
from gammachain._kernels import INACTIVE, WEIGHT_CEIL, WEIGHT_FLOOR, pair_layout, shared_layout
from gammachain.inference import moving_average
from gammachain.network import (
    DEFAULT_MEAN_LATENCY,
    DEFAULT_NODE_COUNTS,
    REGION_NAMES,
    GammaSeries,
    NetworkState,
    RegionConfig,
    _draw_node_pair,
    _evolve_flat,
    default_region_config,
    eigenvector_centrality,
    evolve_network,
    gamma_of,
    init_network,
    sample_skew_normal,
    shortest_latencies,
    simulate_gamma_series,
)
from helpers import SEED3_DIGESTS, reference, state_of, write_file


def adjacency_state(size, edges, weight=10.0):
    weights = np.full((size, size), INACTIVE)
    np.fill_diagonal(weights, 0.0)
    for i, j in edges:
        weights[i, j] = weight
        weights[j, i] = weight
    return state_of(weights)


def simulate_recording(monkeypatch, *args):
    """``simulate_gamma_series(*args)`` and the bytes of each pair vector its loop's ``_evolve_flat`` returns."""
    evolved = []

    def recording(*step_args):
        flat = _evolve_flat(*step_args)
        evolved.append(flat.tobytes())
        return flat

    monkeypatch.setattr(network, "_evolve_flat", recording)
    series = simulate_gamma_series(*args)
    monkeypatch.undo()
    return series, evolved


def region_override(node_counts):
    base = default_region_config()
    return RegionConfig(base.region_names, node_counts, base.mean_latency)


class TestRegionConfig:
    def test_defaults(self):
        config = default_region_config()
        assert config.region_names == REGION_NAMES
        assert config.node_counts == (33, 50, 1, 12, 2, 2)
        assert config.node_count == 100
        matrix = np.asarray(config.mean_latency)
        assert matrix.shape == (6, 6)
        assert (matrix == matrix.T).all()
        assert matrix[0, 0] == 32.0 and matrix[1, 1] == 11.0 and matrix[5, 5] == 16.0

    def test_region_assignment_repeats_counts(self):
        assignment = default_region_config().region_assignment()
        assert assignment.shape == (100,)
        assert np.bincount(assignment, minlength=6).tolist() == [33, 50, 1, 12, 2, 2]

    def test_scaled_to_preserves_total_and_order(self):
        # at 20 and 80 ASIA_PACIFIC's remainder ties JAPAN's or AUSTRALIA's, and the earlier region wins
        expected = {50: (17, 25, 0, 6, 1, 1), 20: (7, 10, 0, 3, 0, 0), 80: (26, 40, 1, 10, 2, 1)}
        for total, counts in expected.items():
            scaled = default_region_config().scaled_to(total)
            assert sum(scaled.node_counts) == total
            assert scaled.node_counts == counts, total

    @given(
        st.lists(st.integers(min_value=0, max_value=500), min_size=2, max_size=8).filter(any),
        st.integers(min_value=1, max_value=10_000),
    )
    def test_scaled_to_is_exact_largest_remainder(self, counts, total):
        config = RegionConfig(tuple(f"R{i}" for i in range(len(counts))), counts, np.full((len(counts),) * 2, 10.0))
        shares = [Fraction(c * total, sum(counts)) for c in counts]
        expected = [int(share) for share in shares]
        # largest remainder first; of equal remainders the earlier region gets the node
        by_remainder = sorted(range(len(counts)), key=lambda r: (-(shares[r] % 1), r))
        for region in by_remainder[: total - sum(expected)]:
            expected[region] += 1
        scaled = config.scaled_to(total).node_counts
        assert list(scaled) == expected
        assert sum(scaled) == total
        assert all(new == 0 for new, old in zip(scaled, counts) if old == 0)

    def test_scaled_to_same_total_is_identity(self):
        config = default_region_config()
        assert config.scaled_to(100) == config
        with pytest.raises(ValueError, match="total node count must be positive"):
            config.scaled_to(0)
        assert config.scaled_to(np.int64(50)) == config.scaled_to(50)
        # a bool is an int, and a whole float is still no integer
        for bad in (50.0, 2.5, True, float("nan")):
            with pytest.raises(ValueError, match="is not an integer"):
                config.scaled_to(bad)

    def test_rejects_fractional_node_counts(self):
        # JSON true and the non-finite floats are no whole numbers either
        for first, last in ((33.5, 1.5), (float("inf"), 2), (float("nan"), 2), (True, 2), (None, 2)):
            obj = {**default_region_config().to_json_obj(), "node_counts": [first, 50, 1, 12, 2, last]}
            with pytest.raises(ValueError, match="whole numbers"):
                RegionConfig.from_json_obj(obj)

    def test_accepts_integral_floats(self):
        obj = {**default_region_config().to_json_obj(), "node_counts": [33.0, 50, 1, 12, 2, 2]}
        assert RegionConfig.from_json_obj(obj) == default_region_config()

    def test_rejects_asymmetric_latency(self):
        matrix = np.asarray(DEFAULT_MEAN_LATENCY, dtype=float).copy()
        matrix[0, 1] = 999.0
        with pytest.raises(ValueError):
            RegionConfig(REGION_NAMES, DEFAULT_NODE_COUNTS, tuple(map(tuple, matrix)))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            region_override((34, 50, -1, 12, 2, 2))

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite_latency(self, bad):
        matrix = np.asarray(DEFAULT_MEAN_LATENCY, dtype=float).copy()
        matrix[0, 1] = matrix[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            RegionConfig(REGION_NAMES, DEFAULT_NODE_COUNTS, matrix)

    @pytest.mark.parametrize("mean", [3.0, 5.0])
    def test_rejects_mean_at_or_below_five(self, mean):
        # the Pareto scale of the initial draw is mean - 5
        matrix = np.asarray(DEFAULT_MEAN_LATENCY, dtype=float).copy()
        matrix[2, 2] = mean
        with pytest.raises(ValueError, match="exceed 5"):
            RegionConfig(REGION_NAMES, DEFAULT_NODE_COUNTS, matrix)
        matrix[2, 2] = np.nextafter(5.0, np.inf)
        RegionConfig(REGION_NAMES, DEFAULT_NODE_COUNTS, matrix)

    def test_rejects_string_region_names(self):
        # a string is a sequence of one-letter names; JSON must give a list
        obj = {"region_names": "ab", "node_counts": [1, 1], "mean_latency": [[10.0, 50.0], [50.0, 12.0]]}
        with pytest.raises(ValueError, match="not a string"):
            RegionConfig.from_json_obj(obj)

    @pytest.mark.parametrize("names", [{"a": 0, "b": 1}, [["x"], 2], ["a", None]])
    def test_rejects_region_names_other_than_a_list_of_strings(self, names):
        obj = {"region_names": names, "node_counts": [1, 1], "mean_latency": [[10.0, 50.0], [50.0, 12.0]]}
        with pytest.raises(ValueError, match="region names must be a list of strings"):
            RegionConfig.from_json_obj(obj)

    @pytest.mark.parametrize(
        "counts, matrix, message",
        [
            ([1], [[10.0, 50.0], [50.0, 12.0]], "node_counts length must match region_names"),
            (5, [[10.0, 50.0], [50.0, 12.0]], "node_counts length must match region_names"),
            ([1, 1], [[10.0, 50.0]], "mean_latency must be square over the regions"),
            ([1, 1], [[10.0, 50.0], [50.0]], "mean_latency must be square over the regions"),
            ([0, 0], [[10.0, 50.0], [50.0, 12.0]], "at least one node is required"),
            ([1, 1], [["10", "20"], ["20", "30"]], "mean latencies must be numbers, not strings or bools"),
            ([1, 1], [[10, True], [True, 12]], "mean latencies must be numbers, not strings or bools"),
        ],
    )
    def test_rejects_fields_that_do_not_fit(self, counts, matrix, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            RegionConfig.from_json_obj({"region_names": ["a", "b"], "node_counts": counts, "mean_latency": matrix})

    def test_rejects_duplicate_region_names(self):
        with pytest.raises(ValueError, match="distinct"):
            RegionConfig(("A", "B", "A"), (1, 1, 1), np.full((3, 3), 10.0))

    def test_json_round_trip(self):
        config = default_region_config()
        assert RegionConfig.from_json_obj(json.loads(json.dumps(config.to_json_obj()))) == config


class TestInitNetwork:
    def test_shape_and_symmetry(self):
        state = init_network(seed=3)
        assert state.weights.shape == (100, 100)
        assert (state.weights == state.weights.T).all()
        assert (np.diag(state.weights) == 0.0).all()

    def test_deterministic_given_seed(self):
        assert init_network(seed=12) == init_network(seed=12)
        assert init_network(seed=12) != init_network(seed=13)

    def test_zero_dropout_gives_all_finite(self):
        state = init_network(dropout=0.0, seed=1)
        off = state.weights[np.triu_indices(100, 1)]
        assert (off < INACTIVE).all()
        assert (off >= WEIGHT_FLOOR).all()

    def test_high_dropout_gives_mostly_inactive(self):
        state = init_network(dropout=0.999, seed=1)
        off = state.weights[np.triu_indices(100, 1)]
        assert (off == INACTIVE).mean() > 0.99

    def test_dropout_fraction_matches_probability(self):
        state = init_network(dropout=0.1, seed=8)
        off = state.weights[np.triu_indices(100, 1)]
        assert (off == INACTIVE).mean() == pytest.approx(0.1, abs=0.02)

    @pytest.mark.parametrize("dropout", [-0.01, 1.0, 1.5, False, np.False_, "0.5", None, 0.5j])
    def test_rejects_bad_dropout(self, dropout):
        with pytest.raises(ValueError, match=r"^dropout must lie in \[0, 1\)$"):
            init_network(dropout=dropout, seed=0)

    def test_rejects_regional_mean_at_or_below_five(self):
        base = default_region_config()
        matrix = np.asarray(base.mean_latency).copy()
        matrix[2, 2] = 5.0
        # the config itself refuses the mean, before any draw
        with pytest.raises(ValueError, match="exceed 5"):
            init_network(RegionConfig(base.region_names, base.node_counts, tuple(map(tuple, matrix))), seed=0)

    def test_finite_weights_at_least_pareto_scale(self):
        # every EU-EU draw is scale / U**(1/shape) >= scale = 11 - 5 = 6
        state = init_network(region_override((0, 20, 0, 0, 0, 0)), dropout=0.0, seed=5)
        off = state.weights[np.triu_indices(20, 1)]
        assert (off >= 6.0).all()

    def test_pareto_mean_matches_formula(self):
        # one-region config yields 1e5 pair draws with mean 27 * 6.4 / 5.4 = 32
        state = init_network(region_override((450, 0, 0, 0, 0, 0)), dropout=0.0, seed=77)
        off = state.weights[np.triu_indices(450, 1)]
        assert off.size > 100000
        assert off.mean() == pytest.approx(32.0, abs=0.12)
        assert off.min() >= 27.0


class TestNetworkStateValidation:
    def test_rejects_non_positive_finite_weight(self):
        with pytest.raises(ValueError):
            NetworkState([0.0], np.zeros(2))

    def test_rejects_finite_weight_below_floor(self):
        with pytest.raises(ValueError):
            NetworkState([0.5], np.zeros(2))

    @pytest.mark.parametrize(
        "flat, region_of, message",
        [
            (np.full(2, 5.0), np.zeros(3), "flat must hold one weight per node pair"),
            (np.full(4, 5.0), np.zeros(3), "flat must hold one weight per node pair"),
            (np.full((1, 3), 5.0), np.zeros(3), "flat must hold one weight per node pair"),
            (np.float64(5.0), np.zeros(2), "flat must hold one weight per node pair"),
            (np.full(1, 5.0), np.int64(2), "region assignment must be a vector"),
            (np.full(1, 5.0), np.zeros((1, 2)), "region assignment must be a vector"),
            ([1.0], [0.5, 1], "region assignment must be whole numbers"),
            ([1.0], [-5, 7], "region assignment must be non-negative"),
            ([np.nan], np.zeros(2), "inactive links must use the sentinel"),
            ([np.inf], np.zeros(2), "inactive links must use the sentinel"),
            ([2 * INACTIVE], np.zeros(2), "inactive links must use the sentinel"),
        ],
    )
    def test_rejects_malformed_state(self, flat, region_of, message):
        with pytest.raises(ValueError, match=message):
            NetworkState(flat, region_of)

    @pytest.mark.parametrize("weight", [WEIGHT_FLOOR, WEIGHT_CEIL])
    def test_accepts_weights_at_the_bounds(self, weight):
        state = NetworkState([weight], np.zeros(2))
        assert state.flat.tolist() == [weight]
        assert state.weights.tolist() == [[0.0, weight], [weight, 0.0]]


class TestEigenvectorCentrality:
    def test_complete_graph_is_uniform(self):
        state = adjacency_state(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        scores = eigenvector_centrality(state)
        assert np.abs(scores - scores[0]).max() < 1e-9

    def test_cycle_graph_is_uniform(self):
        state = adjacency_state(8, [(i, (i + 1) % 8) for i in range(8)])
        scores = eigenvector_centrality(state)
        assert np.abs(scores - scores[0]).max() < 1e-9

    def test_star_center_dominates(self):
        state = adjacency_state(5, [(0, i) for i in range(1, 5)])
        scores = eigenvector_centrality(state)
        assert (scores[0] > scores[1:]).all()
        # dominant eigenvector of the star adjacency has center/leaf ratio 2
        assert scores[0] / scores[1] == pytest.approx(2.0, abs=1e-3)

    def test_matches_dense_eigendecomposition(self, rng):
        for _ in range(25):
            size = 6
            adjacency = np.zeros((size, size))
            iu, ju = np.triu_indices(size, 1)
            mask = rng.random(iu.size) < 0.5
            adjacency[iu[mask], ju[mask]] = 1.0
            adjacency += adjacency.T
            reach = np.linalg.matrix_power(adjacency + np.eye(size), size)
            if not (reach > 0).all():
                continue
            edges = [(int(i), int(j)) for i, j in zip(iu[mask], ju[mask])]
            scores = eigenvector_centrality(adjacency_state(size, edges))
            eigvals, eigvecs = np.linalg.eigh(adjacency + np.eye(size))
            dominant = eigvecs[:, np.argmax(eigvals)]
            dominant = np.abs(dominant) / np.linalg.norm(dominant)
            assert np.abs(scores / np.linalg.norm(scores) - dominant).max() < 1e-3

    def test_budget_exhausted_returns_the_fiftieth_iterate(self):
        # a 20-node path converges too slowly for 50 products to reach the tolerance
        state = adjacency_state(20, [(i, i + 1) for i in range(19)])
        adjacency = (state.weights < INACTIVE).astype(float)
        x = np.full(20, 1 / 20)
        for _ in range(50):
            previous, x = x, adjacency @ x
            x = x / np.sqrt(np.add.reduce(x * x))
        assert np.add.reduce(np.abs(x - previous)) >= 20 * 1e-5
        assert np.array_equal(eigenvector_centrality(state), x)

    def test_empty_graph_falls_back_to_uniform(self):
        state = adjacency_state(5, [])
        scores = eigenvector_centrality(state)
        assert np.abs(scores - scores[0]).max() == 0.0

    def test_scores_non_negative_and_normalized(self):
        state = init_network(seed=21)
        scores = eigenvector_centrality(state)
        assert (scores >= 0).all()
        assert np.linalg.norm(scores) == pytest.approx(1.0, abs=1e-9)


class TestSampleSkewNormal:
    def test_zero_shape_is_standard_normal(self):
        rng = np.random.default_rng(42)
        draws = np.array([sample_skew_normal(0.0, rng) for _ in range(100000)])
        assert draws.mean() == pytest.approx(0.0, abs=0.01)
        assert draws.std() == pytest.approx(1.0, abs=0.01)

    def test_large_shape_is_half_normal(self):
        rng = np.random.default_rng(42)
        draws = np.array([sample_skew_normal(1e6, rng) for _ in range(100000)])
        assert (draws >= -1e-3).all()

    def test_deterministic_given_seed(self):
        assert sample_skew_normal(3.0, 7) == sample_skew_normal(3.0, 7)

    # the kernel squares the shape: past about 1.3e154 the square overflows, and the draw would be no skew normal
    @pytest.mark.parametrize(
        "shape",
        ["3", True, None, 3j, 10**400, np.longdouble("1e4000"), np.inf, -np.inf, np.nan, 1e308],
        ids=["3", "True", "None", "3j", "10**400", "longdouble-1e4000", "inf", "-inf", "nan", "1e308"],
    )
    def test_rejects_a_shape_that_is_no_real_number(self, shape):
        with pytest.raises(ValueError, match="^shape must be a real number whose square is finite$"):
            sample_skew_normal(shape, 0)


class TestEvolveNetwork:
    def test_deterministic_given_seed(self):
        prev = init_network(seed=2)
        assert evolve_network(prev, 1.0, seed=5) == evolve_network(prev, 1.0, seed=5)

    def test_preserves_symmetry_and_floor(self):
        state = init_network(seed=2)
        for step in range(5):
            state = evolve_network(state, 1.0, seed=step)
            weights = state.weights
            assert (weights == weights.T).all()
            assert (np.diag(weights) == 0.0).all()
            off = weights[np.triu_indices(100, 1)]
            finite = off < INACTIVE
            assert (off[finite] >= WEIGHT_FLOOR).all()
            assert (off[~finite] == INACTIVE).all()

    def test_zero_activation_kills_every_finite_link(self):
        prev = init_network(dropout=0.0, seed=4)
        evolved = evolve_network(prev, 1.0, activation=0.0, seed=1)
        off = evolved.weights[np.triu_indices(100, 1)]
        assert (off == INACTIVE).all()

    def test_inactive_links_revive_even_at_zero_activation(self):
        dead = adjacency_state(4, [])
        revived = evolve_network(
            dead, 1.0, config=region_override((4, 0, 0, 0, 0, 0)), activation=0.0, seed=3
        )
        off = revived.weights[np.triu_indices(4, 1)]
        assert (off < INACTIVE).all()

    def test_vanishing_step_leaves_weights_near_previous(self):
        prev = init_network(dropout=0.0, seed=9)
        evolved = evolve_network(prev, 1e-12, activation=1.0, seed=0)
        assert np.abs(evolved.weights - prev.weights).max() < 1e-6

    def test_rejects_non_positive_delta_t(self):
        prev = init_network(seed=0)
        for bad in (0.0, -1.0, np.inf, np.nan, True, np.True_, "1", None, 1j, 10**400, np.longdouble("1e4000")):
            with pytest.raises(ValueError, match=r"^delta_t must be positive and finite$"):
                evolve_network(prev, bad, seed=0)

    def test_rejects_node_count_mismatch(self):
        prev = init_network(region_override((4, 0, 0, 0, 0, 0)), seed=0)
        with pytest.raises(ValueError):
            evolve_network(prev, 1.0, config=default_region_config(), seed=0)

    def test_revived_link_mean_matches_skew_normal_moment(self):
        # two EU nodes, one inactive link; centrality is (1/sqrt2, 1/sqrt2)
        # either way, so the shock shape is 3 * sqrt(2) every step
        config = region_override((0, 2, 0, 0, 0, 0))
        prev = NetworkState([INACTIVE], config.region_assignment())
        alpha = 3.0 * np.sqrt(2.0)
        delta = alpha / np.sqrt(1.0 + alpha * alpha)
        expected = 11.0 * (1.0 + delta * np.sqrt(2.0 / np.pi))
        rng = np.random.default_rng(2024)
        draws = np.array(
            [
                evolve_network(prev, 1.0, config=config, seed=rng).flat[0]
                for _ in range(20000)
            ]
        )
        assert draws.mean() == pytest.approx(expected, abs=0.25)


@pytest.mark.parametrize("nodes", [4, 100, 400])
def test_pair_vector_round_trips_through_the_matrix(nodes):
    config = default_region_config().scaled_to(nodes)
    initial = init_network(config, seed=nodes)
    for state in (initial, evolve_network(initial, 1.0, config, seed=nodes)):
        weights = state.weights
        assert np.array_equal(weights, weights.T)
        assert (np.diag(weights) == 0.0).all()
        assert not weights.flags.writeable
        assert weights[np.triu_indices(nodes, 1)].tobytes() == state.flat.tobytes()
        centrality = eigenvector_centrality(state)
        assert isinstance(centrality, np.ndarray) and centrality.shape == (nodes,)
        assert not centrality.flags.writeable


class TestEvolveFlat:
    """The state update on hand-built draws, with no generator involved."""

    # pairs (0,1) (0,2) (0,3) (1,2) (1,3) (2,3); the active ones form the cycle 0-1-2-3,
    # whose unit-diagonal adjacency gives every node centrality 0.5, so every shock has
    # shape 3 * (0.5 + 0.5) = 3 and the factor is 1 + delta_t * (delta * |u0| + sqrt(1 - delta**2) * u1)
    FLAT = np.array([10.0, 20.0, INACTIVE, 30.0, INACTIVE, 40.0])
    MEANS = np.array([100.0, 110.0, 120.0, 130.0, 140.0, 150.0])
    ACTIVE = np.array([True, False, True, True, False, True])
    U0 = np.array([0.0, 0.7, 0.8, 0.0, -0.4, 1.2])
    U1 = np.array([0.0, 0.0, 0.0, -1e6, 0.0, 0.0])

    def evolve(self):
        adjacency = np.eye(4)
        draws = (self.ACTIVE, self.U0, self.U1)
        return _evolve_flat(self.FLAT, self.MEANS, 0.5, draws, adjacency, pair_layout(4)), adjacency

    def test_hand_computed_update(self):
        delta = 3.0 / np.sqrt(10.0)
        evolved, adjacency = self.evolve()
        # an active link with no shock keeps its weight
        assert evolved[0] == 10.0
        # a finite link sampled inactive becomes the sentinel
        assert evolved[1] == INACTIVE
        # an inactive link restarts from its mean times the factor, sampled active or not
        assert evolved[2] == pytest.approx(120.0 * (1.0 + 0.5 * delta * 0.8), rel=1e-14)
        assert evolved[4] == pytest.approx(140.0 * (1.0 + 0.5 * delta * 0.4), rel=1e-14)
        # a large negative shock clamps to the floor
        assert evolved[3] == WEIGHT_FLOOR
        assert evolved[5] == pytest.approx(40.0 * (1.0 + 0.5 * delta * 1.2), rel=1e-14)
        cycle = np.array([[1, 1, 0, 1], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]], dtype=float)
        assert np.array_equal(adjacency, cycle)

    def test_repeatable_and_leaves_inputs_as_passed(self):
        inputs = (self.FLAT, self.MEANS, self.ACTIVE, self.U0, self.U1)
        copies = [array.copy() for array in inputs]
        first, _ = self.evolve()
        second, _ = self.evolve()
        assert first.tobytes() == second.tobytes()
        for array, copy in zip(inputs, copies):
            assert array.tobytes() == copy.tobytes()


class TestShortestLatencies:
    def test_indirect_route_beats_direct_edge(self):
        state = adjacency_state(3, [(0, 1)], weight=1.0)
        weights = np.array(state.weights)
        weights[1, 2] = weights[2, 1] = 1.0
        weights[0, 2] = weights[2, 0] = 5.0
        dist = shortest_latencies(state_of(weights), 0)
        assert dist.tolist() == [0.0, 1.0, 2.0]

    def test_single_edge_leaves_third_node_unreachable(self):
        state = adjacency_state(3, [(0, 1)], weight=7.5)
        assert shortest_latencies(state, 0).tolist() == [0.0, 7.5, INACTIVE]

    def test_all_inactive_reports_sentinel(self):
        state = adjacency_state(4, [])
        assert shortest_latencies(state, 0).tolist() == [0.0, INACTIVE, INACTIVE, INACTIVE]

    def test_rejects_out_of_range_source(self):
        state = adjacency_state(3, [(0, 1)])
        for bad in (-1, 3, 1.5, 2.0):
            with pytest.raises(ValueError):
                shortest_latencies(state, bad)


class TestGammaOf:
    def test_complete_equal_weights_all_tie(self):
        state = adjacency_state(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        assert gamma_of(state, 0, 1) == 0.0

    def test_attacker_hub_captures_everyone(self):
        # honest node reaches the rest only through the attacker hub
        state = adjacency_state(5, [(0, i) for i in range(1, 5)], weight=1.0)
        assert gamma_of(state, 0, 1) == pytest.approx(3 / 5)

    def test_rejects_equal_endpoints(self):
        state = adjacency_state(3, [(0, 1)])
        with pytest.raises(ValueError):
            gamma_of(state, 1, 1)

    def test_rejects_out_of_range_nodes(self):
        state = adjacency_state(3, [(0, 1)])
        for bad in (5, 1.5, 2.0):
            with pytest.raises(ValueError):
                gamma_of(state, 0, bad)
        # a bool is reported as no integer, not as equal to node 1
        for pair in ((1, True), (True, 1)):
            with pytest.raises(ValueError, match="is not an integer"):
                gamma_of(state, *pair)


class TestGammaSeries:
    def test_csv_round_trip_is_exact(self, tmp_path):
        # the least subnormal, an exponent form, a sum off its decimal, a whole gamma and a negative zero time
        times = [-1e16, -0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        values = [0.123456789012345, 0.5, 0.98, 5e-324, 1e-05, 0.1 + 0.2, 1.0]
        series = GammaSeries(times, values)
        text = series.to_csv()
        assert text == "time,gamma\n" + "".join(f"{float(t)!r},{float(v)!r}\n" for t, v in zip(times, values))
        again = GammaSeries.from_csv(write_file(tmp_path, text))
        assert again.times.tobytes() == series.times.tobytes()
        assert again.values.tobytes() == series.values.tobytes()

    def test_rejects_bad_header(self, tmp_path):
        with pytest.raises(ValueError):
            GammaSeries.from_csv(write_file(tmp_path, "t,g\n0.0,0.5\n"))

    def test_rejects_value_outside_unit_interval(self):
        with pytest.raises(ValueError):
            GammaSeries(np.array([0.0]), np.array([1.5]))

    def test_rejects_non_increasing_times(self):
        with pytest.raises(ValueError):
            GammaSeries(np.array([0.0, 0.0]), np.array([0.5, 0.5]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            GammaSeries(np.array([0.0, 1.0]), np.array([0.5]))

    def test_rejects_nan_value(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            GammaSeries(np.array([0.0, 1.0]), np.array([0.0, np.nan]))

    def test_wide_times_accepted_without_warning(self):
        # pytest turns warnings into errors, so an overflowing difference fails here
        series = GammaSeries([-1e308, 1e308], [0.1, 0.2])
        assert series.times.tolist() == [-1e308, 1e308]
        with pytest.raises(ValueError, match="strictly increasing"):
            GammaSeries([1e308, -1e308], [0.1, 0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_time(self, bad):
        with pytest.raises(ValueError, match="finite"):
            GammaSeries(np.array([0.0, bad]), np.array([0.0, 0.5]))

    def test_csv_with_nan_row_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            GammaSeries.from_csv(write_file(tmp_path, "time,gamma\n0.0,0.5\n1.0,nan\n"))

    @pytest.mark.parametrize("row", ["1.0,0.5,0.2", "1.0", "1.0,0.5,"])
    def test_csv_row_with_wrong_field_count_rejected(self, tmp_path, row):
        with pytest.raises(ValueError):
            GammaSeries.from_csv(write_file(tmp_path, f"time,gamma\n0.0,0.5\n{row}\n2.0,0.5\n"))

    def test_csv_with_three_fields_on_every_row_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="two fields"):
            GammaSeries.from_csv(write_file(tmp_path, "time,gamma\n0.0,0.5,1\n1.0,0.5,1\n"))

    @pytest.mark.parametrize("row", ["1.0,abc", "one,0.5", "1.0;0.5"])
    def test_csv_row_with_non_numeric_token_rejected(self, tmp_path, row):
        with pytest.raises(ValueError):
            GammaSeries.from_csv(write_file(tmp_path, f"time,gamma\n0.0,0.5\n{row}\n"))

    def test_csv_tolerates_blank_lines(self, tmp_path):
        series = GammaSeries.from_csv(write_file(tmp_path, "\ntime,gamma\n\n0.0,0.25\n\n\n1.0,0.5\n\n"))
        assert series.times.tolist() == [0.0, 1.0]
        assert series.values.tolist() == [0.25, 0.5]

    @pytest.mark.parametrize(
        "text",
        [
            "time,gamma\r\n0.0,0.25\r\n1.0,0.5\r\n",
            "\r\n \r\ntime,gamma\r\n\r\n0.0,0.25\r\n\r\n1.0,0.5\r\n\r\n",
            "\n\n  \ntime,gamma\n0.0,0.25\n\n\n1.0,0.5\n",
            "time,gamma\n0.0,0.25\n1.0,0.5",
            "time,gamma\r\n0.0,0.25\r\n1.0,0.5",
        ],
        ids=["crlf", "crlf-blank-lines", "blank-lines-before-header", "no-final-newline", "crlf-no-final-newline"],
    )
    def test_csv_line_layouts_parse_alike(self, tmp_path, text):
        series = GammaSeries.from_csv(write_file(tmp_path, text))
        assert series.times.tolist() == [0.0, 1.0]
        assert series.values.tolist() == [0.25, 0.5]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "header"),
            ("\n \n", "header"),
            ("time,gamma", "at least one sample"),
            ("time,gamma\n", "at least one sample"),
            ("\ntime,gamma\r\n\r\n  \n", "at least one sample"),
        ],
    )
    def test_csv_without_samples_rejected(self, tmp_path, text, message):
        with pytest.raises(ValueError, match=message):
            GammaSeries.from_csv(write_file(tmp_path, text))

    @pytest.mark.parametrize("text", ["time,gamma\n0.0,0.25\n  \n1.0,0.5\n", "time,gamma\n0.0,0.25\n1.0,0.5\n \n"])
    def test_csv_whitespace_only_line_rejected(self, tmp_path, text):
        with pytest.raises(ValueError):
            GammaSeries.from_csv(write_file(tmp_path, text))

    def test_csv_floats_match_python_parse_bit_for_bit(self, tmp_path, rng):
        values = np.concatenate([rng.random(2000), [0.0, 5e-324, 0.1, 1.0 - 2.0**-53, 1.0]])
        times = np.cumsum(rng.uniform(1e-9, 1e3, len(values)))
        text = GammaSeries(times, values).to_csv()
        parsed = GammaSeries.from_csv(write_file(tmp_path, text))
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert parsed.times.tobytes() == np.array([float(t) for t, _ in rows]).tobytes()
        assert parsed.values.tobytes() == values.tobytes()


class TestSimulateGammaSeries:
    def test_single_sample_schedule(self):
        series = simulate_gamma_series(np.array([0.0]), seed=6)
        assert len(series) == 1
        assert 0.0 <= series.values[0] <= 0.98

    def test_deterministic_given_seed(self):
        schedule = np.arange(30, dtype=float)
        a = simulate_gamma_series(schedule, seed=17)
        b = simulate_gamma_series(schedule, seed=17)
        assert a == b

    def test_different_seeds_differ(self):
        schedule = np.arange(30, dtype=float)
        assert simulate_gamma_series(schedule, seed=1) != simulate_gamma_series(
            schedule, seed=2
        )

    def test_times_recorded(self):
        schedule = np.array([0.0, 0.5, 2.5])
        series = simulate_gamma_series(schedule, seed=11)
        assert np.array_equal(series.times, schedule)

    def test_values_within_reachable_range(self):
        series = simulate_gamma_series(np.arange(60, dtype=float), seed=23)
        assert (np.asarray(series.values) >= 0.0).all()
        assert (np.asarray(series.values) <= 0.98).all()

    def test_rejects_non_increasing_schedule(self):
        with pytest.raises(ValueError):
            simulate_gamma_series(np.array([0.0, 2.0, 1.0]), seed=0)

    def test_rejects_empty_schedule(self):
        with pytest.raises(ValueError):
            simulate_gamma_series(np.array([]), seed=0)

    @pytest.mark.parametrize("bad", [[], [0.0, 2.0, 1.0], [0.0, np.nan], [[0.0, 1.0]]])
    def test_rejects_a_bad_schedule_as_a_series_does_before_drawing(self, bad):
        with pytest.raises(ValueError) as series_error:
            GammaSeries(bad, np.zeros(np.shape(bad)))
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match=f"^{re.escape(str(series_error.value))}$"):
            simulate_gamma_series(bad, seed=rng)
        assert rng.bit_generator.state == before

    def test_rejects_a_schedule_wider_than_a_float_before_drawing(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="^delta_t must be positive and finite$"):
            simulate_gamma_series([-1e308, 1e308], seed=rng)
        assert rng.bit_generator.state == before

    @pytest.mark.parametrize("activation", [-0.1, 1.5, np.nan, True, np.True_, "0.9", None, 0.9j])
    def test_rejects_activation_outside_unit_interval(self, activation):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="activation must lie in"):
            simulate_gamma_series([0.0, 1.0], seed=rng, activation=activation)
        assert rng.bit_generator.state == before
        with pytest.raises(ValueError, match="activation must lie in"):
            evolve_network(init_network(seed=0), 1.0, activation=activation, seed=0)

    def test_rejects_a_single_node_network(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="need at least two nodes"):
            simulate_gamma_series([0.0], seed=rng, config=RegionConfig(["a"], [1], [[10.0]]))
        assert rng.bit_generator.state == before

    def test_small_network_runs(self):
        series = simulate_gamma_series(
            np.arange(10, dtype=float), seed=3, config=default_region_config().scaled_to(10)
        )
        assert len(series) == 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_schedule(self, bad):
        with pytest.raises(ValueError):
            simulate_gamma_series(np.array([0.0, 1.0, bad]), seed=0)

    @pytest.mark.parametrize("steps", [500, 5000], ids=str)
    def test_seed3_digest_pinned(self, steps):
        series = simulate_gamma_series(np.arange(steps, dtype=float), seed=3)
        assert hashlib.sha256(series.values.tobytes()).hexdigest() == SEED3_DIGESTS[100, steps]

    def test_seed3_digest_pinned_at_400_nodes(self):
        config = default_region_config().scaled_to(400)
        series = simulate_gamma_series(np.arange(40, dtype=float), seed=3, config=config)
        assert hashlib.sha256(series.values.tobytes()).hexdigest() == SEED3_DIGESTS[400, 40]

    @pytest.mark.parametrize(
        "seed, nodes, dropout, activation",
        [(3, 100, 0.1, 0.9), (8, 40, 0.3, 0.6), (21, 100, 0.0, 1.0)],
    )
    def test_flat_loop_matches_public_api_replay(self, monkeypatch, seed, nodes, dropout, activation):
        config = default_region_config().scaled_to(nodes)
        schedule = np.cumsum(np.random.default_rng(seed).uniform(0.1, 2.0, 40))
        # gamma is blind to weight bits above the floor, so pin the loop's pair vectors too
        rng_a = np.random.default_rng(seed)
        series, evolved = simulate_recording(monkeypatch, schedule, rng_a, config, dropout, activation)

        rng_b = np.random.default_rng(seed)
        state = init_network(config, dropout, rng_b)
        replay = []
        for step, at in enumerate(schedule):
            if step:
                state = evolve_network(state, at - schedule[step - 1], config, activation, rng_b)
                assert evolved[step - 1] == state.flat.tobytes()
            replay.append(gamma_of(state, *_draw_node_pair(rng_b, nodes)))
        assert len(evolved) == len(schedule) - 1
        assert series.values.tobytes() == np.array(replay).tobytes()
        # nothing is drawn past the last step
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @pytest.mark.parametrize(
        "seed, nodes, steps, dropout, activation",
        [(3, 100, 300, 0.1, 0.9), (5, 400, 20, 0.2, 0.7)],
    )
    def test_loop_matches_the_written_out_reference(self, monkeypatch, seed, nodes, steps, dropout, activation):
        # the replay test checks the loop against helpers that run its own code; this one does not
        config = default_region_config().scaled_to(nodes)
        schedule = np.cumsum(np.random.default_rng(seed).uniform(0.1, 2.0, steps))
        rng_a = np.random.default_rng(seed)
        series, evolved = simulate_recording(monkeypatch, schedule, rng_a, config, dropout, activation)

        rng_b = np.random.default_rng(seed)
        values, flats = reference(schedule, rng_b, config, dropout, activation)
        assert evolved == [flat.tobytes() for flat in flats]
        assert series.values.tobytes() == values.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(
        st.data(),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([0.0, 0.5, 0.99, None]),
        st.sampled_from([0.0, 1.0, None]),
        st.sampled_from([1e-9, 1.0, 50.0, 1e6]),
        st.integers(min_value=1, max_value=29),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_loop_matches_the_written_out_reference_on_small_layouts(
        self, data, regions, dropout, activation, scale, samples, seed
    ):
        # the two-point test's checks on random layouts: empty regions, all links down or up, tiny and huge steps
        counts = data.draw(
            st.lists(st.integers(0, 12), min_size=regions, max_size=regions).filter(lambda c: 2 <= sum(c) <= 12)
        )
        latency, upper = np.zeros((regions, regions)), np.triu_indices(regions)
        latency[upper] = data.draw(st.lists(st.floats(5.5, 500.0), min_size=len(upper[0]), max_size=len(upper[0])))
        config = RegionConfig(tuple(f"r{i}" for i in range(regions)), counts, np.maximum(latency, latency.T))
        if dropout is None:
            dropout = data.draw(st.floats(0.0, 1.0, exclude_max=True))
        if activation is None:
            activation = data.draw(st.floats(0.0, 1.0))
        schedule = np.cumsum(np.random.default_rng(seed).uniform(0.1, 2.0, samples)) * scale
        rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as patch:
            series, evolved = simulate_recording(patch, schedule, rng_a, config, dropout, activation)
        values, flats = reference(schedule, rng_b, config, dropout, activation)
        assert evolved == [flat.tobytes() for flat in flats]
        assert series.values.tobytes() == values.tobytes()
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_each_step_draws_links_then_a_node_pair(self, monkeypatch):
        calls = []

        def counting(name):
            real = getattr(network, name)

            def wrapper(rng, count, *rest):
                calls.append((name, count))
                return real(rng, count, *rest)

            return wrapper

        for name in ("_link_draws", "_draw_node_pair"):
            monkeypatch.setattr(network, name, counting(name))
        nodes, steps = 12, 5
        simulate_gamma_series(np.arange(steps, dtype=float), 7, default_region_config().scaled_to(nodes))
        step = [("_link_draws", nodes * (nodes - 1) // 2), ("_draw_node_pair", nodes)]
        assert calls == [("_draw_node_pair", nodes)] + step * (steps - 1)

    @pytest.mark.parametrize("nodes", [100, 400])
    def test_drops_its_pair_layout_on_return(self, monkeypatch, nodes):
        tables = []

        def recording(node_count):
            layout = pair_layout(node_count)
            tables.extend(weakref.ref(table) for table in layout)
            return layout

        monkeypatch.setattr(network, "pair_layout", recording)
        cached = shared_layout.cache_info()
        simulate_gamma_series(np.arange(3, dtype=float), 5, default_region_config().scaled_to(nodes))
        assert len(tables) == 2 and all(ref() is None for ref in tables)
        assert shared_layout.cache_info() == cached


# nodes -> (evolution steps, sha256 of the last weights, sha256 of their centrality)
STATE_DIGESTS = {
    100: (
        200,
        "8a4aa8c47c5c67af83413ba0fc1c4cb31dbabcabb3a350b1416fd9e9b39cfcef",
        "e29bec95df30cb407d01546a6db769de103fc6e520c4ab55b9f76e02a692c53e",
    ),
    400: (
        20,
        "799e532948f6984db355e24b0c86d932bc4e520fea0d9b2b0b231bf9f3d41fbf",
        "5150116cf66090b689cf036e4ece328ef3d1c5720c5b52461c45428e378676e8",
    ),
}


@pytest.mark.parametrize("nodes", sorted(STATE_DIGESTS))
def test_replayed_state_pinned(nodes):
    # gamma is decided by floor links and ties, so the gamma digests miss most
    # changes to the weights above the floor or to centrality; this pins both
    steps, weights_digest, centrality_digest = STATE_DIGESTS[nodes]
    config = default_region_config().scaled_to(nodes)
    rng = np.random.default_rng(3)
    state = init_network(config, seed=rng)
    for _ in range(steps):
        state = evolve_network(state, 1.0, config, seed=rng)
    arrays = {
        "weights": (state.weights, weights_digest),
        "centrality": (eigenvector_centrality(state), centrality_digest),
    }
    moved = [name for name, (array, pin) in arrays.items() if hashlib.sha256(array.tobytes()).hexdigest() != pin]
    # the pins hold this machine's BLAS kernel and numpy SIMD level as well as the code
    build = np.show_config(mode="dicts")
    blas = build["Build Dependencies"]["blas"]
    machine = f"numpy {np.__version__}, BLAS {blas['name']} {blas['version']}, SIMD {', '.join(build['SIMD Extensions']['found'])}"
    assert not moved, f"{nodes}-node replay moved from its pin: {', '.join(moved)} ({machine})"


class TestMovingAverage:
    def test_constant_series(self):
        series = GammaSeries(np.arange(4, dtype=float), np.full(4, 0.3))
        assert moving_average(series).values == pytest.approx([0.3] * 4)

    def test_two_samples(self):
        series = GammaSeries(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
        assert moving_average(series).values == pytest.approx([0.0, 0.5])

    def test_three_sample_cumulative_means(self):
        series = GammaSeries(np.arange(3, dtype=float), np.array([0.2, 0.4, 0.6]))
        assert moving_average(series).values == pytest.approx([0.2, 0.3, 0.4])

    def test_times_preserved(self):
        series = GammaSeries(np.array([0.0, 2.0]), np.array([0.1, 0.3]))
        averaged = moving_average(series)
        assert np.array_equal(averaged.times, series.times)

"""Latency network simulation: init, centrality, evolution, and gamma series."""

import hashlib
import json

import numpy as np
import pytest

from gammachain._kernels import INACTIVE, WEIGHT_CEIL, WEIGHT_FLOOR
from gammachain.network import (
    DEFAULT_MEAN_LATENCY,
    DEFAULT_NODE_COUNTS,
    REGION_NAMES,
    CentralityVector,
    GammaSeries,
    NetworkState,
    RegionConfig,
    _draw_node_pair,
    default_region_config,
    eigenvector_centrality,
    evolve_network,
    gamma_of,
    init_network,
    moving_average,
    sample_skew_normal,
    shortest_latencies,
    simulate_gamma_series,
)
from helpers import write_file


def state_from_weights(weights):
    weights = np.asarray(weights, dtype=float)
    return NetworkState(weights, np.zeros(weights.shape[0], dtype=np.int64))


def adjacency_state(size, edges, weight=10.0):
    weights = np.full((size, size), INACTIVE)
    np.fill_diagonal(weights, 0.0)
    for i, j in edges:
        weights[i, j] = weight
        weights[j, i] = weight
    return state_from_weights(weights)


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
        scaled = default_region_config().scaled_to(50)
        assert sum(scaled.node_counts) == 50
        assert scaled.node_counts == (17, 25, 0, 6, 1, 1)

    def test_scaled_to_same_total_is_identity(self):
        config = default_region_config()
        assert config.scaled_to(100) is config

    def test_rejects_fractional_node_counts(self):
        obj = {**default_region_config().to_json_obj(), "node_counts": [33.5, 50, 1, 12, 2, 1.5]}
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

    @pytest.mark.parametrize("dropout", [-0.01, 1.0, 1.5])
    def test_rejects_bad_dropout(self, dropout):
        with pytest.raises(ValueError):
            init_network(dropout=dropout, seed=0)

    def test_rejects_regional_mean_at_or_below_five(self):
        base = default_region_config()
        matrix = np.asarray(base.mean_latency).copy()
        matrix[2, 2] = 5.0
        config = RegionConfig(base.region_names, base.node_counts, tuple(map(tuple, matrix)))
        with pytest.raises(ValueError):
            init_network(config, seed=0)

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
    def test_rejects_asymmetric_weights(self):
        weights = np.full((3, 3), 5.0)
        np.fill_diagonal(weights, 0.0)
        weights[0, 1] = 6.0
        with pytest.raises(ValueError):
            state_from_weights(weights)

    def test_rejects_nonzero_diagonal(self):
        weights = np.full((3, 3), 5.0)
        with pytest.raises(ValueError):
            state_from_weights(weights)

    def test_rejects_non_positive_finite_weight(self):
        weights = np.zeros((2, 2))
        with pytest.raises(ValueError):
            state_from_weights(weights)

    def test_rejects_finite_weight_below_floor(self):
        with pytest.raises(ValueError):
            state_from_weights([[0.0, 0.5], [0.5, 0.0]])

    @pytest.mark.parametrize("weight", [WEIGHT_FLOOR, WEIGHT_CEIL])
    def test_accepts_weights_at_the_bounds(self, weight):
        state = state_from_weights([[0.0, weight], [weight, 0.0]])
        assert state.weights[0, 1] == weight


class TestEigenvectorCentrality:
    def test_complete_graph_is_uniform(self):
        state = adjacency_state(6, [(i, j) for i in range(6) for j in range(i + 1, 6)])
        scores = eigenvector_centrality(state).scores
        assert np.abs(scores - scores[0]).max() < 1e-9

    def test_cycle_graph_is_uniform(self):
        state = adjacency_state(8, [(i, (i + 1) % 8) for i in range(8)])
        scores = eigenvector_centrality(state).scores
        assert np.abs(scores - scores[0]).max() < 1e-9

    def test_star_center_dominates(self):
        state = adjacency_state(5, [(0, i) for i in range(1, 5)])
        scores = eigenvector_centrality(state).scores
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
            scores = eigenvector_centrality(adjacency_state(size, edges)).scores
            eigvals, eigvecs = np.linalg.eigh(adjacency + np.eye(size))
            dominant = eigvecs[:, np.argmax(eigvals)]
            dominant = np.abs(dominant) / np.linalg.norm(dominant)
            assert np.abs(scores / np.linalg.norm(scores) - dominant).max() < 1e-3

    def test_empty_graph_falls_back_to_uniform(self):
        state = adjacency_state(5, [])
        scores = eigenvector_centrality(state).scores
        assert np.abs(scores - scores[0]).max() == 0.0

    def test_scores_non_negative_and_normalized(self):
        state = init_network(seed=21)
        scores = eigenvector_centrality(state).scores
        assert (scores >= 0).all()
        assert np.linalg.norm(scores) == pytest.approx(1.0, abs=1e-9)

    def test_rejects_negative_scores(self):
        with pytest.raises(ValueError):
            CentralityVector(np.array([0.5, -0.1]))


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
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                evolve_network(prev, bad, seed=0)

    def test_rejects_node_count_mismatch(self):
        prev = init_network(region_override((4, 0, 0, 0, 0, 0)), seed=0)
        with pytest.raises(ValueError):
            evolve_network(prev, 1.0, config=default_region_config(), seed=0)

    def test_revived_link_mean_matches_skew_normal_moment(self):
        # two EU nodes, one inactive link; centrality is (1/sqrt2, 1/sqrt2)
        # either way, so the shock shape is 3 * sqrt(2) every step
        config = region_override((0, 2, 0, 0, 0, 0))
        prev = NetworkState(
            np.array([[0.0, INACTIVE], [INACTIVE, 0.0]]), config.region_assignment()
        )
        alpha = 3.0 * np.sqrt(2.0)
        delta = alpha / np.sqrt(1.0 + alpha * alpha)
        expected = 11.0 * (1.0 + delta * np.sqrt(2.0 / np.pi))
        rng = np.random.default_rng(2024)
        draws = np.array(
            [
                evolve_network(prev, 1.0, config=config, seed=rng).weights[0, 1]
                for _ in range(20000)
            ]
        )
        assert draws.mean() == pytest.approx(expected, abs=0.25)


class TestShortestLatencies:
    def test_indirect_route_beats_direct_edge(self):
        state = adjacency_state(3, [(0, 1)], weight=1.0)
        weights = np.array(state.weights)
        weights[1, 2] = weights[2, 1] = 1.0
        weights[0, 2] = weights[2, 0] = 5.0
        dist = shortest_latencies(state_from_weights(weights), 0)
        assert dist.tolist() == [0.0, 1.0, 2.0]

    def test_single_edge_leaves_third_node_unreachable(self):
        state = adjacency_state(3, [(0, 1)], weight=7.5)
        assert shortest_latencies(state, 0).tolist() == [0.0, 7.5, INACTIVE]

    def test_all_inactive_reports_sentinel(self):
        state = adjacency_state(4, [])
        assert shortest_latencies(state, 0).tolist() == [0.0, INACTIVE, INACTIVE, INACTIVE]

    def test_rejects_out_of_range_source(self):
        state = adjacency_state(3, [(0, 1)])
        for bad in (-1, 3):
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
        with pytest.raises(ValueError):
            gamma_of(state, 0, 5)


class TestGammaSeries:
    def test_csv_round_trip_is_exact(self, tmp_path):
        series = GammaSeries(
            np.array([0.0, 1.0, 2.0]), np.array([0.123456789012345, 0.5, 0.98])
        )
        again = GammaSeries.from_csv(write_file(tmp_path, series.to_csv()))
        assert np.array_equal(again.times, series.times)
        assert np.array_equal(again.values, series.values)

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

    def test_small_network_runs(self):
        series = simulate_gamma_series(
            np.arange(10, dtype=float), seed=3, config=default_region_config().scaled_to(10)
        )
        assert len(series) == 10

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_schedule(self, bad):
        with pytest.raises(ValueError):
            simulate_gamma_series(np.array([0.0, 1.0, bad]), seed=0)

    @pytest.mark.parametrize(
        "steps, expected",
        [
            pytest.param(500, "d260d3269b9e3a9204b2166a10819ef9c7696b84f546c67b9340f7de50ff3db9", id="500"),
            pytest.param(5000, "ed1fb806d230a8a2ee073f56b03b17184c4241adbe09e5dee90f95d33b3dd6f1", id="5000"),
        ],
    )
    def test_seed3_digest_pinned(self, steps, expected):
        series = simulate_gamma_series(np.arange(steps, dtype=float), seed=3)
        assert hashlib.sha256(series.values.tobytes()).hexdigest() == expected

    def test_seed3_digest_pinned_at_400_nodes(self):
        config = default_region_config().scaled_to(400)
        series = simulate_gamma_series(np.arange(40, dtype=float), seed=3, config=config)
        digest = hashlib.sha256(series.values.tobytes()).hexdigest()
        assert digest == "b48429cdc87c75c1406bd8c65e0b5f1f17497e24d2dbfdaf9966c103f9c774be"

    @pytest.mark.parametrize(
        "seed, nodes, dropout, activation",
        [(3, 100, 0.1, 0.9), (8, 40, 0.3, 0.6), (21, 100, 0.0, 1.0)],
    )
    def test_flat_loop_matches_public_api_replay(self, seed, nodes, dropout, activation):
        config = default_region_config().scaled_to(nodes)
        schedule = np.cumsum(np.random.default_rng(seed).uniform(0.1, 2.0, 40))
        series = simulate_gamma_series(schedule, seed, config, dropout, activation)

        rng = np.random.default_rng(seed)
        state = init_network(config, dropout, rng)
        replay = []
        for step, at in enumerate(schedule):
            if step:
                state = evolve_network(state, at - schedule[step - 1], config, activation, rng)
            replay.append(gamma_of(state, *_draw_node_pair(rng, nodes)))
        assert series.values.tobytes() == np.array(replay).tobytes()


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

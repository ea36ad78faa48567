"""Binning, transition counting, likelihood scoring, and the reference fixture."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gammachain.inference import (
    GammaSeries,
    LikelihoodReport,
    TransitionCounts,
    count_transitions,
    empirical_transition_matrix,
    load_reference_counts,
    log_likelihood,
    occupancy_fractions,
    occupancy_from_counts,
    relative_likelihood,
    score_model,
)
from gammachain.markov import (
    TransitionMatrix,
    model1_transition_matrix,
    model2_transition_matrix,
    stationary_distribution,
)
from gammachain.partition import StrategyPartition, default_partition
from helpers import grid_partitions, make_partition


def series_of(values):
    values = np.asarray(values, dtype=float)
    return GammaSeries(np.arange(len(values), dtype=float), values)


class TestBinGamma:
    @pytest.mark.parametrize("value,expected", [(0.5, 0), (0.675, 1), (1.0, 3), (0.0, 0)])
    def test_examples(self, value, expected, partition):
        assert partition.index_of(value) == expected

    def test_rejects_out_of_range(self, partition):
        with pytest.raises(ValueError, match=r"gamma values must lie in \[0, 1\]"):
            partition.index_of(-0.2)

    def test_vectorized_binning_matches_scalar(self, partition, rng):
        values = rng.random(500)
        vector = partition.index_of(values)
        scalar = [partition.index_of(v) for v in values]
        assert vector.tolist() == scalar

    def test_vectorized_rejects_nan(self, partition):
        with pytest.raises(ValueError, match=r"gamma values must lie in \[0, 1\]"):
            partition.index_of(np.array([0.2, np.nan]))

    def test_vectorized_rejects_out_of_range(self, partition):
        with pytest.raises(ValueError, match=r"gamma values must lie in \[0, 1\]"):
            partition.index_of([0.5, 1.2])


class TestCountTransitions:
    def test_hand_binned_fixture(self, partition):
        counts = count_transitions(series_of([0.1, 0.2, 0.7, 0.9]), partition)
        expected = np.zeros((4, 4), dtype=np.int64)
        expected[0, 0] = 1
        expected[0, 1] = 1
        expected[1, 3] = 1
        assert np.array_equal(counts.counts, expected)

    def test_constant_series_only_self_loops(self, partition):
        counts = count_transitions(series_of([0.5] * 10), partition)
        assert counts.counts[0, 0] == 9
        assert counts.total == 9

    def test_round_trip_transition(self, partition):
        counts = count_transitions(series_of([0.5, 0.9, 0.5]), partition)
        assert counts.counts[0, 3] == 1
        assert counts.counts[3, 0] == 1
        assert counts.total == 2

    def test_total_is_length_minus_one(self, partition, rng):
        series = series_of(rng.random(257))
        assert count_transitions(series, partition).total == 256

    def test_rejects_short_series(self, partition):
        with pytest.raises(ValueError):
            count_transitions(series_of([0.5]), partition)


class TestEmpiricalMatrix:
    def test_rows_are_normalized_counts(self, reference_counts):
        matrix = empirical_transition_matrix(reference_counts)
        row = reference_counts.counts[0].astype(float)
        assert matrix.entries[0] == pytest.approx(row / row.sum())

    def test_scaled_identity_counts_give_identity(self, partition):
        counts = TransitionCounts(np.eye(4, dtype=np.int64) * 7, partition)
        assert np.array_equal(empirical_transition_matrix(counts).entries, np.eye(4))

    def test_all_zero_counts_give_uniform(self, partition):
        counts = TransitionCounts(np.zeros((4, 4), dtype=np.int64), partition)
        assert (empirical_transition_matrix(counts).entries == 0.25).all()

    def test_zero_row_becomes_uniform_row(self, partition):
        raw = np.zeros((4, 4), dtype=np.int64)
        raw[0, 1] = 3
        matrix = empirical_transition_matrix(TransitionCounts(raw, partition))
        assert matrix.entries[0].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert (matrix.entries[2] == 0.25).all()

    @settings(max_examples=200)
    @given(grid_partitions(), st.lists(st.floats(0, 1), min_size=2, max_size=40))
    def test_series_chain_has_one_stationary_distribution(self, part, values):
        # every state reaches the last sample's state, so the chain has one closed class
        series = series_of(values)
        matrix = empirical_transition_matrix(count_transitions(series, part))
        pi = stationary_distribution(matrix).weights
        assert pi[part.index_of(values[-1])] > 0
        assert np.abs(pi @ matrix.entries - pi).max() < 1e-10


class TestOccupancy:
    def test_constant_series_is_indicator(self, partition):
        occ = occupancy_fractions(series_of([0.7] * 5), partition)
        assert occ.weights.tolist() == [0.0, 1.0, 0.0, 0.0]

    def test_hand_counted_fractions(self, partition):
        occ = occupancy_fractions(series_of([0.1, 0.7, 0.9, 0.9]), partition)
        assert occ.weights == pytest.approx([0.25, 0.25, 0.0, 0.5])

    def test_sums_to_one(self, partition, rng):
        occ = occupancy_fractions(series_of(rng.random(321)), partition)
        assert occ.weights.sum() == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60)
    @given(
        grid_partitions(),
        st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.675, 0.76, 0.761, 0.999, 1.0]) | st.floats(0, 1), min_size=2, max_size=60),
    )
    def test_from_counts_matches_binning_bit_for_bit(self, part, values):
        series = series_of(values)
        from_counts = occupancy_from_counts(count_transitions(series, part), series)
        direct = occupancy_fractions(series, part)
        assert from_counts.weights.tobytes() == direct.weights.tobytes()
        assert from_counts.labels == direct.labels


class TestLogLikelihood:
    def test_all_zero_counts_is_zero(self, partition):
        counts = TransitionCounts(np.zeros((4, 4), dtype=np.int64), partition)
        assert log_likelihood(model1_transition_matrix(partition), counts) == 0.0

    def test_observed_impossible_cell_is_neg_inf(self, partition):
        raw = np.zeros((4, 4), dtype=np.int64)
        raw[0, 1] = 1
        counts = TransitionCounts(raw, partition)
        model = TransitionMatrix(np.eye(4), partition.labels)
        assert log_likelihood(model, counts) == float("-inf")

    def test_hand_computed_value(self, partition):
        raw = np.zeros((4, 4), dtype=np.int64)
        raw[0, 0] = 3
        raw[0, 3] = 2
        counts = TransitionCounts(raw, partition)
        model = model1_transition_matrix(partition)
        expected = 3 * np.log(model.entries[0, 0]) + 2 * np.log(model.entries[0, 3])
        assert log_likelihood(model, counts) == pytest.approx(expected)

    def test_rejects_dimension_mismatch(self, partition):
        counts = TransitionCounts(np.zeros((4, 4), dtype=np.int64), partition)
        two_state = TransitionMatrix(np.full((2, 2), 0.5), ("A", "B"))
        with pytest.raises(ValueError, match="differ from counts states"):
            log_likelihood(two_state, counts)
        # the same size over other states is refused too
        xy = TransitionMatrix(np.full((2, 2), 0.5), ("X", "Y"))
        pq = TransitionCounts(np.ones((2, 2), dtype=np.int64), StrategyPartition((0.0, 0.5, 1.0), ("P", "Q")))
        with pytest.raises(ValueError, match=r"\('X', 'Y'\) differ from counts states \('P', 'Q'\)"):
            log_likelihood(xy, pq)


class TestRelativeLikelihood:
    def test_mle_scores_zero(self, reference_counts):
        mle = empirical_transition_matrix(reference_counts)
        assert relative_likelihood(mle, reference_counts) == pytest.approx(0.0, abs=1e-9)

    def test_impossible_model_scores_inf(self, partition):
        raw = np.zeros((4, 4), dtype=np.int64)
        raw[0, 1] = 1
        counts = TransitionCounts(raw, partition)
        model = TransitionMatrix(np.eye(4), partition.labels)
        assert relative_likelihood(model, counts) == float("inf")

    def test_rounding_residue_below_zero_scores_inf(self, partition):
        # TransitionMatrix admits entries down to -1e-12; such an entry is probability zero
        raw = np.zeros((4, 4), dtype=np.int64)
        raw[0, 1] = 1
        counts = TransitionCounts(raw, partition)
        entries = np.eye(4)
        entries[0, :2] = [1.0 + 1e-13, -1e-13]
        model = TransitionMatrix(entries, partition.labels)
        assert relative_likelihood(model, counts) == float("inf")

    def test_worse_log_likelihood_means_larger_relative_likelihood(self, reference_counts):
        part = default_partition()
        m1, m2 = model1_transition_matrix(part), model2_transition_matrix(part)
        ll1 = log_likelihood(m1, reference_counts)
        ll2 = log_likelihood(m2, reference_counts)
        rl1 = relative_likelihood(m1, reference_counts)
        rl2 = relative_likelihood(m2, reference_counts)
        assert ll2 < ll1
        assert rl2 > rl1

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_never_negative(self, seed):
        gen = np.random.default_rng(seed)
        part = make_partition([0.0, 0.4, 1.0])
        counts = TransitionCounts(gen.integers(0, 40, (2, 2)), part)
        entries = gen.uniform(0.01, 1.0, (2, 2))
        entries /= entries.sum(axis=1, keepdims=True)
        model = TransitionMatrix(entries, part.labels)
        assert relative_likelihood(model, counts) >= -1e-9

    def test_score_model_bundles_report(self, reference_counts):
        report = score_model(
            "model1", model1_transition_matrix(default_partition()), reference_counts
        )
        assert report.model_name == "model1"
        assert report.relative_likelihood == pytest.approx(
            report.log_likelihood * -1
            + log_likelihood(
                empirical_transition_matrix(reference_counts), reference_counts
            ),
            rel=1e-12,
        )

    def test_report_rejects_negative_relative_likelihood(self):
        with pytest.raises(ValueError):
            LikelihoodReport("m", -0.5, -10.0)


class TestMleOptimality:
    def test_grid_search_never_beats_empirical(self):
        part = make_partition([0.0, 0.5, 1.0])
        raw = np.array([[30, 10], [5, 55]], dtype=np.int64)
        counts = TransitionCounts(raw, part)
        best_ll = log_likelihood(empirical_transition_matrix(counts), counts)

        grid = np.linspace(0.0, 1.0, 1001)
        with np.errstate(divide="ignore", invalid="ignore"):
            row0 = 30 * np.log(grid) + 10 * np.log(1.0 - grid)
            row1 = 5 * np.log(grid) + 55 * np.log(1.0 - grid)
        row0 = np.nan_to_num(row0, nan=-np.inf)
        row1 = np.nan_to_num(row1, nan=-np.inf)
        grid_best = row0.max() + row1.max()
        assert grid_best <= best_ll + 1e-9
        assert grid[np.argmax(row0)] == pytest.approx(30 / 40, abs=1e-3)
        assert grid[np.argmax(row1)] == pytest.approx(5 / 60, abs=1e-3)


class TestChainRecovery:
    def test_long_series_recovers_generating_chain(self):
        part = make_partition([0.0, 0.3, 0.6, 1.0])
        true = np.array(
            [[0.7, 0.2, 0.1], [0.3, 0.5, 0.2], [0.25, 0.25, 0.5]]
        )
        mids = np.array(part.midpoints())
        gen = np.random.default_rng(99)
        states = np.empty(100000, dtype=np.int64)
        states[0] = 0
        cumulative = true.cumsum(axis=1)
        draws = gen.random(100000)
        for n in range(1, 100000):
            states[n] = np.searchsorted(cumulative[states[n - 1]], draws[n])
        series = series_of(mids[states])

        counts = count_transitions(series, part)
        empirical = empirical_transition_matrix(counts)
        assert np.abs(empirical.entries - true).max() < 0.02

        occupancy = occupancy_fractions(series, part)
        pi = stationary_distribution(empirical)
        assert np.abs(occupancy.weights - pi.weights).max() < 0.02


class TestCountsValue:
    def test_rejects_negative(self, partition):
        raw = np.zeros((4, 4), dtype=np.int64)
        raw[1, 1] = -1
        with pytest.raises(ValueError):
            TransitionCounts(raw, partition)

    @pytest.mark.parametrize(
        "raw",
        [np.full((4, 4), 1.5), np.full((4, 4), np.nan), np.eye(4, dtype=bool)],
        ids=["fraction", "nan", "bools"],
    )
    def test_rejects_entries_that_are_not_whole_numbers(self, partition, raw):
        # a cast to int64 would floor 1.5, warn on NaN and read True as 1
        with pytest.raises(ValueError, match="^counts must be whole numbers$"):
            TransitionCounts(raw, partition)

    def test_rejects_wrong_shape(self, partition):
        with pytest.raises(ValueError):
            TransitionCounts(np.zeros((3, 3), dtype=np.int64), partition)

    def test_csv_round_trip(self, reference_counts):
        again = TransitionCounts.from_csv(reference_counts.to_csv())
        assert again == reference_counts

    def test_csv_accepts_signs_and_padding(self, partition):
        counts = TransitionCounts.from_csv(" 1 ,+2,-0,3\n\n" + "0,0,0,0\n" * 3, partition)
        assert counts.counts[0].tolist() == [1, 2, 0, 3]

    def test_csv_rejects_ragged_rows(self, partition):
        with pytest.raises(ValueError, match="same number of cells"):
            TransitionCounts.from_csv("1,2,3,4\n1,2,3\n" + "0,0,0,0\n" * 2, partition)

    @pytest.mark.parametrize("cell", ["1_0", "1.0", "0x1", "", "١"])
    def test_csv_rejects_non_decimal_cell(self, partition, cell):
        with pytest.raises(ValueError, match="is not a decimal integer"):
            TransitionCounts.from_csv(f"{cell},0,0,0\n" + "0,0,0,0\n" * 3, partition)

    def test_immutable(self, reference_counts):
        with pytest.raises(ValueError):
            reference_counts.counts[0, 0] = 0


class TestReferenceFixture:
    def test_total_and_row_sums(self, reference_counts):
        assert reference_counts.total == 4999
        assert reference_counts.counts.sum(axis=1).tolist() == [3872, 258, 15, 854]

    def test_dominant_self_loop(self, reference_counts):
        assert reference_counts.counts[0, 0] == 2977

    def test_relabelled_default_bounds_are_accepted(self, reference_counts):
        counts = load_reference_counts(make_partition((0.0, 0.675, 0.76, 0.761, 1.0)))
        assert counts.labels == ("S0", "S1", "S2", "S3")
        assert np.array_equal(counts.counts, reference_counts.counts)

    @pytest.mark.parametrize(
        "boundaries", [(0.0, 0.25, 0.5, 0.75, 1.0), (0.0, 0.675, 0.76, 1.0), (0.0, 0.5, 1.0)]
    )
    def test_other_bounds_are_rejected(self, boundaries):
        with pytest.raises(ValueError, match="binned at 0, 0.675, 0.76, 0.761, 1, not at 0, "):
            load_reference_counts(make_partition(boundaries))

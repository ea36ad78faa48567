"""Analytical transition models, kernel integrals, and the stationary solver."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import dblquad

from gammachain.markov import (
    KernelConfig,
    StateDistribution,
    TransitionMatrix,
    is_irreducible,
    kernel_box_integral,
    model1_transition_matrix,
    model2_transition_matrix,
    sq_exp_kernel,
    stationary_distribution,
)
from gammachain.partition import Interval, StrategyPartition, default_partition

from helpers import make_partition, grid_partitions


class TestModel1:
    def test_first_row_hand_computed(self):
        matrix = model1_transition_matrix(default_partition())
        # unnormalized weights: length * (1 - midpoint distance) per target
        lens = np.array([0.675, 0.085, 0.001, 0.239])
        mids = np.array([0.3375, 0.7175, 0.7605, 0.8805])
        weights = lens * (1.0 - np.abs(mids - mids[0]))
        assert weights == pytest.approx([0.675, 0.0527, 0.000577, 0.10923], rel=1e-3)
        assert matrix.entries[0] == pytest.approx(weights / weights.sum())
        assert matrix.entries[0] == pytest.approx([0.806, 0.063, 0.0007, 0.130], abs=5e-4)

    def test_single_interval(self):
        part = StrategyPartition((Interval(0.0, 1.0, "ALL"),))
        matrix = model1_transition_matrix(part)
        assert matrix.entries.shape == (1, 1)
        assert matrix.entries[0, 0] == pytest.approx(1.0)

    def test_rows_sum_to_one(self):
        matrix = model1_transition_matrix(default_partition())
        assert matrix.entries.sum(axis=1) == pytest.approx([1.0] * 4, abs=1e-12)

    def test_all_entries_positive(self):
        assert (model1_transition_matrix(default_partition()).entries > 0).all()

    @given(grid_partitions())
    def test_random_partitions_row_stochastic(self, part):
        entries = model1_transition_matrix(part).entries
        assert entries.sum(axis=1) == pytest.approx([1.0] * len(part), abs=1e-9)
        assert (entries >= 0).all()


class TestKernel:
    def test_zero_separation(self):
        assert sq_exp_kernel(0.5, 0.5) == 1.0

    def test_quarter_separation(self):
        assert sq_exp_kernel(0.5, 0.75) == pytest.approx(math.exp(-0.5))

    def test_full_separation(self):
        assert sq_exp_kernel(0.0, 1.0) == pytest.approx(math.exp(-8.0))

    def test_symmetry_and_bounds(self):
        for x, y in [(0.1, 0.9), (0.3, 0.35), (0.0, 0.0)]:
            k = sq_exp_kernel(x, y)
            assert k == sq_exp_kernel(y, x)
            assert 0.0 < k <= 1.0
            assert (k == 1.0) == (x == y)

    def test_length_scale_controls_decay(self):
        near = sq_exp_kernel(0.2, 0.8, KernelConfig(1.0))
        far = sq_exp_kernel(0.2, 0.8, KernelConfig(0.1))
        assert far < near

    def test_rejects_non_positive_length_scale(self):
        with pytest.raises(ValueError):
            KernelConfig(0.0)
        with pytest.raises(ValueError):
            KernelConfig(-0.25)

    def test_rejects_infinite_length_scale(self):
        with pytest.raises(ValueError, match="finite"):
            KernelConfig(math.inf)

    def test_huge_length_scale_fails_in_the_matrix(self):
        # l * l overflows; the NaN row mass is reported against the scale
        with pytest.raises(ValueError, match=r"length_scale 1e\+300"):
            model2_transition_matrix(default_partition(), KernelConfig(1e300))


class TestKernelBoxIntegral:
    @pytest.mark.parametrize(
        "box",
        [
            (0.0, 1.0, 0.0, 1.0),
            (0.0, 0.675, 0.675, 0.76),
            (0.76, 0.761, 0.0, 0.675),
            (0.2, 0.4, 0.2, 0.4),
        ],
    )
    def test_matches_adaptive_quadrature(self, box):
        a, b, c, d = box
        config = KernelConfig(0.25)
        exact = kernel_box_integral(a, b, c, d, 0.25)
        numeric, _ = dblquad(
            lambda x, y: sq_exp_kernel(x, y, config), c, d, a, b,
            epsabs=1e-12, epsrel=1e-12,
        )
        assert exact == pytest.approx(numeric, abs=1e-10)

    def test_positive_on_proper_boxes(self, rng):
        for _ in range(50):
            a, c = rng.uniform(0.0, 0.9, 2)
            b = a + rng.uniform(0.01, 1.0 - a)
            d = c + rng.uniform(0.01, 1.0 - c)
            assert kernel_box_integral(a, b, c, d, 0.25) > 0.0

    def test_additive_in_target(self):
        whole = kernel_box_integral(0.0, 1.0, 0.3, 0.5, 0.25)
        left = kernel_box_integral(0.0, 0.6, 0.3, 0.5, 0.25)
        right = kernel_box_integral(0.6, 1.0, 0.3, 0.5, 0.25)
        assert whole == pytest.approx(left + right, abs=1e-14)


class TestModel2:
    def test_single_interval(self):
        part = StrategyPartition((Interval(0.0, 1.0, "ALL"),))
        entries = model2_transition_matrix(part).entries
        assert entries.shape == (1, 1)
        assert entries[0, 0] == pytest.approx(1.0)

    def test_symmetric_halves(self):
        part = StrategyPartition((Interval(0.0, 0.5, "LO"), Interval(0.5, 1.0, "HI")))
        entries = model2_transition_matrix(part).entries
        p = entries[0, 0]
        assert p > 0.5
        expected = np.array([[p, 1.0 - p], [1.0 - p, p]])
        assert np.abs(entries - expected).max() < 1e-12

    @pytest.mark.parametrize("length_scale", [0.001, 0.002, 0.25, 1e2, 1e4, 1e6])
    def test_quadrature_agrees_with_closed_form(self, length_scale):
        part = default_partition()
        config = KernelConfig(length_scale)
        closed = model2_transition_matrix(part, config, method="closed_form").entries
        quad = model2_transition_matrix(part, config, method="quadrature").entries
        assert np.abs(closed - quad).max() < 1e-9

    def test_no_entry_negative_at_small_length_scales(self):
        # the four-term erf sum cancels where a box integral is near zero
        part = default_partition()
        for length_scale in np.geomspace(1e-5, 1.0, 400):
            entries = model2_transition_matrix(part, KernelConfig(float(length_scale))).entries
            assert (entries >= 0.0).all(), length_scale

    def test_quadrature_alone_needs_scipy(self, monkeypatch):
        part = default_partition()
        closed = model2_transition_matrix(part)
        monkeypatch.setitem(sys.modules, "scipy.integrate", None)
        assert model2_transition_matrix(part) == closed
        with pytest.raises(ImportError):
            model2_transition_matrix(part, method="quadrature")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            model2_transition_matrix(default_partition(), method="simpson")

    def test_rows_sum_to_one(self):
        entries = model2_transition_matrix(default_partition()).entries
        assert entries.sum(axis=1) == pytest.approx([1.0] * 4, abs=1e-12)

    @settings(max_examples=25)
    @given(grid_partitions(max_cuts=4))
    def test_random_partitions_row_stochastic(self, part):
        entries = model2_transition_matrix(part).entries
        assert entries.sum(axis=1) == pytest.approx([1.0] * len(part), abs=1e-9)
        assert (entries > 0).all()


class TestIsIrreducible:
    def test_identity_is_reducible(self):
        m = TransitionMatrix(np.eye(2), ("A", "B"))
        assert not is_irreducible(m)

    def test_two_cycle(self):
        m = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), ("A", "B"))
        assert is_irreducible(m)

    def test_model1_chain(self):
        assert is_irreducible(model1_transition_matrix(default_partition()))

    def test_block_diagonal_is_reducible(self):
        entries = np.array(
            [
                [0.5, 0.5, 0.0, 0.0],
                [0.5, 0.5, 0.0, 0.0],
                [0.0, 0.0, 0.5, 0.5],
                [0.0, 0.0, 0.5, 0.5],
            ]
        )
        assert not is_irreducible(TransitionMatrix(entries, ("A", "B", "C", "D")))

    def test_absorbing_state_is_reducible(self):
        entries = np.array([[0.5, 0.5], [0.0, 1.0]])
        assert not is_irreducible(TransitionMatrix(entries, ("A", "B")))

    def test_long_cycle(self):
        entries = np.roll(np.eye(5), 1, axis=1)
        assert is_irreducible(TransitionMatrix(entries, tuple("ABCDE")))


class TestStationaryDistribution:
    def test_two_cycle_is_uniform(self):
        m = TransitionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), ("A", "B"))
        assert stationary_distribution(m).weights == pytest.approx([0.5, 0.5])

    def test_two_state_hand_solution(self):
        # detailed balance: pi0 * 0.1 = pi1 * 0.2
        m = TransitionMatrix(np.array([[0.9, 0.1], [0.2, 0.8]]), ("A", "B"))
        assert stationary_distribution(m).weights == pytest.approx([2 / 3, 1 / 3])

    def test_five_cycle_is_uniform(self):
        entries = np.roll(np.eye(5), 1, axis=1)
        dist = stationary_distribution(TransitionMatrix(entries, tuple("ABCDE")))
        assert dist.weights == pytest.approx([0.2] * 5)

    def test_rejects_reducible_chain(self):
        with pytest.raises(ValueError):
            stationary_distribution(TransitionMatrix(np.eye(2), ("A", "B")))

    def test_fixed_point_residual(self):
        for build in (model1_transition_matrix, model2_transition_matrix):
            matrix = build(default_partition())
            pi = stationary_distribution(matrix).weights
            assert np.abs(pi @ matrix.entries - pi).max() < 1e-10
            assert abs(pi.sum() - 1.0) < 1e-12

    @settings(max_examples=60)
    @given(
        st.integers(min_value=2, max_value=6),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_random_positive_chains_satisfy_balance(self, k, seed):
        entries = np.random.default_rng(seed).uniform(0.05, 1.0, (k, k))
        entries /= entries.sum(axis=1, keepdims=True)
        matrix = TransitionMatrix(entries, tuple(f"S{i}" for i in range(k)))
        pi = stationary_distribution(matrix).weights
        assert np.abs(pi @ entries - pi).max() < 1e-10
        assert (pi >= 0).all()


class TestValueValidation:
    def test_rejects_non_stochastic_rows(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.6, 0.6], [0.5, 0.5]]), ("A", "B"))

    def test_rejects_negative_entries(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[1.2, -0.2], [0.5, 0.5]]), ("A", "B"))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.array([[0.5, 0.5]]), ("A", "B"))

    def test_rejects_label_mismatch(self):
        with pytest.raises(ValueError):
            TransitionMatrix(np.eye(2), ("A", "B", "C"))

    def test_rejects_nan_entries(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            TransitionMatrix(np.full((2, 2), np.nan), ("A", "B"))

    def test_rejects_nan_distribution(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            StateDistribution(np.full(2, np.nan), ("A", "B"))

    def test_distribution_must_sum_to_one(self):
        with pytest.raises(ValueError):
            StateDistribution(np.array([0.5, 0.4]), ("A", "B"))

    def test_matrix_is_immutable(self):
        matrix = model1_transition_matrix(default_partition())
        with pytest.raises(ValueError):
            matrix.entries[0, 0] = 0.0


class TestSerialization:
    def test_matrix_json_round_trip_is_idempotent(self):
        matrix = model1_transition_matrix(default_partition())
        obj = matrix.to_json_obj()
        again = TransitionMatrix(obj["entries"], obj["labels"])
        assert again.to_json_obj() == obj
        assert np.abs(again.entries - matrix.entries).max() < 1e-11

    def test_csv_has_one_row_per_state(self):
        csv = model1_transition_matrix(default_partition()).to_csv()
        rows = [line for line in csv.strip().splitlines()]
        assert len(rows) == 4
        assert all(len(row.split(",")) == 4 for row in rows)

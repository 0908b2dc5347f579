"""Tests for interval-overlap logic, including hypothesis equivalence checks."""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import (
    covers_obstacle,
    pairwise_overlap_matrix,
    separated_equal_width,
    separated_equal_width_batch,
    separated_general,
)


def brute_force_separated(centers: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """O(k^2) oracle for 'interval i intersects no other interval'."""
    k = len(centers)
    out = np.ones(k, dtype=bool)
    for i in range(k):
        for j in range(k):
            if i != j and abs(centers[i] - centers[j]) <= widths[i] + widths[j]:
                out[i] = False
    return out


class TestSeparatedEqualWidth:
    def test_single_interval_trivially_separated(self):
        assert separated_equal_width(np.array([5.0]), 1.0).tolist() == [True]

    def test_well_separated(self):
        out = separated_equal_width(np.array([0.0, 10.0, 20.0]), 1.0)
        assert out.all()

    def test_chain_overlap(self):
        # 0-2-4: each neighbor pair overlaps with eps=1.5.
        out = separated_equal_width(np.array([0.0, 2.0, 4.0]), 1.5)
        assert not out.any()

    def test_one_isolated_in_the_middle_of_pairs(self):
        out = separated_equal_width(np.array([0.0, 1.0, 50.0, 99.0, 100.0]), 1.0)
        assert out.tolist() == [False, False, True, False, False]

    def test_touching_intervals_count_as_overlap(self):
        # distance exactly 2*eps -> closed intervals touch -> not separated.
        out = separated_equal_width(np.array([0.0, 2.0]), 1.0)
        assert not out.any()

    @given(
        centers=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=1, max_size=12
        ),
        eps=st.floats(min_value=1e-3, max_value=50.0),
    )
    @settings(max_examples=200)
    def test_matches_brute_force(self, centers, eps):
        centers = np.array(centers, dtype=np.float64)
        widths = np.full(len(centers), eps)
        expected = brute_force_separated(centers, widths)
        got = separated_equal_width(centers, eps)
        assert np.array_equal(got, expected)


class TestSeparatedGeneral:
    def test_zero_width_points(self):
        # Points are separated iff distinct.
        out = separated_general(np.array([1.0, 1.0, 3.0]), np.zeros(3))
        assert out.tolist() == [False, False, True]

    def test_wide_interval_reaches_far(self):
        # Interval 0 has width 10 and swallows interval 1 at distance 5.
        out = separated_general(np.array([0.0, 5.0]), np.array([10.0, 0.1]))
        assert not out.any()

    @given(
        data=st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50, allow_nan=False),
                st.floats(min_value=0.0, max_value=20.0, allow_nan=False),
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=200)
    def test_matches_brute_force(self, data):
        centers = np.array([d[0] for d in data])
        widths = np.array([d[1] for d in data])
        expected = brute_force_separated(centers, widths)
        got = separated_general(centers, widths)
        assert np.array_equal(got, expected)


class TestSeparatedEqualWidthBatch:
    def test_matches_per_row(self):
        rng = np.random.default_rng(0)
        est = rng.uniform(0, 100, size=(50, 8))
        eps = rng.uniform(0.5, 10.0, size=50)
        batch = separated_equal_width_batch(est, eps)
        for b in range(50):
            row = separated_equal_width(est[b], float(eps[b]))
            assert np.array_equal(batch[b], row)

    def test_single_column(self):
        out = separated_equal_width_batch(np.zeros((4, 1)), np.ones(4))
        assert out.all()

    def test_shape_validation(self):
        import pytest

        with pytest.raises(ValueError):
            separated_equal_width_batch(np.zeros(5), np.ones(5))
        with pytest.raises(ValueError):
            separated_equal_width_batch(np.zeros((5, 2)), np.ones(4))


class TestPairwiseOverlapMatrix:
    def test_symmetric_no_self_overlap(self):
        m = pairwise_overlap_matrix(np.array([0.0, 1.0, 10.0]), np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(m, m.T)
        assert not m.diagonal().any()
        assert m[0, 1] and not m[0, 2]

    def test_consistent_with_separated_general(self):
        rng = np.random.default_rng(3)
        centers = rng.uniform(0, 100, 15)
        widths = rng.uniform(0, 10, 15)
        m = pairwise_overlap_matrix(centers, widths)
        sep = separated_general(centers, widths)
        assert np.array_equal(sep, ~m.any(axis=1))


class TestCoversObstacle:
    def test_no_obstacles_blocks_nothing(self):
        mask = covers_obstacle(np.array([1.0, 2.0]), np.array([5.0, 5.0]), np.empty(0))
        assert mask.tolist() == [False, False]

    def test_touching_endpoint_counts_as_covering(self):
        mask = covers_obstacle(np.array([1.0, 1.0]), np.array([1.0, 0.5]), np.array([2.0]))
        assert mask.tolist() == [True, False]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.floats(0, 100), min_size=1, max_size=12),
        st.lists(st.floats(0, 100), min_size=0, max_size=6),
        st.integers(0, 2**31 - 1),
    )
    def test_matches_per_group_loop(self, centers, obstacles, seed):
        """Same answer as the per-group rule it replaced in the loops."""
        centers = np.asarray(centers)
        obstacles = np.asarray(obstacles)
        widths = np.random.default_rng(seed).uniform(0, 30, centers.size)
        expected = [
            bool(np.any(np.abs(c - obstacles) <= w)) for c, w in zip(centers, widths)
        ]
        assert covers_obstacle(centers, widths, obstacles).tolist() == expected

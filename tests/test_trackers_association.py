"""Tests for track-to-detection association."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.trackers.association import (
    MIN_IOU,
    greedy_overlap_assignment,
    iou_assignment,
    overlap_score_matrix,
    unmatched_indices,
)
from repro.utils.geometry import BoundingBox, boxes_iou


def box(x, y, w=10, h=10):
    return BoundingBox(x, y, w, h)


class TestScoreMatrix:
    def test_shape_and_values(self):
        tracks = [box(0, 0), box(100, 100)]
        detections = [box(0, 0), box(5, 0), box(200, 200)]
        matrix = overlap_score_matrix(tracks, detections)
        assert matrix.shape == (2, 3)
        assert matrix[0, 0] == pytest.approx(1.0)
        assert matrix[0, 2] == 0.0


class TestGreedyAssignment:
    def test_obvious_pairs(self):
        tracks = [box(0, 0), box(100, 100)]
        detections = [box(101, 101), box(1, 1)]
        pairs = greedy_overlap_assignment(tracks, detections)
        assert sorted(pairs) == [(0, 1), (1, 0)]

    def test_one_to_one(self):
        tracks = [box(0, 0), box(2, 2)]
        detections = [box(1, 1)]
        pairs = greedy_overlap_assignment(tracks, detections)
        assert len(pairs) == 1

    def test_min_score_filters(self):
        pairs = greedy_overlap_assignment([box(0, 0)], [box(9, 9)], min_score=0.5)
        assert pairs == []

    def test_empty_inputs(self):
        assert greedy_overlap_assignment([], [box(0, 0)]) == []
        assert greedy_overlap_assignment([box(0, 0)], []) == []

    def test_picks_highest_score_first(self):
        tracks = [box(0, 0)]
        detections = [box(5, 5), box(1, 1)]
        pairs = greedy_overlap_assignment(tracks, detections)
        assert pairs == [(0, 1)]


class TestIouAssignment:
    def test_optimal_beats_greedy_on_crossover(self):
        """A case where greedy's first pick forces a bad total assignment."""
        tracks = [box(0, 0, 10, 10), box(4, 0, 10, 10)]
        detections = [box(2, 0, 10, 10), box(8, 0, 10, 10)]
        optimal = iou_assignment(tracks, detections)
        assert sorted((i, j) for i, j, _ in optimal) == [(0, 0), (1, 1)]

    def test_min_iou_respected(self):
        # The solver must assign the lone pair; its zero IoU is cut.
        assert iou_assignment([box(0, 0)], [box(50, 50)]) == []
        assert MIN_IOU > 0.0

    def test_pairs_carry_the_iou_the_solver_was_given(self):
        tracks = [box(0, 0), box(100, 100), box(0.1, 1e6, 1e-6, 3)]
        detections = [box(103, 101), box(1, 0), box(0.1, 1e6, 2e-6, 3)]
        pairs = iou_assignment(tracks, detections)
        assert sorted(pairs) == sorted(
            (i, j, boxes_iou(tracks[i], detections[j])) for i, j in [(0, 1), (1, 0), (2, 2)]
        )
        assert all(type(iou) is float for _, _, iou in pairs)

    def test_empty(self):
        assert iou_assignment([], []) == []


class TestUnmatchedIndices:
    def test_positions(self):
        pairs = [(0, 2), (3, 0)]
        assert unmatched_indices(5, pairs, 0) == [1, 2, 4]
        assert unmatched_indices(3, pairs, 1) == [1]

    def test_no_pairs(self):
        assert unmatched_indices(3, [], 0) == [0, 1, 2]


class TestAssignmentProperties:
    @given(
        st.lists(
            st.tuples(st.floats(0, 200), st.floats(0, 150)), min_size=0, max_size=8
        ),
        st.lists(
            st.tuples(st.floats(0, 200), st.floats(0, 150)), min_size=0, max_size=8
        ),
    )
    def test_assignments_are_one_to_one(self, track_positions, detection_positions):
        tracks = [box(x, y) for x, y in track_positions]
        detections = [box(x, y) for x, y in detection_positions]
        for pairs in (
            greedy_overlap_assignment(tracks, detections),
            iou_assignment(tracks, detections),
        ):
            track_indices = [pair[0] for pair in pairs]
            detection_indices = [pair[1] for pair in pairs]
            assert len(track_indices) == len(set(track_indices))
            assert len(detection_indices) == len(set(detection_indices))
            assert len(pairs) <= min(len(tracks), len(detections))

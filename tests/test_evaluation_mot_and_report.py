"""Tests for the MOT summary metrics and report formatting."""

from __future__ import annotations

import pytest

from repro.evaluation.mot_metrics import compute_mot_summary
from repro.evaluation.precision_recall import PrecisionRecall
from repro.evaluation.report import format_comparison_table, format_precision_recall_table
from repro.simulation.ground_truth import GroundTruthBox, GroundTruthFrame
from repro.trackers.base import TrackObservation
from repro.utils.geometry import BoundingBox


def gt_frame(t_us, entries):
    return GroundTruthFrame(
        t_us=t_us,
        boxes=[
            GroundTruthBox(track_id=tid, object_class="car", box=b) for tid, b in entries
        ],
    )


def observation(t_us, box, track_id):
    return TrackObservation(track_id=track_id, box=box, t_us=t_us)


class TestMotSummary:
    def test_perfect_tracking(self):
        ground_truth = [
            gt_frame(33_000, [(0, BoundingBox(10, 10, 20, 20))]),
            gt_frame(99_000, [(0, BoundingBox(14, 10, 20, 20))]),
        ]
        observations = [
            observation(33_000, BoundingBox(10, 10, 20, 20), 1),
            observation(99_000, BoundingBox(14, 10, 20, 20), 1),
        ]
        summary = compute_mot_summary(observations, ground_truth)
        assert summary.mota == pytest.approx(1.0)
        assert summary.motp == pytest.approx(1.0)
        assert summary.num_id_switches == 0
        assert summary.num_matches == 2

    def test_misses_and_false_positives_reduce_mota(self):
        ground_truth = [gt_frame(33_000, [(0, BoundingBox(10, 10, 20, 20))])]
        observations = [observation(33_000, BoundingBox(150, 100, 20, 20), 1)]
        summary = compute_mot_summary(observations, ground_truth)
        assert summary.num_misses == 1
        assert summary.num_false_positives == 1
        assert summary.mota == pytest.approx(1.0 - 2.0)

    def test_id_switch_detected(self):
        ground_truth = [
            gt_frame(33_000, [(0, BoundingBox(10, 10, 20, 20))]),
            gt_frame(99_000, [(0, BoundingBox(14, 10, 20, 20))]),
        ]
        observations = [
            observation(33_000, BoundingBox(10, 10, 20, 20), 1),
            observation(99_000, BoundingBox(14, 10, 20, 20), 2),
        ]
        summary = compute_mot_summary(observations, ground_truth)
        assert summary.num_id_switches == 1

    def test_id_switch_with_one_box_object_at_two_instants(self):
        """Track ids come from the aligned report, not from whichever report holds the box."""
        shared = BoundingBox(10, 10, 20, 20)
        ground_truth = [gt_frame(0, [(0, shared)]), gt_frame(66_000, [(0, shared)])]
        observations = [observation(0, shared, 1), observation(66_000, shared, 2)]
        summary = compute_mot_summary(observations, ground_truth)
        assert summary.num_id_switches == 1
        assert summary.mota == pytest.approx(0.5)

    def test_to_dict(self):
        ground_truth = [gt_frame(33_000, [(0, BoundingBox(10, 10, 20, 20))])]
        summary = compute_mot_summary([], ground_truth)
        data = summary.to_dict()
        assert data["misses"] == 1
        assert "mota" in data and "motp" in data

    def test_empty_everything(self):
        summary = compute_mot_summary([], [])
        assert summary.mota == 0.0
        assert summary.motp == 0.0


class TestReportFormatting:
    def _results(self):
        return {
            "EBBIOT": {
                0.3: PrecisionRecall(0.9, 0.85, 90, 100, 106),
                0.5: PrecisionRecall(0.8, 0.75, 80, 100, 106),
            },
            "EBMS": {
                0.3: PrecisionRecall(0.5, 0.6, 50, 100, 83),
                0.5: PrecisionRecall(0.3, 0.4, 30, 100, 83),
            },
        }

    def test_precision_recall_table_contains_all_trackers(self):
        table = format_precision_recall_table(self._results())
        assert "EBBIOT" in table and "EBMS" in table
        assert "IoU>0.3" in table and "IoU>0.5" in table
        assert "0.900" in table

    def test_single_metric(self):
        table = format_precision_recall_table(self._results(), metric="recall")
        assert "recall" in table
        assert "precision" not in table

    def test_invalid_metric(self):
        with pytest.raises(ValueError):
            format_precision_recall_table(self._results(), metric="f1")

    def test_empty_results(self):
        assert format_precision_recall_table({}) == "(no results)"

    def test_comparison_table(self):
        rows = [
            {"pipeline": "EBBIOT", "computes_relative": 1.0},
            {"pipeline": "EBMS", "computes_relative": 3.04},
        ]
        table = format_comparison_table(rows, ["pipeline", "computes_relative"], title="Fig 5")
        assert "Fig 5" in table
        assert "EBMS" in table
        assert "3.04" in table

    def test_comparison_table_missing_column(self):
        table = format_comparison_table([{"a": 1}], ["a", "b"])
        assert "a" in table

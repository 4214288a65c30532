"""CLEAR-MOT style summary metrics.

The paper reports only IoU-thresholded precision and recall, but a
downstream user of a tracking library usually also wants MOTA/MOTP-style
numbers and identity-switch counts.  :func:`compute_mot_summary` provides
those as an extension, aligning and matching each ground-truth instant
exactly as the precision/recall evaluation does, and reading identities
straight off the aligned report's observations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

from repro.evaluation.matching import match_observations
from repro.evaluation.precision_recall import _align_tracks_to_ground_truth
from repro.simulation.ground_truth import GroundTruthFrame
from repro.trackers.base import TrackObservation


@dataclass(frozen=True)
class MotSummary:
    """Aggregate multi-object-tracking metrics for one recording."""

    mota: float
    motp: float
    num_misses: int
    num_false_positives: int
    num_id_switches: int
    num_ground_truth_boxes: int
    num_matches: int

    @property
    def precision(self) -> float:
        """IoU-thresholded precision: matches over reported tracker boxes.

        Every reported box is either a match or a false positive under the
        per-frame matching, so the counts already carried by the summary
        determine precision at the evaluation's IoU threshold — and the
        counts add across recordings, so pooled summaries
        (:func:`~repro.runtime.aggregate.merge_mot_summaries`) give the
        pooled precision for free.
        """
        reported = self.num_matches + self.num_false_positives
        if reported == 0:
            return 0.0
        return self.num_matches / reported

    @property
    def recall(self) -> float:
        """IoU-thresholded recall: matches over ground-truth boxes."""
        if self.num_ground_truth_boxes == 0:
            return 0.0
        return self.num_matches / self.num_ground_truth_boxes

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "mota": self.mota,
            "motp": self.motp,
            "precision": self.precision,
            "recall": self.recall,
            "misses": self.num_misses,
            "false_positives": self.num_false_positives,
            "id_switches": self.num_id_switches,
            "ground_truth_boxes": self.num_ground_truth_boxes,
            "matches": self.num_matches,
        }


def compute_mot_summary(
    observations: Sequence[TrackObservation],
    ground_truth_frames: Sequence[GroundTruthFrame],
    iou_threshold: float = 0.3,
    alignment_tolerance_us: int = 40_000,
) -> MotSummary:
    """Compute MOTA / MOTP and identity switches for one recording.

    MOTA = 1 - (misses + false positives + id switches) / GT boxes.
    MOTP is the mean IoU of the matched pairs (higher is better), a common
    IoU-flavoured variant of the original distance-based definition.
    """
    total_misses = 0
    total_false_positives = 0
    total_id_switches = 0
    total_ground_truth = 0
    total_matches = 0
    iou_sum = 0.0
    # Ground-truth track id -> tracker track id from the previous frame.
    previous_assignment: Dict[int, int] = {}

    for gt_frame, frame_observations in _align_tracks_to_ground_truth(
        observations, ground_truth_frames, alignment_tolerance_us
    ):
        match = match_observations(frame_observations, gt_frame.boxes, iou_threshold)
        total_ground_truth += match.num_ground_truth_boxes
        total_misses += match.num_false_negatives
        total_false_positives += match.num_false_positives
        total_matches += match.num_true_positives

        for tracker_index, gt_index, iou in match.true_positives:
            iou_sum += iou
            gt_track_id = gt_frame.boxes[gt_index].track_id
            tracker_track_id = frame_observations[tracker_index].track_id
            if (
                gt_track_id in previous_assignment
                and previous_assignment[gt_track_id] != tracker_track_id
            ):
                total_id_switches += 1
            previous_assignment[gt_track_id] = tracker_track_id

    mota = (
        1.0 - (total_misses + total_false_positives + total_id_switches) / total_ground_truth
        if total_ground_truth
        else 0.0
    )
    motp = iou_sum / total_matches if total_matches else 0.0
    return MotSummary(
        mota=mota,
        motp=motp,
        num_misses=total_misses,
        num_false_positives=total_false_positives,
        num_id_switches=total_id_switches,
        num_ground_truth_boxes=total_ground_truth,
        num_matches=total_matches,
    )

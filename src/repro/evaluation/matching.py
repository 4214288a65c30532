"""Per-frame matching of tracker boxes against ground-truth boxes."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence, Tuple

from repro.simulation.ground_truth import GroundTruthBox
from repro.trackers.base import TrackObservation
from repro.trackers.association import iou_assignment
from repro.utils.geometry import BoundingBox


@dataclass
class FrameMatchResult:
    """Outcome of matching one frame's tracker boxes to its ground truth.

    Attributes
    ----------
    true_positives:
        Matched (tracker index, ground-truth index, IoU) triples with IoU
        above the threshold.
    num_tracker_boxes:
        Number of tracker boxes presented for matching.
    num_ground_truth_boxes:
        Number of ground-truth boxes at this instant.
    matched_pairs:
        All one-to-one assignment pairs, including those below the IoU
        threshold.  The assignment never sees the threshold, so
        :func:`~repro.evaluation.precision_recall.evaluate_recording`
        matches each instant once and sweeps every threshold over these
        pairs.
    """

    true_positives: List[Tuple[int, int, float]] = field(default_factory=list)
    num_tracker_boxes: int = 0
    num_ground_truth_boxes: int = 0
    matched_pairs: List[Tuple[int, int, float]] = field(default_factory=list)

    @property
    def num_true_positives(self) -> int:
        """Number of tracker boxes counted as correct."""
        return len(self.true_positives)

    @property
    def num_false_positives(self) -> int:
        """Tracker boxes that did not match any ground truth above threshold."""
        return self.num_tracker_boxes - self.num_true_positives

    @property
    def num_false_negatives(self) -> int:
        """Ground-truth boxes missed by the tracker."""
        return self.num_ground_truth_boxes - self.num_true_positives


def check_iou_threshold(iou_threshold: float) -> None:
    """Reject an IoU threshold outside ``(0, 1]``."""
    if not 0.0 < iou_threshold <= 1.0:
        raise ValueError(f"iou_threshold must be in (0, 1], got {iou_threshold}")


def match_frame(
    tracker_boxes: Sequence[BoundingBox],
    ground_truth_boxes: Sequence[BoundingBox],
    iou_threshold: float = 0.5,
) -> FrameMatchResult:
    """One-to-one IoU matching between tracker and ground-truth boxes.

    The assignment maximises total IoU (Hungarian); pairs with IoU above
    ``iou_threshold`` count as true positives.
    """
    check_iou_threshold(iou_threshold)
    result = FrameMatchResult(
        num_tracker_boxes=len(tracker_boxes),
        num_ground_truth_boxes=len(ground_truth_boxes),
    )
    if not tracker_boxes or not ground_truth_boxes:
        return result
    result.matched_pairs = iou_assignment(list(tracker_boxes), list(ground_truth_boxes))
    result.true_positives = [pair for pair in result.matched_pairs if pair[2] > iou_threshold]
    return result


def match_observations(
    observations: Sequence[TrackObservation],
    ground_truth: Sequence[GroundTruthBox],
    iou_threshold: float = 0.5,
) -> FrameMatchResult:
    """Match one instant's tracker observations to its GT annotations, by index."""
    tracker_boxes = [o.box for o in observations]
    ground_truth_boxes = [g.box for g in ground_truth]
    return match_frame(tracker_boxes, ground_truth_boxes, iou_threshold)

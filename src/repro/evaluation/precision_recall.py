"""Precision / recall evaluation over recordings and IoU thresholds.

Implements the metric of Section III-B / III-C: IoU-thresholded true
positives accumulated over every evaluation instant of the recording,
precision and recall computed from the totals, swept over IoU thresholds
(Fig. 4) and combined across recordings as a weighted average with weights
equal to each recording's ground-truth track count.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

from repro.evaluation.matching import check_iou_threshold, match_observations
from repro.simulation.ground_truth import GroundTruthFrame
from repro.trackers.base import TrackObservation

#: IoU thresholds swept in the Fig. 4 reproduction.
DEFAULT_IOU_THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)


@dataclass(frozen=True)
class PrecisionRecall:
    """Precision and recall with their supporting counts."""

    precision: float
    recall: float
    true_positives: int
    total_tracker_boxes: int
    total_ground_truth_boxes: int

    @property
    def f1(self) -> float:
        """Harmonic mean of precision and recall."""
        if self.precision + self.recall == 0:
            return 0.0
        return 2 * self.precision * self.recall / (self.precision + self.recall)


@dataclass
class RecordingEvaluation:
    """Evaluation of one tracker on one recording across IoU thresholds."""

    name: str
    num_ground_truth_tracks: int
    by_threshold: Dict[float, PrecisionRecall] = field(default_factory=dict)

    def precision_series(self) -> List[float]:
        """Precisions ordered by ascending IoU threshold."""
        return [self.by_threshold[t].precision for t in sorted(self.by_threshold)]

    def recall_series(self) -> List[float]:
        """Recalls ordered by ascending IoU threshold."""
        return [self.by_threshold[t].recall for t in sorted(self.by_threshold)]

    def thresholds(self) -> List[float]:
        """Sorted IoU thresholds."""
        return sorted(self.by_threshold)


def _align_tracks_to_ground_truth(
    observations: Sequence[TrackObservation],
    ground_truth_frames: Sequence[GroundTruthFrame],
    tolerance_us: int,
) -> List[Tuple[GroundTruthFrame, List[TrackObservation]]]:
    """Pair each GT instant with the observations of its nearest tracker report.

    The nearest report time within ``tolerance_us`` (inclusive) wins, the
    earlier one on a tie; an instant with no report in range gets ``[]``.
    Reports are grouped by time once and each instant binary-searches them,
    so aligning n reports to m instants costs O((n + m) log n).
    """
    by_time: Dict[int, List[TrackObservation]] = {}
    for observation in observations:
        by_time.setdefault(observation.t_us, []).append(observation)
    times = sorted(by_time)
    aligned = []
    for gt_frame in ground_truth_frames:
        right = bisect_left(times, gt_frame.t_us)
        # The nearest report is one of the two around the instant; min keeps the earlier.
        around = times[max(right - 1, 0):right + 1]
        nearest = min(
            (t for t in around if abs(t - gt_frame.t_us) <= tolerance_us),
            key=lambda t: abs(t - gt_frame.t_us),
            default=None,
        )
        aligned.append((gt_frame, by_time[nearest] if nearest is not None else []))
    return aligned


def evaluate_recording(
    observations: Sequence[TrackObservation],
    ground_truth_frames: Sequence[GroundTruthFrame],
    iou_thresholds: Sequence[float] = DEFAULT_IOU_THRESHOLDS,
    name: str = "recording",
    alignment_tolerance_us: int = 40_000,
) -> RecordingEvaluation:
    """Evaluate tracker output against ground truth for one recording.

    Each GT instant is matched once; every threshold of the sweep then
    counts the matched pairs whose IoU exceeds it, which is exact because
    the assignment maximises total IoU without seeing the threshold.

    Parameters
    ----------
    observations:
        All tracker observations over the recording (any tracker).
    ground_truth_frames:
        Ground-truth annotations sampled at regular instants.
    iou_thresholds:
        IoU thresholds to sweep, each in ``(0, 1]``.
    name:
        Recording name used in reports.
    alignment_tolerance_us:
        Maximum time difference between a GT instant and the tracker report
        associated with it (defaults to just over half a 66 ms frame).
    """
    for threshold in iou_thresholds:
        check_iou_threshold(threshold)
    matches = [
        match_observations(frame_observations, gt_frame.boxes)
        for gt_frame, frame_observations in _align_tracks_to_ground_truth(
            observations, ground_truth_frames, alignment_tolerance_us
        )
    ]
    ious = [iou for match in matches for _, _, iou in match.matched_pairs]
    total_tracker_boxes = sum(match.num_tracker_boxes for match in matches)
    total_ground_truth_boxes = sum(match.num_ground_truth_boxes for match in matches)

    track_ids = set()
    for frame in ground_truth_frames:
        track_ids.update(frame.track_ids())

    evaluation = RecordingEvaluation(
        name=name, num_ground_truth_tracks=len(track_ids)
    )
    for threshold in iou_thresholds:
        true_positives = sum(1 for iou in ious if iou > threshold)
        precision = true_positives / total_tracker_boxes if total_tracker_boxes else 0.0
        recall = (
            true_positives / total_ground_truth_boxes if total_ground_truth_boxes else 0.0
        )
        evaluation.by_threshold[threshold] = PrecisionRecall(
            precision=precision,
            recall=recall,
            true_positives=true_positives,
            total_tracker_boxes=total_tracker_boxes,
            total_ground_truth_boxes=total_ground_truth_boxes,
        )
    return evaluation


def sweep_iou_thresholds(
    evaluations: Sequence[RecordingEvaluation],
) -> Dict[float, PrecisionRecall]:
    """Weighted-average precision/recall per threshold across recordings.

    Weights are each recording's ground-truth track count, as in the
    paper's Section III-C.
    """
    if not evaluations:
        return {}
    thresholds = evaluations[0].thresholds()
    combined: Dict[float, PrecisionRecall] = {}
    for threshold in thresholds:
        combined[threshold] = weighted_average(
            [e.by_threshold[threshold] for e in evaluations],
            [e.num_ground_truth_tracks for e in evaluations],
        )
    return combined


def weighted_average(
    results: Sequence[PrecisionRecall], weights: Sequence[float]
) -> PrecisionRecall:
    """Weighted average of precision/recall values.

    The supporting counts are summed so the combined object still reports
    meaningful totals.
    """
    if len(results) != len(weights):
        raise ValueError(
            f"results ({len(results)}) and weights ({len(weights)}) must have equal length"
        )
    if not results:
        raise ValueError("cannot average zero results")
    total_weight = float(sum(weights))
    if total_weight <= 0:
        raise ValueError("total weight must be positive")
    precision = sum(r.precision * w for r, w in zip(results, weights)) / total_weight
    recall = sum(r.recall * w for r, w in zip(results, weights)) / total_weight
    return PrecisionRecall(
        precision=precision,
        recall=recall,
        true_positives=sum(r.true_positives for r in results),
        total_tracker_boxes=sum(r.total_tracker_boxes for r in results),
        total_ground_truth_boxes=sum(r.total_ground_truth_boxes for r in results),
    )

"""Both scorers against a naive oracle, plus properties of the shared alignment.

The oracle aligns by a linear scan over every report time (nearest within
the tolerance, inclusive, earliest on a tie) and calls ``match_frame`` once
per instant and threshold.  The scorers align by binary search and match
each instant once for every threshold, so they must reproduce it exactly.
"""

from __future__ import annotations

from dataclasses import replace

from hypothesis import given, settings, strategies as st

import repro.evaluation.matching as matching
from repro.evaluation.matching import match_frame
from repro.evaluation.mot_metrics import MotSummary, compute_mot_summary
from repro.evaluation.precision_recall import DEFAULT_IOU_THRESHOLDS, evaluate_recording
from repro.runtime.aggregate import merge_mot_summaries
from repro.simulation.ground_truth import GroundTruthBox, GroundTruthFrame
from repro.trackers.base import TrackObservation
from repro.utils.geometry import BoundingBox

TOLERANCE_US = 20_000

#: Report offsets from a GT instant: exactly at, just inside and just past
#: the tolerance on both sides, and half of it, which ties a report either
#: side of an instant (instants sit on a half-tolerance grid).
OFFSETS_US = (
    -TOLERANCE_US - 1, -TOLERANCE_US, -TOLERANCE_US + 1, -TOLERANCE_US // 2, 0,
    TOLERANCE_US // 2, TOLERANCE_US - 1, TOLERANCE_US, TOLERANCE_US + 1,
)

#: Alignment tolerances: the non-negative offsets, and anything up to twice TOLERANCE_US.
tolerances = st.one_of(st.sampled_from(OFFSETS_US[4:]), st.integers(0, 2 * TOLERANCE_US))

#: Boxes on a coarse grid, so that IoUs often equal a swept threshold exactly.
boxes = st.builds(
    BoundingBox, *[st.sampled_from((0, 5, 10, 15))] * 2, *[st.sampled_from((10, 20))] * 2
)


@st.composite
def recordings(draw):
    """(observations, ground truth) drawing boxes from one small shared pool."""
    pool = draw(st.lists(boxes, min_size=1, max_size=5))
    pick = st.sampled_from(pool)
    slots = draw(st.lists(st.integers(0, 12), unique=True, max_size=6))
    ground_truth = [
        GroundTruthFrame(
            t_us=slot * TOLERANCE_US // 2,
            boxes=[
                GroundTruthBox(track_id=track_id, object_class="car", box=draw(pick))
                for track_id in draw(st.lists(st.integers(0, 3), unique=True, max_size=3))
            ],
        )
        for slot in slots
    ]
    report_times = {
        slot * TOLERANCE_US // 2 + offset
        for slot, offset in draw(
            st.lists(st.tuples(st.integers(0, 12), st.sampled_from(OFFSETS_US)), max_size=8)
        )
    }
    observations = [
        TrackObservation(track_id=draw(st.integers(0, 4)), box=draw(pick), t_us=t_us)
        for t_us in sorted(report_times)
        for _ in range(draw(st.integers(1, 3)))
    ]
    return observations, ground_truth


def naive_align(observations, ground_truth, tolerance_us):
    by_time = {}
    for observation in observations:
        by_time.setdefault(observation.t_us, []).append(observation)
    aligned = []
    for frame in ground_truth:
        best = None
        for t in sorted(by_time):
            delta = abs(t - frame.t_us)
            if delta <= tolerance_us and (best is None or delta < abs(best - frame.t_us)):
                best = t
        aligned.append((frame, by_time[best] if best is not None else []))
    return aligned


def naive_match(frame, frame_observations, threshold):
    return match_frame([o.box for o in frame_observations], [g.box for g in frame.boxes], threshold)


def naive_counts(observations, ground_truth, threshold, tolerance_us):
    """(true positives, tracker boxes, GT boxes) with one match per instant."""
    matches = [
        naive_match(frame, frame_observations, threshold)
        for frame, frame_observations in naive_align(observations, ground_truth, tolerance_us)
    ]
    return (
        sum(m.num_true_positives for m in matches),
        sum(m.num_tracker_boxes for m in matches),
        sum(m.num_ground_truth_boxes for m in matches),
    )


def naive_mot(observations, ground_truth, threshold, tolerance_us):
    misses = false_positives = id_switches = gt_boxes = matches = 0
    iou_sum = 0.0
    previous = {}
    for frame, frame_observations in naive_align(observations, ground_truth, tolerance_us):
        match = naive_match(frame, frame_observations, threshold)
        misses += match.num_false_negatives
        false_positives += match.num_false_positives
        gt_boxes += match.num_ground_truth_boxes
        matches += match.num_true_positives
        for tracker_index, gt_index, iou in match.true_positives:
            iou_sum += iou
            gt_id = frame.boxes[gt_index].track_id
            tracker_id = frame_observations[tracker_index].track_id
            id_switches += previous.get(gt_id, tracker_id) != tracker_id
            previous[gt_id] = tracker_id
    return MotSummary(
        mota=1.0 - (misses + false_positives + id_switches) / gt_boxes if gt_boxes else 0.0,
        motp=iou_sum / matches if matches else 0.0,
        num_misses=misses,
        num_false_positives=false_positives,
        num_id_switches=id_switches,
        num_ground_truth_boxes=gt_boxes,
        num_matches=matches,
    )


def mot(observations, ground_truth, tolerance_us=TOLERANCE_US):
    return compute_mot_summary(
        observations, ground_truth, iou_threshold=0.3, alignment_tolerance_us=tolerance_us
    )


def evaluate(observations, ground_truth, tolerance_us=TOLERANCE_US):
    return evaluate_recording(
        observations, ground_truth, alignment_tolerance_us=tolerance_us
    ).by_threshold


class TestAgainstNaiveOracle:
    @settings(deadline=None, max_examples=150)
    @given(recordings())
    def test_mot_summary_equals_oracle(self, recording):
        observations, ground_truth = recording
        assert mot(observations, ground_truth) == naive_mot(
            observations, ground_truth, 0.3, TOLERANCE_US
        )

    @settings(deadline=None, max_examples=150)
    @given(recordings())
    def test_precision_recall_equals_oracle_at_every_threshold(self, recording):
        observations, ground_truth = recording
        for threshold, result in evaluate(observations, ground_truth).items():
            true_positives, tracker_boxes, gt_boxes = naive_counts(
                observations, ground_truth, threshold, TOLERANCE_US
            )
            assert (
                result.true_positives, result.total_tracker_boxes, result.total_ground_truth_boxes
            ) == (true_positives, tracker_boxes, gt_boxes)
            assert result.precision == (true_positives / tracker_boxes if tracker_boxes else 0.0)
            assert result.recall == (true_positives / gt_boxes if gt_boxes else 0.0)


class TestScoringProperties:
    @settings(deadline=None)
    @given(recordings(), tolerances, tolerances)
    def test_widening_the_tolerance_never_loses_a_match(self, recording, narrow, wide):
        observations, ground_truth = recording
        narrow, wide = sorted((narrow, wide))
        assert mot(observations, ground_truth, wide).num_matches >= mot(
            observations, ground_truth, narrow
        ).num_matches
        narrow_pr = evaluate(observations, ground_truth, narrow)
        for threshold, result in evaluate(observations, ground_truth, wide).items():
            assert result.true_positives >= narrow_pr[threshold].true_positives

    @settings(deadline=None)
    @given(recordings())
    def test_precision_and_recall_stay_in_unit_interval(self, recording):
        observations, ground_truth = recording
        results = list(evaluate(observations, ground_truth).values())
        results.append(mot(observations, ground_truth))
        for result in results:
            assert 0.0 <= result.precision <= 1.0
            assert 0.0 <= result.recall <= 1.0

    @settings(deadline=None)
    @given(recordings(), recordings())
    def test_merged_summaries_count_like_the_concatenation(self, first, second):
        """The second recording lies past the tolerance, with disjoint track ids."""
        first_times = [o.t_us for o in first[0]] + [f.t_us for f in first[1]] or [0]
        second_times = [o.t_us for o in second[0]] + [f.t_us for f in second[1]] or [0]
        shift = max(first_times) - min(second_times) + TOLERANCE_US + 1
        observations = [
            replace(o, t_us=o.t_us + shift, track_id=o.track_id + 100) for o in second[0]
        ]
        ground_truth = [
            GroundTruthFrame(
                t_us=frame.t_us + shift,
                boxes=[replace(box, track_id=box.track_id + 100) for box in frame.boxes],
            )
            for frame in second[1]
        ]
        merged = merge_mot_summaries([mot(*first), mot(observations, ground_truth)])
        whole = mot(first[0] + observations, first[1] + ground_truth)
        fields = ("num_misses", "num_false_positives", "num_id_switches",
                  "num_ground_truth_boxes", "num_matches", "mota")
        assert [getattr(merged, f) for f in fields] == [getattr(whole, f) for f in fields]


def test_each_instant_is_assigned_once_for_every_threshold(monkeypatch):
    calls = []
    assign = matching.iou_assignment

    def counting(tracks, detections, *args, **kwargs):
        calls.append(len(tracks))
        return assign(tracks, detections, *args, **kwargs)

    monkeypatch.setattr(matching, "iou_assignment", counting)
    box = BoundingBox(10, 10, 20, 20)
    ground_truth = [
        GroundTruthFrame(t_us=t, boxes=[GroundTruthBox(0, "car", box)] if t != 264_000 else [])
        for t in range(0, 330_000, 66_000)
    ]
    # The instant at 198 ms has no report; the one at 264 ms has no ground truth.
    observations = [
        TrackObservation(track_id=1, box=box, t_us=t) for t in (0, 66_000, 132_000, 264_000)
    ]
    assert len(DEFAULT_IOU_THRESHOLDS) == 7
    evaluate_recording(observations, ground_truth)
    assert len(calls) == 3
    calls.clear()
    compute_mot_summary(observations, ground_truth)
    assert len(calls) == 3

"""Tests for the overlap-based tracker (Section II-C steps 1-5)."""

from __future__ import annotations

import pytest

from repro.core.histogram_rpn import RegionProposal
from repro.core.overlap_tracker import OverlapTracker, OverlapTrackerConfig
from repro.utils.geometry import BoundingBox


def proposal(x, y, w=30, h=20):
    box = BoundingBox(x, y, w, h)
    return RegionProposal(box=box, event_count=int(box.area * 0.5), density=0.5)


def run_frames(tracker, frames):
    """Feed a list of per-frame proposal lists; return per-frame observations."""
    outputs = []
    for index, proposals in enumerate(frames):
        outputs.append(tracker.process_frame(proposals, t_us=index * 66_000))
    return outputs


class TestSeedingAndConfirmation:
    def test_new_proposal_seeds_tentative_tracker(self):
        tracker = OverlapTracker(OverlapTrackerConfig(min_track_age_frames=2))
        first = tracker.process_frame([proposal(50, 60)], 0)
        assert first == []  # too young to be reported
        assert tracker.num_active_tracks == 1

    def test_track_confirmed_after_min_age(self):
        tracker = OverlapTracker(OverlapTrackerConfig(min_track_age_frames=2))
        outputs = run_frames(tracker, [[proposal(50, 60)], [proposal(54, 60)]])
        assert len(outputs[1]) == 1
        assert outputs[1][0].track_id == 1

    def test_max_trackers_respected(self):
        tracker = OverlapTracker(OverlapTrackerConfig(max_trackers=2))
        proposals = [proposal(10, 10), proposal(80, 80), proposal(150, 150), proposal(10, 150)]
        tracker.process_frame(proposals, 0)
        assert tracker.num_active_tracks == 2
        assert tracker.free_slots == 0

    def test_reset_clears_state(self):
        tracker = OverlapTracker()
        tracker.process_frame([proposal(10, 10)], 0)
        tracker.reset()
        assert tracker.num_active_tracks == 0
        assert tracker.frames_processed == 0


class TestTrackingAndPrediction:
    def test_track_follows_moving_object(self):
        tracker = OverlapTracker()
        frames = [[proposal(50 + 4 * i, 60)] for i in range(10)]
        outputs = run_frames(tracker, frames)
        final = outputs[-1][0]
        assert final.box.x == pytest.approx(50 + 4 * 9, abs=6)
        # Velocity converges to roughly 4 px/frame.
        assert final.velocity[0] == pytest.approx(4.0, abs=1.5)
        # The whole sequence keeps a single stable track id.
        track_ids = {o.track_id for frame in outputs for o in frame}
        assert len(track_ids) == 1

    def test_missed_frames_then_recovered(self):
        tracker = OverlapTracker(OverlapTrackerConfig(max_missed_frames=3))
        frames = [[proposal(50 + 4 * i, 60)] for i in range(5)]
        frames += [[], []]  # two frames with no proposals
        frames += [[proposal(50 + 4 * 7, 60)]]
        outputs = run_frames(tracker, frames)
        track_ids = {o.track_id for frame in outputs for o in frame}
        assert len(track_ids) == 1  # the original track survives the gap

    def test_track_dropped_after_too_many_misses(self):
        tracker = OverlapTracker(OverlapTrackerConfig(max_missed_frames=2))
        frames = [[proposal(50, 60)], [proposal(52, 60)], [], [], [], []]
        run_frames(tracker, frames)
        assert tracker.num_active_tracks == 0

    def test_coasting_track_moves_by_prediction(self):
        tracker = OverlapTracker(OverlapTrackerConfig(max_missed_frames=5, min_track_age_frames=1))
        frames = [[proposal(50 + 4 * i, 60)] for i in range(6)]
        outputs = run_frames(tracker, frames)
        x_before = outputs[-1][0].box.x
        coasted = tracker.process_frame([], 6 * 66_000)
        assert coasted[0].box.x > x_before

    def test_two_objects_two_tracks(self):
        tracker = OverlapTracker()
        frames = [
            [proposal(30 + 3 * i, 40), proposal(180 - 3 * i, 110)] for i in range(8)
        ]
        outputs = run_frames(tracker, frames)
        assert len(outputs[-1]) == 2
        track_ids = {o.track_id for o in outputs[-1]}
        assert len(track_ids) == 2


class TestFragmentationHandling:
    def test_fragmented_proposals_assigned_to_one_tracker(self):
        """Step 4: multiple proposals matching one tracker are merged."""
        tracker = OverlapTracker(OverlapTrackerConfig(min_track_age_frames=1))
        # Establish a wide track (a bus).
        run_frames(tracker, [[proposal(60, 60, 80, 30)], [proposal(64, 60, 80, 30)]])
        # The bus then fragments into front and rear blobs.
        fragments = [proposal(68, 60, 25, 30), proposal(120, 60, 25, 30)]
        output = tracker.process_frame(fragments, 2 * 66_000)
        assert len(output) == 1
        assert tracker.num_active_tracks == 1
        # The merged update covers both fragments.
        assert output[0].box.width >= 50

    def test_multiple_trackers_on_one_object_merged(self):
        """Step 5 without occlusion: co-moving trackers collapse into one."""
        config = OverlapTrackerConfig(min_track_age_frames=1, overlap_threshold=0.2)
        tracker = OverlapTracker(config)
        # Frame 0: two fragments seed two trackers (they move together).
        tracker.process_frame([proposal(60, 60, 20, 30), proposal(90, 60, 20, 30)], 0)
        tracker.process_frame([proposal(62, 60, 20, 30), proposal(92, 60, 20, 30)], 66_000)
        assert tracker.num_active_tracks == 2
        # Frame 2: the object is detected as one large proposal covering both.
        tracker.process_frame([proposal(62, 60, 55, 30)], 2 * 66_000)
        assert tracker.num_active_tracks == 1
        assert tracker.merges_performed >= 1


class TestOcclusionHandling:
    def test_dynamic_occlusion_keeps_both_trackers(self):
        """Step 5 with occlusion: approaching tracks coast on predictions."""
        config = OverlapTrackerConfig(min_track_age_frames=1, overlap_threshold=0.2)
        tracker = OverlapTracker(config)
        # Two objects approaching each other.
        for i in range(6):
            left = proposal(40 + 8 * i, 60, 30, 20)
            right = proposal(160 - 8 * i, 60, 30, 20)
            tracker.process_frame([left, right], i * 66_000)
        assert tracker.num_active_tracks == 2
        # They now overlap: a single merged proposal appears.
        merged_frame = [proposal(100, 60, 60, 20)]
        output = tracker.process_frame(merged_frame, 6 * 66_000)
        # Both trackers survive the occlusion (coasting on prediction).
        assert tracker.num_active_tracks == 2
        assert tracker.occlusions_detected >= 1
        assert len(output) == 2
        # Velocities are retained (opposite signs).
        velocities = sorted(o.velocity[0] for o in output)
        assert velocities[0] < 0 < velocities[1]


class TestStatisticsAndConfig:
    def test_mean_active_trackers(self):
        tracker = OverlapTracker()
        run_frames(tracker, [[proposal(50, 60)], [proposal(54, 60)], [proposal(58, 60)]])
        assert tracker.mean_active_trackers == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_trackers", 0),
            ("overlap_threshold", 0.0),
            ("overlap_threshold", 1.5),
            ("prediction_weight", -0.1),
            ("prediction_weight", 2.0),
            ("velocity_smoothing", -0.1),
            ("velocity_smoothing", 1.1),
            ("size_smoothing", 1.5),
            ("occlusion_lookahead_frames", -1),
            ("min_track_age_frames", -1),
            ("max_missed_frames", -1),
        ],
    )
    def test_invalid_config(self, field, value):
        with pytest.raises(ValueError, match=field):
            OverlapTrackerConfig(**{field: value})

    def test_empty_frames_are_fine(self):
        tracker = OverlapTracker()
        assert tracker.process_frame([], 0) == []
        assert tracker.mean_active_trackers == 0.0


class TestMatchingRule:
    """Step 2: a match needs the overlap to cover a fraction of *either* box."""

    def test_small_proposal_inside_large_tracker_matches(self):
        tracker = OverlapTracker(OverlapTrackerConfig(min_track_age_frames=1))
        tracker.process_frame([proposal(60, 60, 80, 30)], 0)
        # 100 px^2 of overlap is 4% of the tracker but all of the proposal.
        output = tracker.process_frame([proposal(100, 70, 10, 10)], 66_000)
        assert tracker.num_active_tracks == 1
        assert [o.track_id for o in output] == [1]

    def test_weak_overlap_seeds_a_new_tracker(self):
        tracker = OverlapTracker(OverlapTrackerConfig(min_track_age_frames=1))
        tracker.process_frame([proposal(50, 60)], 0)
        # A 5 px sliver (1/6 of each 30x20 box) is under the 0.25 threshold.
        tracker.process_frame([proposal(75, 60)], 66_000)
        assert tracker.num_active_tracks == 2

    @pytest.mark.parametrize("weight, expected_x", [(0.0, 60.0), (0.5, 55.0), (1.0, 50.0)])
    def test_prediction_weight_blends_prediction_and_proposal(self, weight, expected_x):
        config = OverlapTrackerConfig(min_track_age_frames=1, prediction_weight=weight)
        tracker = OverlapTracker(config)
        tracker.process_frame([proposal(50, 60)], 0)  # seeded at rest
        (observation,) = tracker.process_frame([proposal(60, 60)], 66_000)
        assert observation.box.x == pytest.approx(expected_x)


class TestSlotLifecycle:
    def test_track_ids_are_never_reused(self):
        config = OverlapTrackerConfig(min_track_age_frames=1, max_missed_frames=0)
        tracker = OverlapTracker(config)
        outputs = run_frames(
            tracker,
            [
                [proposal(50, 60), proposal(150, 120)],
                [proposal(150, 120)],  # track 1 misses once and is freed
                [proposal(50, 60), proposal(150, 120)],
            ],
        )
        assert sorted(o.track_id for o in outputs[0]) == [1, 2]
        assert [o.track_id for o in outputs[1]] == [2]
        assert sorted(o.track_id for o in outputs[2]) == [2, 3]

    def test_slot_freed_this_frame_seeds_an_unmatched_proposal(self):
        config = OverlapTrackerConfig(
            max_trackers=1, min_track_age_frames=1, max_missed_frames=0
        )
        tracker = OverlapTracker(config)
        tracker.process_frame([proposal(10, 10), proposal(150, 150)], 0)
        assert tracker.num_active_tracks == 1  # only the first proposal fits
        (observation,) = tracker.process_frame([proposal(150, 150)], 66_000)
        assert observation.track_id == 2
        assert observation.box.x == pytest.approx(150)

    @pytest.mark.parametrize("min_age, first_reported_frame", [(0, 0), (1, 0), (2, 1), (3, 2)])
    def test_first_report_after_min_track_age(self, min_age, first_reported_frame):
        tracker = OverlapTracker(OverlapTrackerConfig(min_track_age_frames=min_age))
        outputs = run_frames(tracker, [[proposal(50 + 4 * i, 60)] for i in range(5)])
        reported = [index for index, frame in enumerate(outputs) if frame]
        assert reported == list(range(first_reported_frame, 5))

    @pytest.mark.parametrize("max_missed", [0, 1, 3])
    def test_track_survives_exactly_max_missed_frames(self, max_missed):
        tracker = OverlapTracker(OverlapTrackerConfig(max_missed_frames=max_missed))
        tracker.process_frame([proposal(50, 60)], 0)
        run_frames(tracker, [[]] * max_missed)
        assert tracker.num_active_tracks == 1
        tracker.process_frame([], 66_000)
        assert tracker.num_active_tracks == 0


class TestOcclusionVersusFragmentation:
    def test_co_moving_fragments_merge_into_the_oldest_tracker(self):
        config = OverlapTrackerConfig(min_track_age_frames=1)
        tracker = OverlapTracker(config)
        tracker.process_frame([proposal(60, 60, 20, 30)], 0)
        tracker.process_frame([proposal(60, 60, 20, 30), proposal(90, 60, 20, 30)], 66_000)
        assert tracker.num_active_tracks == 2
        output = tracker.process_frame([proposal(60, 60, 50, 30)], 2 * 66_000)
        assert [o.track_id for o in output] == [1]
        assert tracker.merges_performed == 1
        assert tracker.occlusions_detected == 0

    def test_zero_lookahead_treats_approaching_tracks_as_fragments(self):
        """With n = 0 no future overlap is checked, so step 5 merges."""
        config = OverlapTrackerConfig(
            min_track_age_frames=1, overlap_threshold=0.2, occlusion_lookahead_frames=0
        )
        tracker = OverlapTracker(config)
        for i in range(6):
            left = proposal(40 + 8 * i, 60, 30, 20)
            right = proposal(160 - 8 * i, 60, 30, 20)
            tracker.process_frame([left, right], i * 66_000)
        tracker.process_frame([proposal(100, 60, 60, 20)], 6 * 66_000)
        assert tracker.num_active_tracks == 1
        assert tracker.occlusions_detected == 0
        assert tracker.merges_performed == 1

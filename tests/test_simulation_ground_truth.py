"""Tests for ground-truth sampling and serialisation."""

from __future__ import annotations

import pytest

from repro.simulation.ground_truth import (
    GroundTruthBox,
    GroundTruthFrame,
    ground_truth_frames_from_dict,
    ground_truth_frames_to_dict,
    sample_ground_truth,
)
from repro.simulation.objects import OBJECT_TEMPLATES, ObjectClass, SceneObject
from repro.simulation.trajectories import ConstantVelocityTrajectory
from repro.utils.geometry import BoundingBox


def _car(object_id=0, x=50.0, speed=60.0, t_start=0, t_end=5_000_000):
    template = OBJECT_TEMPLATES[ObjectClass.CAR]
    trajectory = ConstantVelocityTrajectory((x, 60.0), (speed, 0.0), t_start, t_end)
    return SceneObject(object_id=object_id, template=template, trajectory=trajectory)


class TestSampleGroundTruth:
    def test_annotates_visible_objects(self):
        frames = sample_ground_truth([_car()], [0, 66_000, 132_000], 240, 180)
        assert len(frames) == 3
        assert all(len(frame) == 1 for frame in frames)
        assert frames[0].boxes[0].object_class == "car"

    def test_inactive_objects_skipped(self):
        frames = sample_ground_truth([_car(t_start=1_000_000)], [0], 240, 180)
        assert len(frames[0]) == 0

    def test_object_outside_frame_skipped(self):
        frames = sample_ground_truth([_car(x=-500.0, speed=0.001)], [0], 240, 180)
        assert len(frames[0]) == 0

    def test_barely_entered_object_skipped(self):
        """Objects with only a sliver visible are not annotated."""
        car = _car(x=-44.0, speed=0.001)  # ~1 px of a 45 px car visible
        frames = sample_ground_truth([car], [0], 240, 180)
        assert len(frames[0]) == 0

    def test_clipped_box_when_partially_visible(self):
        car = _car(x=-10.0, speed=0.001)
        frames = sample_ground_truth([car], [0], 240, 180)
        assert len(frames[0]) == 1
        box = frames[0].boxes[0].box
        assert box.x == 0
        assert box.width == pytest.approx(OBJECT_TEMPLATES[ObjectClass.CAR].width_px - 10)

    def test_track_ids_preserved(self):
        frames = sample_ground_truth([_car(object_id=7)], [0], 240, 180)
        assert frames[0].track_ids() == [7]


class TestSerialisation:
    def test_box_round_trip(self):
        box = GroundTruthBox(track_id=2, object_class="bus", box=BoundingBox(1, 2, 3, 4))
        restored = GroundTruthBox.from_dict(box.to_dict())
        assert restored == box

    def test_frame_round_trip(self):
        frame = GroundTruthFrame(
            t_us=500,
            boxes=[GroundTruthBox(1, "car", BoundingBox(0, 0, 10, 10))],
        )
        restored = GroundTruthFrame.from_dict(frame.to_dict())
        assert restored.t_us == 500
        assert restored.boxes[0].track_id == 1
        assert restored.boxes[0].box == BoundingBox(0, 0, 10, 10)

    def test_frames_list_round_trip(self):
        frames = sample_ground_truth([_car()], [0, 66_000], 240, 180)
        data = ground_truth_frames_to_dict(frames)
        restored = ground_truth_frames_from_dict(data)
        assert len(restored) == len(frames)
        assert restored[0].boxes[0].box.x == pytest.approx(frames[0].boxes[0].box.x)

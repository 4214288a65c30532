"""Tests for event generation from moving objects."""

from __future__ import annotations

from repro.core.ebbi import events_to_binary_frame
from repro.events.types import is_time_sorted
from repro.simulation.event_generator import FoliageDistractor, ObjectEventGenerator
from repro.simulation.objects import OBJECT_TEMPLATES, ObjectClass, SceneObject
from repro.simulation.trajectories import ConstantVelocityTrajectory
from repro.utils.geometry import BoundingBox


def _make_object(object_class=ObjectClass.CAR, x=50.0, y=60.0, speed=60.0, object_id=0):
    template = OBJECT_TEMPLATES[object_class]
    trajectory = ConstantVelocityTrajectory((x, y), (speed, 0.0), 0, 10_000_000)
    return SceneObject(object_id=object_id, template=template, trajectory=trajectory)


class TestObjectEventGenerator:
    def test_events_fall_inside_object_box(self, rng):
        generator = ObjectEventGenerator(240, 180)
        scene_object = _make_object()
        events = generator.generate_for_object(scene_object, 0, 66_000, rng)
        assert len(events) > 0
        box = scene_object.bounding_box(33_000)
        assert events["x"].min() >= box.x - 2
        assert events["x"].max() <= box.x2 + 2
        assert events["y"].min() >= box.y - 2
        assert events["y"].max() <= box.y2 + 2
        assert is_time_sorted(events)

    def test_timestamps_within_interval(self, rng):
        generator = ObjectEventGenerator(240, 180)
        events = generator.generate_for_object(_make_object(), 100_000, 166_000, rng)
        assert events["t"].min() >= 100_000
        assert events["t"].max() < 166_000

    def test_faster_objects_emit_more_events(self, rng):
        generator = ObjectEventGenerator(240, 180)
        slow = generator.generate_for_object(_make_object(speed=10.0), 0, 66_000, rng)
        fast = generator.generate_for_object(_make_object(speed=90.0), 0, 66_000, rng)
        assert len(fast) > len(slow)

    def test_slow_objects_still_visible(self, rng):
        """Sub-pixel motion still produces some events (min_edge_activity)."""
        generator = ObjectEventGenerator(240, 180)
        events = generator.generate_for_object(_make_object(speed=2.0), 0, 66_000, rng)
        assert len(events) > 0

    def test_inactive_object_emits_nothing(self, rng):
        generator = ObjectEventGenerator(240, 180)
        scene_object = _make_object()
        events = generator.generate_for_object(scene_object, 20_000_000, 20_066_000, rng)
        assert len(events) == 0

    def test_object_outside_frame_emits_nothing(self, rng):
        generator = ObjectEventGenerator(240, 180)
        scene_object = _make_object(x=-500.0, speed=0.001)
        events = generator.generate_for_object(scene_object, 0, 66_000, rng)
        assert len(events) == 0

    def test_bus_fragments_into_sparse_interior(self, rng):
        """A bus EBBI has a mostly-empty interior (fragmentation driver)."""
        generator = ObjectEventGenerator(240, 180)
        bus = _make_object(ObjectClass.BUS, x=60.0, y=60.0, speed=50.0)
        events = generator.generate_for_object(bus, 0, 66_000, rng)
        frame = events_to_binary_frame(events, 240, 180)
        box = bus.bounding_box(33_000)
        interior = frame[
            int(box.y + 5) : int(box.y2 - 5), int(box.x + 12) : int(box.x2 - 12)
        ]
        edges = frame[int(box.y) : int(box.y2), int(box.x) : int(box.x + 4)]
        assert edges.mean() > interior.mean()

    def test_generate_for_objects_merges_sorted(self, rng):
        generator = ObjectEventGenerator(240, 180)
        objects = [_make_object(object_id=0), _make_object(x=150, object_id=1)]
        events = generator.generate_for_objects(objects, 0, 66_000, rng)
        assert is_time_sorted(events)
        assert len(events) > 0

    def test_empty_object_list(self, rng):
        generator = ObjectEventGenerator(240, 180)
        assert len(generator.generate_for_objects([], 0, 66_000, rng)) == 0

    def test_zero_interval(self, rng):
        generator = ObjectEventGenerator(240, 180)
        assert len(generator.generate_for_object(_make_object(), 100, 100, rng)) == 0


class TestFoliageDistractor:
    def test_events_confined_to_region(self, rng):
        region = BoundingBox(10, 120, 40, 40)
        distractor = FoliageDistractor(region=region, events_per_pixel_per_s=3.0)
        events = distractor.generate(240, 180, 0, 500_000, rng)
        assert len(events) > 0
        assert events["x"].min() >= 10 and events["x"].max() < 50
        assert events["y"].min() >= 120 and events["y"].max() < 160

    def test_rate_controls_count(self, rng):
        region = BoundingBox(0, 0, 50, 50)
        sparse = FoliageDistractor(region, events_per_pixel_per_s=0.5)
        dense = FoliageDistractor(region, events_per_pixel_per_s=5.0)
        sparse_count = len(sparse.generate(240, 180, 0, 1_000_000, rng))
        dense_count = len(dense.generate(240, 180, 0, 1_000_000, rng))
        assert dense_count > 3 * sparse_count

    def test_region_outside_frame(self, rng):
        distractor = FoliageDistractor(BoundingBox(500, 500, 10, 10), 5.0)
        assert len(distractor.generate(240, 180, 0, 1_000_000, rng)) == 0

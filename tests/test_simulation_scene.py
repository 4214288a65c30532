"""Tests for scene assembly and rendering."""

from __future__ import annotations

import pytest

from repro.events.noise import BackgroundActivityNoise
from repro.simulation.event_generator import FoliageDistractor
from repro.simulation.objects import OBJECT_TEMPLATES, ObjectClass, SceneObject
from repro.simulation.scene import Scene, SceneConfig
from repro.simulation.trajectories import crossing_trajectory
from repro.utils.geometry import BoundingBox


class TestSceneConstruction:
    def test_duplicate_object_id_rejected(self, single_car_scene):
        template = OBJECT_TEMPLATES[ObjectClass.CAR]
        trajectory = crossing_trajectory(240, 50, 60.0, 0, template.width_px)
        with pytest.raises(ValueError, match="duplicate"):
            single_car_scene.add_object(
                SceneObject(object_id=0, template=template, trajectory=trajectory)
            )

    def test_allocate_object_id_is_unique(self, single_car_scene):
        first = single_car_scene.allocate_object_id()
        second = single_car_scene.allocate_object_id()
        assert first != second
        assert first > 0  # id 0 is taken by the fixture's car

    def test_roe_boxes_from_distractors(self):
        config = SceneConfig(
            distractors=[FoliageDistractor(BoundingBox(0, 140, 50, 40))]
        )
        scene = Scene(config)
        roe = scene.roe_boxes()
        assert len(roe) == 1
        assert roe[0].contains_box(BoundingBox(0, 140, 50, 40))


class TestSceneRendering:
    def test_render_produces_events_and_ground_truth(self, single_car_scene):
        result = single_car_scene.render(duration_us=2_000_000)
        assert result.num_events > 0
        assert result.duration_s <= 2.0 + 0.1
        assert len(result.ground_truth) == 2_000_000 // 66_000 + (
            1 if 2_000_000 % 66_000 > 33_000 else 0
        ) or len(result.ground_truth) > 0

    def test_ground_truth_tracks_the_moving_car(self, single_car_scene):
        result = single_car_scene.render(duration_us=3_000_000)
        xs = [
            frame.boxes[0].box.x
            for frame in result.ground_truth
            if len(frame.boxes) == 1
        ]
        assert len(xs) > 10
        # The car moves left to right, so annotated x increases monotonically.
        assert all(b >= a for a, b in zip(xs, xs[1:]))

    def test_noise_free_scene_has_fewer_events(self, small_geometry):
        def build(noise_rate):
            config = SceneConfig(
                geometry=small_geometry,
                noise=BackgroundActivityNoise(rate_hz_per_pixel=noise_rate),
                seed=5,
            )
            scene = Scene(config)
            template = OBJECT_TEMPLATES[ObjectClass.CAR]
            scene.add_object(
                SceneObject(
                    object_id=0,
                    template=template,
                    trajectory=crossing_trajectory(240, 60, 60.0, 0, template.width_px),
                )
            )
            return scene.render(duration_us=1_000_000).num_events

        assert build(2.0) > build(0.0)

    def test_no_noise_model(self, small_geometry):
        config = SceneConfig(geometry=small_geometry, noise=None, seed=2)
        scene = Scene(config)
        result = scene.render(duration_us=500_000)
        assert result.num_events == 0  # no objects, no noise

    def test_render_is_deterministic_for_fixed_seed(self, small_geometry):
        def render_once():
            config = SceneConfig(geometry=small_geometry, seed=9)
            scene = Scene(config)
            template = OBJECT_TEMPLATES[ObjectClass.BIKE]
            scene.add_object(
                SceneObject(
                    object_id=0,
                    template=template,
                    trajectory=crossing_trajectory(240, 70, 40.0, 0, template.width_px),
                )
            )
            return scene.render(duration_us=1_000_000)

        first = render_once()
        second = render_once()
        assert first.num_events == second.num_events
        assert (first.stream.events == second.stream.events).all()

    def test_invalid_duration(self, single_car_scene):
        with pytest.raises(ValueError):
            single_car_scene.render(duration_us=0)

    def test_num_ground_truth_tracks(self, two_car_scene):
        result = two_car_scene.render(duration_us=2_000_000)
        assert result.num_ground_truth_tracks() == 2

    def test_distractor_adds_events_in_region(self, small_geometry):
        region = BoundingBox(0, 140, 40, 40)
        config = SceneConfig(
            geometry=small_geometry,
            noise=None,
            distractors=[FoliageDistractor(region, events_per_pixel_per_s=3.0)],
            seed=3,
        )
        scene = Scene(config)
        result = scene.render(duration_us=1_000_000)
        assert result.num_events > 0
        assert result.stream.events["y"].min() >= 140

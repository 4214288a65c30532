"""Tests for the traffic scenario builders."""

from __future__ import annotations

import pytest

from repro.sensor.davis import SensorGeometry
from repro.simulation.objects import ObjectClass
from repro.simulation.traffic import (
    TrafficScenarioConfig,
    build_traffic_scene,
    default_foliage,
)


class TestTrafficScenarioConfig:
    def test_defaults_are_valid(self):
        config = TrafficScenarioConfig()
        assert config.duration_s > 0
        assert sum(config.effective_class_mix().values()) == pytest.approx(1.0)

    def test_humans_excluded_by_default(self):
        mix = TrafficScenarioConfig().effective_class_mix()
        assert ObjectClass.HUMAN not in mix

    def test_humans_included_when_requested(self):
        mix = TrafficScenarioConfig(include_humans=True).effective_class_mix()
        assert ObjectClass.HUMAN in mix
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TrafficScenarioConfig(duration_s=0)
        with pytest.raises(ValueError):
            TrafficScenarioConfig(arrival_rate_per_s=-1)
        with pytest.raises(ValueError):
            TrafficScenarioConfig(lane_y_positions=[])
        with pytest.raises(ValueError):
            TrafficScenarioConfig(object_scale=0)
        with pytest.raises(ValueError):
            TrafficScenarioConfig(stop_and_go_probability=1.5)

    def test_zero_probability_mix_rejected(self):
        config = TrafficScenarioConfig(class_mix={ObjectClass.HUMAN: 1.0})
        with pytest.raises(ValueError):
            config.effective_class_mix()


class TestBuildTrafficScene:
    def test_arrival_rate_controls_object_count(self):
        sparse = build_traffic_scene(
            TrafficScenarioConfig(duration_s=120, arrival_rate_per_s=0.05, seed=1)
        )
        dense = build_traffic_scene(
            TrafficScenarioConfig(duration_s=120, arrival_rate_per_s=0.5, seed=1)
        )
        assert len(dense.objects) > len(sparse.objects)

    def test_objects_use_configured_lanes(self):
        lanes = (30.0, 90.0)
        scene = build_traffic_scene(
            TrafficScenarioConfig(
                duration_s=200, arrival_rate_per_s=0.3, lane_y_positions=lanes, seed=3
            )
        )
        assert len(scene.objects) > 0
        for scene_object in scene.objects:
            y = scene_object.trajectory.position(scene_object.trajectory.t_start_us)[1]
            assert y in lanes

    def test_lens_scales_object_sizes(self):
        eng_geometry = SensorGeometry(lens_focal_length_mm=12.0)
        lt4_geometry = SensorGeometry(lens_focal_length_mm=6.0)
        eng = build_traffic_scene(
            TrafficScenarioConfig(
                duration_s=300, arrival_rate_per_s=0.3, geometry=eng_geometry, seed=7
            )
        )
        lt4 = build_traffic_scene(
            TrafficScenarioConfig(
                duration_s=300, arrival_rate_per_s=0.3, geometry=lt4_geometry, seed=7
            )
        )
        mean_width_eng = sum(o.width for o in eng.objects) / len(eng.objects)
        mean_width_lt4 = sum(o.width for o in lt4.objects) / len(lt4.objects)
        assert mean_width_lt4 == pytest.approx(mean_width_eng / 2, rel=0.3)

    def test_deterministic_for_seed(self):
        config = TrafficScenarioConfig(duration_s=100, arrival_rate_per_s=0.3, seed=11)
        first = build_traffic_scene(config)
        second = build_traffic_scene(config)
        assert len(first.objects) == len(second.objects)
        for a, b in zip(first.objects, second.objects):
            assert a.object_class == b.object_class
            assert a.trajectory.t_start_us == b.trajectory.t_start_us

    def test_stop_and_go_objects_created(self):
        scene = build_traffic_scene(
            TrafficScenarioConfig(
                duration_s=200,
                arrival_rate_per_s=0.3,
                stop_and_go_probability=1.0,
                seed=5,
            )
        )
        from repro.simulation.trajectories import StopAndGoTrajectory

        assert len(scene.objects) > 0
        assert any(isinstance(o.trajectory, StopAndGoTrajectory) for o in scene.objects)

    def test_foliage_carried_into_scene(self):
        geometry = SensorGeometry()
        foliage = default_foliage(geometry)
        scene = build_traffic_scene(
            TrafficScenarioConfig(duration_s=30, foliage=foliage, seed=2)
        )
        assert len(scene.config.distractors) == 1
        assert len(scene.roe_boxes()) == 1

    def test_rendered_scene_is_processable(self):
        """A short rendered traffic scene feeds the pipeline without errors."""
        from repro.core import EbbiotConfig, EbbiotPipeline

        scene = build_traffic_scene(
            TrafficScenarioConfig(duration_s=5, arrival_rate_per_s=0.5, seed=21)
        )
        result = scene.render(duration_us=5_000_000)
        pipeline = EbbiotPipeline(EbbiotConfig())
        output = pipeline.process_stream(result.stream)
        assert output.num_frames > 0

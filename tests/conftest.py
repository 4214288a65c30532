"""Shared fixtures: small deterministic scenes, streams and pipelines."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import EbbiotConfig
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.sensor.davis import SensorGeometry
from repro.simulation.objects import OBJECT_TEMPLATES, ObjectClass, SceneObject
from repro.simulation.scene import Scene, SceneConfig
from repro.simulation.trajectories import crossing_trajectory
from repro.events.noise import BackgroundActivityNoise

# The analyzer's fixture trees contain deliberately-broken modules and a
# fake tests/test_event_path_parity.py; they are parsed by
# tests/test_analysis.py, never imported, and must not be collected.
collect_ignore = ["analysis_fixtures"]
collect_ignore_glob = ["analysis_fixtures/*"]


@pytest.fixture
def rng() -> np.random.Generator:
    """Deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_geometry() -> SensorGeometry:
    """Full DAVIS240 geometry (kept at paper resolution for realism)."""
    return SensorGeometry(width=240, height=180, lens_focal_length_mm=12.0)


@pytest.fixture
def simple_packet() -> np.ndarray:
    """A tiny hand-written event packet."""
    return make_packet(
        x=[10, 11, 12, 10, 50],
        y=[20, 20, 21, 22, 90],
        t=[100, 200, 300, 400, 500],
        p=[1, -1, 1, 1, -1],
    )


@pytest.fixture
def single_car_scene(small_geometry: SensorGeometry) -> Scene:
    """A scene with exactly one car crossing left to right and light noise."""
    config = SceneConfig(
        geometry=small_geometry,
        noise=BackgroundActivityNoise(rate_hz_per_pixel=0.2),
        seed=7,
    )
    scene = Scene(config)
    template = OBJECT_TEMPLATES[ObjectClass.CAR]
    trajectory = crossing_trajectory(
        width=small_geometry.width,
        y=70.0,
        speed_px_per_s=60.0,
        t_enter_us=0,
        object_width=template.width_px,
        direction=1,
    )
    scene.add_object(SceneObject(object_id=0, template=template, trajectory=trajectory))
    return scene


@pytest.fixture
def two_car_scene(small_geometry: SensorGeometry) -> Scene:
    """Two cars in different lanes moving in opposite directions (occlusion)."""
    config = SceneConfig(
        geometry=small_geometry,
        noise=BackgroundActivityNoise(rate_hz_per_pixel=0.2),
        seed=11,
    )
    scene = Scene(config)
    car = OBJECT_TEMPLATES[ObjectClass.CAR]
    van = OBJECT_TEMPLATES[ObjectClass.VAN]
    scene.add_object(
        SceneObject(
            object_id=0,
            template=car,
            trajectory=crossing_trajectory(240, 60.0, 70.0, 0, car.width_px, direction=1),
        )
    )
    scene.add_object(
        SceneObject(
            object_id=1,
            template=van,
            trajectory=crossing_trajectory(240, 85.0, 55.0, 0, van.width_px, direction=-1),
        )
    )
    return scene


@pytest.fixture
def single_car_stream(single_car_scene: Scene):
    """Rendered stream + ground truth of the single-car scene (5 seconds)."""
    return single_car_scene.render(duration_us=5_000_000)


@pytest.fixture
def paper_config() -> EbbiotConfig:
    """The paper's default EBBIOT configuration."""
    return EbbiotConfig()


@pytest.fixture
def constant_velocity_stream(small_geometry: SensorGeometry) -> EventStream:
    """A deterministic event stream tracing a small moving square (no noise)."""
    xs, ys, ts = [], [], []
    t = 0
    for step in range(60):
        x0 = 10 + step * 2
        for dx in range(8):
            for dy in range(8):
                xs.append(x0 + dx)
                ys.append(80 + dy)
                ts.append(t)
        t += 33_000
    packet = make_packet(xs, ys, ts, [1] * len(xs))
    return EventStream(packet, small_geometry.width, small_geometry.height)

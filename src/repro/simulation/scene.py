"""Scene assembly and event-stream synthesis.

A :class:`Scene` combines a sensor geometry, a set of moving objects,
optional static distractors and a background-noise model, and renders the
whole thing into a time-sorted event stream plus ground-truth annotations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.events.noise import BackgroundActivityNoise, HotPixelNoise
from repro.events.stream import EventStream
from repro.events.types import empty_packet, sort_packet
from repro.sensor.davis import SensorGeometry
from repro.simulation.event_generator import FoliageDistractor, ObjectEventGenerator
from repro.simulation.ground_truth import GroundTruthFrame, sample_ground_truth
from repro.simulation.objects import SceneObject
from repro.utils.geometry import BoundingBox

#: Rendering chunk size.  Events are generated chunk by chunk so object
#: motion within a chunk is small; 8 ms gives sub-pixel motion for all
#: realistic traffic speeds while keeping the Python loop short.
CHUNK_DURATION_US = 8_000


@dataclass
class SceneConfig:
    """Configuration of the scene renderer.

    Parameters
    ----------
    geometry:
        Sensor geometry (resolution and lens).
    noise:
        Background-activity noise model; ``None`` disables noise.
    hot_pixels:
        Optional hot-pixel noise model.
    distractors:
        Static foliage-like distractor regions.
    seed:
        Seed of the scene's random generator.
    """

    geometry: SensorGeometry = field(default_factory=SensorGeometry)
    noise: Optional[BackgroundActivityNoise] = field(
        default_factory=lambda: BackgroundActivityNoise(rate_hz_per_pixel=0.5)
    )
    hot_pixels: Optional[HotPixelNoise] = None
    distractors: List[FoliageDistractor] = field(default_factory=list)
    seed: int = 0


@dataclass
class SimulationResult:
    """Output of :meth:`Scene.render`: events plus ground truth."""

    stream: EventStream
    ground_truth: List[GroundTruthFrame]
    objects: List[SceneObject]
    config: SceneConfig

    @property
    def num_events(self) -> int:
        """Total number of events in the rendered stream."""
        return len(self.stream)

    @property
    def duration_s(self) -> float:
        """Rendered duration in seconds."""
        return self.stream.duration_s

    def num_ground_truth_tracks(self) -> int:
        """Number of distinct ground-truth tracks."""
        track_ids = set()
        for frame in self.ground_truth:
            track_ids.update(frame.track_ids())
        return len(track_ids)


class Scene:
    """A stationary-camera scene that renders objects into an event stream."""

    def __init__(self, config: SceneConfig) -> None:
        self.config = config
        self.objects: List[SceneObject] = []
        self._next_object_id = 0

    # -- scene construction ------------------------------------------------------------

    def add_object(self, scene_object: SceneObject) -> SceneObject:
        """Add a fully constructed object to the scene."""
        if any(o.object_id == scene_object.object_id for o in self.objects):
            raise ValueError(f"duplicate object_id {scene_object.object_id}")
        self.objects.append(scene_object)
        self._next_object_id = max(self._next_object_id, scene_object.object_id + 1)
        return scene_object

    def allocate_object_id(self) -> int:
        """Return a fresh unique object id."""
        object_id = self._next_object_id
        self._next_object_id += 1
        return object_id

    def roe_boxes(self) -> List[BoundingBox]:
        """Regions of exclusion covering the scene's static distractors.

        The paper assumes the ROE is provided manually by the operator; for
        the synthetic scene we derive it from the distractor regions, padded
        by one pixel.
        """
        return [d.region.expanded(1.0) for d in self.config.distractors]

    # -- rendering -----------------------------------------------------------------------

    def render(
        self,
        duration_us: int,
        ground_truth_interval_us: int = 66_000,
        t_start_us: int = 0,
    ) -> SimulationResult:
        """Render the scene into events and ground truth.

        Parameters
        ----------
        duration_us:
            Length of the rendered recording.
        ground_truth_interval_us:
            Spacing of the ground-truth annotation instants; defaults to the
            EBBIOT frame duration so GT instants align with frame midpoints.
        t_start_us:
            Start time of the recording.

        Returns
        -------
        SimulationResult
        """
        if duration_us <= 0:
            raise ValueError(f"duration_us must be positive, got {duration_us}")
        geometry = self.config.geometry
        rng = np.random.default_rng(self.config.seed)
        generator = ObjectEventGenerator(geometry.width, geometry.height)

        packets: List[np.ndarray] = []
        t_end_us = t_start_us + duration_us
        chunk_start = t_start_us
        while chunk_start < t_end_us:
            chunk_end = min(chunk_start + CHUNK_DURATION_US, t_end_us)
            active = [
                o
                for o in self.objects
                if o.is_active(chunk_start) or o.is_active(chunk_end - 1)
            ]
            if active:
                packets.append(
                    generator.generate_for_objects(active, chunk_start, chunk_end, rng)
                )
            for distractor in self.config.distractors:
                packets.append(
                    distractor.generate(
                        geometry.width, geometry.height, chunk_start, chunk_end, rng
                    )
                )
            chunk_start = chunk_end

        if self.config.noise is not None:
            packets.append(
                self.config.noise.generate(
                    geometry.width, geometry.height, t_start_us, t_end_us, rng
                )
            )
        if self.config.hot_pixels is not None:
            packets.append(
                self.config.hot_pixels.generate(
                    geometry.width, geometry.height, t_start_us, t_end_us, rng
                )
            )

        packets = [p for p in packets if len(p)]
        events = sort_packet(np.concatenate(packets)) if packets else empty_packet()
        stream = EventStream(events, geometry.width, geometry.height)

        # Ground truth sampled at frame midpoints so annotations line up with
        # the middle of each EBBI accumulation window.
        sample_times = list(
            range(
                t_start_us + ground_truth_interval_us // 2,
                t_end_us,
                ground_truth_interval_us,
            )
        )
        ground_truth = sample_ground_truth(
            self.objects, sample_times, geometry.width, geometry.height
        )
        return SimulationResult(
            stream=stream,
            ground_truth=ground_truth,
            objects=list(self.objects),
            config=self.config,
        )

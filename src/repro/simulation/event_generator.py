"""Event generation from moving objects.

A stationary neuromorphic sensor responds to temporal contrast: events are
generated where the image intensity changes, i.e. at the moving edges and
high-contrast texture of an object, roughly in proportion to how far the
object moved during the interval.  :class:`ObjectEventGenerator` implements
a per-interval approximation of that behaviour:

* the leading and trailing vertical edges, the top and bottom horizontal
  edges and a fixed set of interior texture lines sweep over pixels as the
  object moves; swept pixels emit events with per-feature densities;
* interior pixels away from texture emit events at a much lower density, so
  large plain-sided vehicles produce fragmented event blobs;
* objects moving at sub-pixel speed per interval still emit a reduced number
  of events (flicker/jitter of edges), so slow objects are dim but not
  invisible — matching the paper's note that humans need a longer exposure.

This is not a photometrically accurate ESIM-style simulator, but it produces
event streams whose framed (EBBI) appearance has the properties the EBBIOT
pipeline and its baselines are sensitive to: edge-dominated silhouettes,
fragmentation, density proportional to speed and size, and realistic event
counts per frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.events.types import EVENT_DTYPE, make_packet, sort_packet
from repro.simulation.objects import SceneObject
from repro.utils.geometry import BoundingBox, clip_box


@dataclass
class ObjectEventGenerator:
    """Generates events for scene objects over short time intervals.

    Parameters
    ----------
    width, height:
        Sensor resolution in pixels.
    edge_thickness_px:
        Thickness of the leading/trailing edge bands that emit events.
    min_edge_activity:
        Event-density multiplier applied when the object moves less than one
        pixel in the interval (sensor jitter keeps slow edges faintly
        visible).
    on_fraction:
        Fraction of generated events with ON polarity.  A moving object
        produces ON events at one edge and OFF at the other; the EBBI path
        ignores polarity so a simple split is sufficient.
    """

    width: int
    height: int
    edge_thickness_px: float = 2.0
    min_edge_activity: float = 0.25
    on_fraction: float = 0.5

    def generate_for_object(
        self,
        scene_object: SceneObject,
        t_start_us: int,
        t_end_us: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Events emitted by one object during ``[t_start_us, t_end_us)``."""
        return self.generate_for_objects([scene_object], t_start_us, t_end_us, rng)

    def generate_for_objects(
        self,
        scene_objects: List[SceneObject],
        t_start_us: int,
        t_end_us: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Events from all objects over the interval, merged and time sorted.

        Objects draw from ``rng`` in list order, region by region; their
        columns are packed into one packet, sorted once by ``(t, x, y, p)``.
        """
        columns = [
            self._sample_region(region, density, t_start_us, t_end_us, rng)
            for scene_object in scene_objects
            for region, density in self._regions(scene_object, t_start_us, t_end_us, rng)
        ]
        columns = [c for c in columns if c is not None]
        if not columns:
            return np.empty(0, dtype=EVENT_DTYPE)
        return sort_packet(make_packet(*(np.concatenate(field) for field in zip(*columns))))

    # -- internals --------------------------------------------------------------------

    def _regions(
        self,
        scene_object: SceneObject,
        t_start_us: int,
        t_end_us: int,
        rng: np.random.Generator,
    ) -> List[Tuple[BoundingBox, float]]:
        """The ``(region, events per pixel)`` pairs one object emits from."""
        if t_end_us <= t_start_us:
            return []
        if not (
            scene_object.is_active(t_start_us) or scene_object.is_active(t_end_us - 1)
        ):
            return []

        t_mid = (t_start_us + t_end_us) // 2
        box = scene_object.bounding_box(t_mid)
        visible = clip_box(box, self.width, self.height)
        if visible is None:
            return []

        # Distance moved during the interval controls overall event activity.
        start_box = scene_object.bounding_box(max(t_start_us, scene_object.trajectory.t_start_us))
        end_box = scene_object.bounding_box(min(t_end_us - 1, scene_object.trajectory.t_end_us - 1))
        displacement = abs(end_box.x - start_box.x) + abs(end_box.y - start_box.y)
        # Activity factor: proportional to motion, floored for slow objects.
        activity = max(min(displacement, 8.0), self.min_edge_activity)

        template = scene_object.template
        regions: List[Tuple[BoundingBox, float]] = []

        # Leading and trailing vertical edges (strongest event sources).
        edge_w = min(self.edge_thickness_px, box.width / 2.0)
        for edge_x in (box.x, box.x2 - edge_w):
            region = clip_box(
                BoundingBox(edge_x, box.y, edge_w, box.height), self.width, self.height
            )
            if region is not None:
                regions.append((region, template.edge_event_density * activity))

        # Top and bottom horizontal edges (weaker; they move parallel to the
        # horizontal motion so they mainly produce events from jitter).
        edge_h = min(self.edge_thickness_px, box.height / 2.0)
        horizontal_density = template.edge_event_density * activity * 0.35
        for edge_y in (box.y, box.y2 - edge_h):
            region = clip_box(
                BoundingBox(box.x, edge_y, box.width, edge_h), self.width, self.height
            )
            if region is not None:
                regions.append((region, horizontal_density))

        # Interior texture lines (windows / door seams / wheel arches).
        for offset in scene_object.texture_offsets(rng):
            line_x = box.x + offset * box.width
            region = clip_box(
                BoundingBox(line_x, box.y, edge_w, box.height), self.width, self.height
            )
            if region is not None:
                regions.append((region, template.edge_event_density * activity * 0.6))

        # Plain body interior: very low density -> fragmentation of big vehicles.
        regions.append((visible, template.body_event_density * activity * 0.3))
        return regions

    def _sample_region(
        self,
        region: BoundingBox,
        events_per_pixel: float,
        t_start_us: int,
        t_end_us: int,
        rng: np.random.Generator,
    ) -> Optional[Tuple[np.ndarray, ...]]:
        """Sample Poisson events uniformly over a rectangular region.

        Returns the ``x, y, t, p`` columns, or ``None`` when no event falls.
        """
        if events_per_pixel <= 0 or region.area <= 0:
            return None
        expected = events_per_pixel * region.area
        count = int(rng.poisson(expected))
        if count == 0:
            return None
        x = rng.uniform(region.x, region.x2, size=count)
        y = rng.uniform(region.y, region.y2, size=count)
        x = np.clip(np.floor(x), 0, self.width - 1).astype(np.int64)
        y = np.clip(np.floor(y), 0, self.height - 1).astype(np.int64)
        t = rng.integers(t_start_us, t_end_us, size=count)
        p = np.where(rng.random(count) < self.on_fraction, 1, -1)
        return x, y, t, p


@dataclass
class FoliageDistractor:
    """A static high-activity region (tree / foliage) that emits events.

    The paper handles such distractors with a manually specified region of
    exclusion (ROE); the simulator needs to produce them so the ROE code
    path is exercised.

    Parameters
    ----------
    region:
        Area covered by the foliage.
    events_per_pixel_per_s:
        Mean event rate inside the region.
    """

    region: BoundingBox
    events_per_pixel_per_s: float = 2.0

    def generate(
        self,
        width: int,
        height: int,
        t_start_us: int,
        t_end_us: int,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """Events emitted by the foliage during the interval."""
        visible = clip_box(self.region, width, height)
        duration_s = (t_end_us - t_start_us) * 1e-6
        if visible is None or duration_s <= 0 or self.events_per_pixel_per_s <= 0:
            return np.empty(0, dtype=EVENT_DTYPE)
        expected = self.events_per_pixel_per_s * visible.area * duration_s
        count = int(rng.poisson(expected))
        if count == 0:
            return np.empty(0, dtype=EVENT_DTYPE)
        x = np.clip(
            np.floor(rng.uniform(visible.x, visible.x2, size=count)), 0, width - 1
        ).astype(np.int64)
        y = np.clip(
            np.floor(rng.uniform(visible.y, visible.y2, size=count)), 0, height - 1
        ).astype(np.int64)
        t = rng.integers(t_start_us, t_end_us, size=count)
        p = np.where(rng.random(count) < 0.5, 1, -1)
        return sort_packet(make_packet(x, y, t, p))

"""Ground-truth annotations produced by the simulator.

The paper's recordings were manually annotated with per-object bounding
boxes sampled at regular instants; the evaluation then compares tracker
boxes against ground-truth boxes at those instants (Section III-B).  The
simulator knows the true object positions, so :func:`sample_ground_truth`
produces the same kind of annotation directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

from repro.simulation.objects import SceneObject
from repro.utils.geometry import BoundingBox, clip_box


@dataclass(frozen=True)
class GroundTruthBox:
    """One annotated object instance at one sampling instant."""

    track_id: int
    object_class: str
    box: BoundingBox

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "track_id": self.track_id,
            "object_class": self.object_class,
            "x": self.box.x,
            "y": self.box.y,
            "width": self.box.width,
            "height": self.box.height,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "GroundTruthBox":
        """Inverse of :meth:`to_dict`; refuses a non-finite coordinate or extent."""
        fields = {name: float(data[name]) for name in ("x", "y", "width", "height")}
        for name, value in fields.items():
            if not math.isfinite(value):
                raise ValueError(
                    f"ground-truth box of track {data['track_id']}: {name} must be "
                    f"finite, got {value}"
                )
        return cls(
            track_id=int(data["track_id"]),
            object_class=str(data["object_class"]),
            box=BoundingBox(**fields),
        )


@dataclass
class GroundTruthFrame:
    """All ground-truth boxes at one sampling instant."""

    t_us: int
    boxes: List[GroundTruthBox] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.boxes)

    def track_ids(self) -> List[int]:
        """Track ids present in this frame."""
        return [box.track_id for box in self.boxes]

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {"t_us": self.t_us, "boxes": [box.to_dict() for box in self.boxes]}

    @classmethod
    def from_dict(cls, data: dict) -> "GroundTruthFrame":
        """Inverse of :meth:`to_dict`."""
        return cls(
            t_us=int(data["t_us"]),
            boxes=[GroundTruthBox.from_dict(b) for b in data["boxes"]],
        )


def sample_ground_truth(
    objects: Sequence[SceneObject],
    sample_times_us: Sequence[int],
    width: int,
    height: int,
    min_visible_area: float = 4.0,
    min_visible_fraction: float = 0.25,
) -> List[GroundTruthFrame]:
    """Sample ground-truth boxes for a set of objects at the given instants.

    Objects whose visible (clipped) area is too small — either in absolute
    pixels or as a fraction of their full silhouette — are omitted for that
    instant, matching how a human annotator would not label an object that
    has barely entered the frame.

    Parameters
    ----------
    objects:
        Scene objects with their trajectories.
    sample_times_us:
        Annotation instants (typically the EBBI frame midpoints).
    width, height:
        Sensor resolution, used to clip boxes to the visible array.
    min_visible_area:
        Minimum visible area in square pixels for an object to be annotated.
    min_visible_fraction:
        Minimum visible fraction of the full silhouette.
    """
    frames: List[GroundTruthFrame] = []
    for t_us in sample_times_us:
        frame = GroundTruthFrame(t_us=int(t_us))
        for scene_object in objects:
            if not scene_object.is_active(t_us):
                continue
            full_box = scene_object.bounding_box(t_us)
            visible = clip_box(full_box, width, height)
            if visible is None:
                continue
            if visible.area < min_visible_area:
                continue
            if full_box.area > 0 and visible.area / full_box.area < min_visible_fraction:
                continue
            frame.boxes.append(
                GroundTruthBox(
                    track_id=scene_object.object_id,
                    object_class=scene_object.object_class.value,
                    box=visible,
                )
            )
        frames.append(frame)
    return frames


def ground_truth_frames_to_dict(frames: Sequence[GroundTruthFrame]) -> List[dict]:
    """Serialise a list of ground-truth frames."""
    return [frame.to_dict() for frame in frames]


def ground_truth_frames_from_dict(data: Sequence[dict]) -> List[GroundTruthFrame]:
    """Deserialise a list of ground-truth frames."""
    return [GroundTruthFrame.from_dict(item) for item in data]

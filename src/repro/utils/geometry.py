"""Axis-aligned bounding-box geometry used throughout the pipeline.

The paper represents both region proposals and tracker state with a
"position vector" consisting of the bottom-left corner ``(x, y)``, width
``w`` and height ``h`` of a box (Section II-C).  :class:`BoundingBox`
mirrors that representation.  All coordinates are in pixels with the origin
at the bottom-left of the sensor array; boxes are half-open in neither
direction — a box of width ``w`` spans ``[x, x + w]``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box given by bottom-left corner, width and height.

    Parameters
    ----------
    x, y:
        Bottom-left corner coordinates in pixels.  Fractional values are
        allowed (tracker predictions use sub-pixel positions).
    width, height:
        Box extents in pixels.  Must be non-negative.
    """

    x: float
    y: float
    width: float
    height: float

    def __post_init__(self) -> None:
        if self.width < 0 or self.height < 0:
            raise ValueError(
                f"box extents must be non-negative, got width={self.width} "
                f"height={self.height}"
            )

    # -- basic derived quantities -------------------------------------------------

    @property
    def x2(self) -> float:
        """Right edge (``x + width``)."""
        return self.x + self.width

    @property
    def y2(self) -> float:
        """Top edge (``y + height``)."""
        return self.y + self.height

    @property
    def area(self) -> float:
        """Box area in square pixels."""
        return self.width * self.height

    @property
    def center(self) -> Tuple[float, float]:
        """Centroid ``(cx, cy)`` of the box."""
        return (self.x + self.width / 2.0, self.y + self.height / 2.0)

    @property
    def corners(self) -> Tuple[float, float, float, float]:
        """Box as ``(x1, y1, x2, y2)``."""
        return (self.x, self.y, self.x2, self.y2)

    # -- constructors --------------------------------------------------------------

    @classmethod
    def from_corners(cls, x1: float, y1: float, x2: float, y2: float) -> "BoundingBox":
        """Build a box from two opposite corners (any order)."""
        left, right = min(x1, x2), max(x1, x2)
        bottom, top = min(y1, y2), max(y1, y2)
        return cls(left, bottom, right - left, top - bottom)

    @classmethod
    def from_center(
        cls, cx: float, cy: float, width: float, height: float
    ) -> "BoundingBox":
        """Build a box from its centroid and extents."""
        return cls(cx - width / 2.0, cy - height / 2.0, width, height)

    @classmethod
    def from_points(
        cls, xs: Sequence[float], ys: Sequence[float]
    ) -> "BoundingBox":
        """Tight box around a non-empty set of points."""
        if len(xs) == 0 or len(ys) == 0:
            raise ValueError("cannot build a bounding box from zero points")
        return cls.from_corners(min(xs), min(ys), max(xs), max(ys))

    # -- relations with other boxes -----------------------------------------------

    def intersection(self, other: "BoundingBox") -> Optional["BoundingBox"]:
        """Intersection box with ``other`` or ``None`` when disjoint."""
        x1 = max(self.x, other.x)
        y1 = max(self.y, other.y)
        x2 = min(self.x2, other.x2)
        y2 = min(self.y2, other.y2)
        if x2 <= x1 or y2 <= y1:
            return None
        return BoundingBox(x1, y1, x2 - x1, y2 - y1)

    def intersection_area(self, other: "BoundingBox") -> float:
        """Area of overlap with ``other`` (0.0 when disjoint)."""
        return boxes_intersection_area(self, other)

    def iou(self, other: "BoundingBox") -> float:
        """Intersection over union with ``other`` (Eq. (9) in the paper)."""
        return boxes_iou(self, other)

    def overlap_fraction(self, other: "BoundingBox") -> float:
        """Overlap area as a fraction of *this* box's area.

        This is the quantity the overlap tracker thresholds: a match is
        declared when the overlap exceeds a fraction of the tracker box or
        of the proposal box.
        """
        if self.area == 0:
            return 0.0
        return self.intersection_area(other) / self.area

    def contains_point(self, px: float, py: float) -> bool:
        """Return ``True`` when ``(px, py)`` falls inside the box."""
        return self.x <= px <= self.x2 and self.y <= py <= self.y2

    def contains_box(self, other: "BoundingBox") -> bool:
        """Return ``True`` when ``other`` lies entirely within this box."""
        return (
            self.x <= other.x
            and self.y <= other.y
            and self.x2 >= other.x2
            and self.y2 >= other.y2
        )

    def center_distance(self, other: "BoundingBox") -> float:
        """Euclidean distance between the two box centroids."""
        cx1, cy1 = self.center
        cx2, cy2 = other.center
        return math.hypot(cx1 - cx2, cy1 - cy2)

    # -- transformations -----------------------------------------------------------

    def translated(self, dx: float, dy: float) -> "BoundingBox":
        """Box shifted by ``(dx, dy)``."""
        return BoundingBox(self.x + dx, self.y + dy, self.width, self.height)

    def scaled(self, sx: float, sy: Optional[float] = None) -> "BoundingBox":
        """Box with coordinates and extents scaled by ``(sx, sy)``."""
        if sy is None:
            sy = sx
        return BoundingBox(self.x * sx, self.y * sy, self.width * sx, self.height * sy)

    def expanded(self, margin_x: float, margin_y: Optional[float] = None) -> "BoundingBox":
        """Box grown by a margin on every side (shrunk if negative)."""
        if margin_y is None:
            margin_y = margin_x
        new_w = max(0.0, self.width + 2 * margin_x)
        new_h = max(0.0, self.height + 2 * margin_y)
        return BoundingBox.from_center(*self.center, new_w, new_h)

    def as_tuple(self) -> Tuple[float, float, float, float]:
        """Return ``(x, y, width, height)``."""
        return (self.x, self.y, self.width, self.height)


def boxes_intersection_area(a: BoundingBox, b: BoundingBox) -> float:
    """Area of the intersection of two boxes (0.0 when disjoint)."""
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    return _overlap_area(ax, ay, ax + a.width, ay + a.height, bx, by, bx + b.width, by + b.height)


def boxes_union_area(a: BoundingBox, b: BoundingBox) -> float:
    """Area of the union of two boxes.

    The per-box areas are computed from the same ``x2 - x`` edge
    differences the intersection uses (not ``width * height``): ``x + width``
    can round away from ``x`` by an ulp when the magnitudes differ, and
    mixing the two arithmetic forms lets rounding break the IoU invariants
    (a box's IoU with itself must be exactly 1, and IoU can never exceed 1
    — edge-consistent areas give both because the intersection of a box
    with itself *is* its edge area, and monotone rounding keeps any
    intersection at or below either edge area).
    """
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    ax2, ay2, bx2, by2 = ax + a.width, ay + a.height, bx + b.width, by + b.height
    intersection = _overlap_area(ax, ay, ax2, ay2, bx, by, bx2, by2)
    return (ax2 - ax) * (ay2 - ay) + (bx2 - bx) * (by2 - by) - intersection


def boxes_iou(a: BoundingBox, b: BoundingBox) -> float:
    """Intersection over union of two boxes (Eq. (9) of the paper)."""
    ax, ay, bx, by = a.x, a.y, b.x, b.y
    ax2, ay2, bx2, by2 = ax + a.width, ay + a.height, bx + b.width, by + b.height
    intersection = _overlap_area(ax, ay, ax2, ay2, bx, by, bx2, by2)
    union = (ax2 - ax) * (ay2 - ay) + (bx2 - bx) * (by2 - by) - intersection
    if union <= 0:
        return 0.0
    return intersection / union


def _overlap_area(
    ax: float, ay: float, ax2: float, ay2: float,
    bx: float, by: float, bx2: float, by2: float,
) -> float:
    """Overlap of ``[ax, ax2] x [ay, ay2]`` and ``[bx, bx2] x [by, by2]``.

    ``min`` of the right edges less ``max`` of the left edges, as
    conditional expressions that keep ``min``/``max``'s choice on ties.
    """
    overlap_w = (bx2 if bx2 < ax2 else ax2) - (bx if bx > ax else ax)
    overlap_h = (by2 if by2 < ay2 else ay2) - (by if by > ay else ay)
    if overlap_w <= 0 or overlap_h <= 0:
        return 0.0
    return overlap_w * overlap_h


def clip_box(box: BoundingBox, width: int, height: int) -> Optional[BoundingBox]:
    """Clip ``box`` to a ``width x height`` sensor array.

    Returns ``None`` when the box falls completely outside the array.
    """
    x1 = max(0.0, box.x)
    y1 = max(0.0, box.y)
    x2 = min(float(width), box.x2)
    y2 = min(float(height), box.y2)
    if x2 <= x1 or y2 <= y1:
        return None
    return BoundingBox(x1, y1, x2 - x1, y2 - y1)


def merge_boxes(boxes: Iterable[BoundingBox]) -> BoundingBox:
    """Smallest box enclosing all input boxes.

    Used by the overlap tracker when multiple (fragmented) region proposals
    are assigned to a single tracker.
    """
    boxes = list(boxes)
    if not boxes:
        raise ValueError("cannot merge an empty collection of boxes")
    x1 = min(b.x for b in boxes)
    y1 = min(b.y for b in boxes)
    x2 = max(b.x2 for b in boxes)
    y2 = max(b.y2 for b in boxes)
    return BoundingBox.from_corners(x1, y1, x2, y2)

"""Shared utilities: geometry primitives, validation, hot-path selection."""

from repro.utils.fastpath import SCALAR_ENV, force_scalar, scalar_forced
from repro.utils.geometry import (
    BoundingBox,
    boxes_intersection_area,
    boxes_iou,
    boxes_union_area,
    clip_box,
    merge_boxes,
)
from repro.utils.validation import (
    ensure_positive,
    ensure_positive_int,
)

__all__ = [
    "SCALAR_ENV",
    "force_scalar",
    "scalar_forced",
    "BoundingBox",
    "boxes_intersection_area",
    "boxes_iou",
    "boxes_union_area",
    "clip_box",
    "merge_boxes",
    "ensure_positive",
    "ensure_positive_int",
]

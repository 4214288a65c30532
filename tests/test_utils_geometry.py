"""Tests for bounding-box geometry, including property-based invariants."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.utils.geometry import (
    BoundingBox,
    boxes_intersection_area,
    boxes_iou,
    boxes_union_area,
    clip_box,
    merge_boxes,
)


def finite_boxes():
    """Hypothesis strategy for well-formed boxes in a 1000x1000 canvas."""
    coordinate = st.floats(min_value=-500, max_value=500, allow_nan=False)
    extent = st.floats(min_value=0.0, max_value=500, allow_nan=False)
    return st.builds(BoundingBox, coordinate, coordinate, extent, extent)


class TestBoundingBoxBasics:
    def test_negative_width_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, -1, 5)

    def test_negative_height_rejected(self):
        with pytest.raises(ValueError):
            BoundingBox(0, 0, 5, -1)

    def test_area_and_edges(self):
        box = BoundingBox(2, 3, 10, 20)
        assert box.area == 200
        assert box.x2 == 12
        assert box.y2 == 23
        assert box.center == (7, 13)

    def test_from_corners_any_order(self):
        box = BoundingBox.from_corners(10, 20, 2, 3)
        assert box.x == 2 and box.y == 3
        assert box.width == 8 and box.height == 17

    def test_from_center_round_trip(self):
        box = BoundingBox.from_center(50, 60, 10, 20)
        assert box.center == (50, 60)
        assert box.width == 10 and box.height == 20

    def test_from_points(self):
        box = BoundingBox.from_points([1, 5, 3], [2, 8, 4])
        assert box.corners == (1, 2, 5, 8)

    def test_from_points_empty_raises(self):
        with pytest.raises(ValueError):
            BoundingBox.from_points([], [])

    def test_contains_point(self):
        box = BoundingBox(0, 0, 10, 10)
        assert box.contains_point(5, 5)
        assert box.contains_point(0, 0)
        assert not box.contains_point(11, 5)

    def test_contains_box(self):
        outer = BoundingBox(0, 0, 10, 10)
        inner = BoundingBox(2, 2, 3, 3)
        assert outer.contains_box(inner)
        assert not inner.contains_box(outer)

    def test_translated_and_scaled(self):
        box = BoundingBox(1, 2, 3, 4)
        moved = box.translated(10, 20)
        assert moved.as_tuple() == (11, 22, 3, 4)
        scaled = box.scaled(2)
        assert scaled.as_tuple() == (2, 4, 6, 8)
        scaled_xy = box.scaled(2, 3)
        assert scaled_xy.as_tuple() == (2, 6, 6, 12)

    def test_expanded_and_shrunk(self):
        box = BoundingBox(10, 10, 10, 10)
        grown = box.expanded(2)
        assert grown.width == 14 and grown.height == 14
        assert grown.center == box.center
        shrunk = box.expanded(-10)
        assert shrunk.width == 0 and shrunk.height == 0

    def test_center_distance(self):
        a = BoundingBox(0, 0, 2, 2)
        b = BoundingBox(3, 4, 2, 2)
        assert a.center_distance(b) == pytest.approx(5.0)


class TestOverlapOperations:
    def test_disjoint_boxes(self):
        a = BoundingBox(0, 0, 5, 5)
        b = BoundingBox(10, 10, 5, 5)
        assert boxes_intersection_area(a, b) == 0
        assert boxes_iou(a, b) == 0
        assert a.intersection(b) is None

    def test_identical_boxes(self):
        a = BoundingBox(0, 0, 5, 5)
        assert boxes_iou(a, a) == pytest.approx(1.0)
        assert boxes_union_area(a, a) == pytest.approx(25.0)

    def test_half_overlap(self):
        a = BoundingBox(0, 0, 10, 10)
        b = BoundingBox(5, 0, 10, 10)
        assert boxes_intersection_area(a, b) == pytest.approx(50.0)
        assert boxes_iou(a, b) == pytest.approx(50.0 / 150.0)

    def test_overlap_fraction_asymmetric(self):
        small = BoundingBox(0, 0, 2, 2)
        big = BoundingBox(0, 0, 10, 10)
        assert small.overlap_fraction(big) == pytest.approx(1.0)
        assert big.overlap_fraction(small) == pytest.approx(4.0 / 100.0)

    def test_touching_boxes_do_not_intersect(self):
        a = BoundingBox(0, 0, 5, 5)
        b = BoundingBox(5, 0, 5, 5)
        assert boxes_intersection_area(a, b) == 0

    def test_zero_area_iou(self):
        a = BoundingBox(0, 0, 0, 0)
        assert boxes_iou(a, a) == 0.0


class TestClipAndMerge:
    def test_clip_inside(self):
        box = BoundingBox(10, 10, 20, 20)
        assert clip_box(box, 240, 180) == box

    def test_clip_partially_outside(self):
        box = BoundingBox(-5, -5, 20, 20)
        clipped = clip_box(box, 240, 180)
        assert clipped.as_tuple() == (0, 0, 15, 15)

    def test_clip_fully_outside(self):
        assert clip_box(BoundingBox(300, 300, 10, 10), 240, 180) is None

    def test_merge_boxes(self):
        merged = merge_boxes([BoundingBox(0, 0, 2, 2), BoundingBox(5, 5, 2, 2)])
        assert merged.corners == (0, 0, 7, 7)

    def test_merge_empty_raises(self):
        with pytest.raises(ValueError):
            merge_boxes([])


class TestGeometryProperties:
    @given(finite_boxes(), finite_boxes())
    def test_iou_symmetric_and_bounded(self, a, b):
        iou_ab = boxes_iou(a, b)
        iou_ba = boxes_iou(b, a)
        assert iou_ab == pytest.approx(iou_ba)
        assert 0.0 <= iou_ab <= 1.0 + 1e-9

    @given(finite_boxes(), finite_boxes())
    def test_intersection_not_larger_than_either_box(self, a, b):
        overlap = boxes_intersection_area(a, b)
        assert overlap <= a.area + 1e-6
        assert overlap <= b.area + 1e-6

    @given(finite_boxes(), finite_boxes())
    def test_union_at_least_max_area(self, a, b):
        union = boxes_union_area(a, b)
        assert union >= max(a.area, b.area) - 1e-6

    @given(finite_boxes())
    def test_self_iou_is_one_for_positive_area(self, box):
        if box.area > 1e-9:
            assert boxes_iou(box, box) == pytest.approx(1.0)

    @given(finite_boxes(), st.floats(-100, 100), st.floats(-100, 100))
    def test_translation_preserves_area_and_iou_with_itself(self, box, dx, dy):
        moved = box.translated(dx, dy)
        assert moved.area == pytest.approx(box.area)

    @given(st.lists(finite_boxes(), min_size=1, max_size=6))
    def test_merge_contains_all_inputs(self, boxes):
        merged = merge_boxes(boxes)
        for box in boxes:
            assert merged.x <= box.x + 1e-9
            assert merged.y <= box.y + 1e-9
            assert merged.x2 >= box.x2 - 1e-9
            assert merged.y2 >= box.y2 - 1e-9


# -- the overlap functions against their property form ----------------------------------


def _reference_intersection(a, b):
    overlap_w = min(a.x + a.width, b.x + b.width) - max(a.x, b.x)
    overlap_h = min(a.y + a.height, b.y + b.height) - max(a.y, b.y)
    if overlap_w <= 0 or overlap_h <= 0:
        return 0.0
    return overlap_w * overlap_h


def _reference_union(a, b):
    area_a = ((a.x + a.width) - a.x) * ((a.y + a.height) - a.y)
    area_b = ((b.x + b.width) - b.x) * ((b.y + b.height) - b.y)
    return area_a + area_b - _reference_intersection(a, b)


def _reference_iou(a, b):
    union = _reference_union(a, b)
    if union <= 0:
        return 0.0
    return _reference_intersection(a, b) / union


@st.composite
def rounding_pairs(draw):
    """Box pairs with touching edges, zero extents, and coordinates 1e-6 and
    1e6 apart, where ``x + width`` rounds away from ``x``."""
    coordinate = st.one_of(
        st.sampled_from([0.0, -0.0, 1e-6, 0.1, 3.0, 1e6, -1e6, 1e6 + 0.1]),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    extent = st.one_of(
        st.sampled_from([0.0, 1e-6, 0.1, 3.0, 1e6]), st.floats(0.0, 1e6, allow_nan=False)
    )
    box = st.builds(BoundingBox, coordinate, coordinate, extent, extent)
    a = draw(box)
    relation = draw(st.sampled_from(["free", "touching", "same", "same corner", "nested"]))
    if relation == "free":
        b = draw(box)
    elif relation == "touching":
        b = BoundingBox(a.x + a.width, a.y + draw(extent), draw(extent), a.height)
    elif relation == "same":
        b = a
    elif relation == "same corner":
        b = BoundingBox(a.x, a.y, draw(extent), draw(extent))
    else:
        share = st.floats(0.0, 1.0)
        b = BoundingBox(
            a.x + draw(share) * a.width, a.y + draw(share) * a.height,
            draw(share) * a.width, draw(share) * a.height,
        )
    return a, b


#: A small box inside a large one: ``area_a + area_b`` rounds, so the union
#: depends on the order of its sum and difference.
NESTED = (BoundingBox(0.0, 0.0, 1e6, 1e6), BoundingBox(0.1, 0.1, 0.3, 0.7))


class TestSameFloatsAsThePropertyForm:
    """Each function returns exactly the float of ``x + width``, then the differences."""

    @settings(max_examples=300)
    @given(rounding_pairs())
    @example(NESTED)
    def test_intersection_area(self, pair):
        a, b = pair
        assert boxes_intersection_area(a, b).hex() == _reference_intersection(a, b).hex()
        assert a.intersection_area(b).hex() == _reference_intersection(a, b).hex()

    @settings(max_examples=300)
    @given(rounding_pairs())
    @example(NESTED)
    def test_union_area(self, pair):
        a, b = pair
        assert boxes_union_area(a, b).hex() == _reference_union(a, b).hex()

    @settings(max_examples=300)
    @given(rounding_pairs())
    @example(NESTED)
    def test_iou(self, pair):
        a, b = pair
        assert boxes_iou(a, b).hex() == _reference_iou(a, b).hex()
        assert boxes_iou(b, a).hex() == _reference_iou(b, a).hex()

    def test_x_plus_width_can_round(self):
        # 1e6 + 1e-6 rounds: its edge difference is not the width.
        box = BoundingBox(1e6, 0.0, 1e-6, 1.0)
        assert (box.x + box.width) - box.x != box.width
        assert boxes_iou(box, box) == 1.0

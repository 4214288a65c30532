"""Tests for the binary median (majority) filter."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.median_filter import (
    MedianScratch,
    binary_median_filter,
    binary_median_filter_stack,
)


def _naive_majority_filter(frame: np.ndarray, patch: int) -> np.ndarray:
    """Straightforward O(N * p^2) reference implementation."""
    half = patch // 2
    height, width = frame.shape
    padded = np.pad(frame, half, mode="constant")
    out = np.zeros_like(frame, dtype=np.uint8)
    majority = patch * patch // 2
    for y in range(height):
        for x in range(width):
            total = padded[y : y + patch, x : x + patch].sum()
            out[y, x] = 1 if total > majority else 0
    return out


class TestBinaryMedianFilter:
    def test_isolated_pixel_removed(self):
        frame = np.zeros((20, 20), dtype=np.uint8)
        frame[10, 10] = 1
        assert binary_median_filter(frame).sum() == 0

    def test_solid_block_preserved(self):
        frame = np.zeros((20, 20), dtype=np.uint8)
        frame[5:15, 5:15] = 1
        filtered = binary_median_filter(frame)
        assert filtered[7:13, 7:13].all()
        # Corners of the block get eroded (majority not reached) but the
        # interior is intact.
        assert filtered.sum() >= 8 * 8

    def test_single_hole_filled(self):
        frame = np.ones((11, 11), dtype=np.uint8)
        frame[5, 5] = 0
        assert binary_median_filter(frame)[5, 5] == 1

    def test_patch_size_one_is_identity(self):
        frame = (np.arange(25).reshape(5, 5) % 2).astype(np.uint8)
        np.testing.assert_array_equal(binary_median_filter(frame, 1), frame)

    def test_non_binary_input_thresholded(self, rng):
        frame = np.zeros((10, 10), dtype=np.int32)
        frame[3:8, 3:8] = 7
        filtered = binary_median_filter(frame)
        assert filtered.max() == 1
        # The stack path with a caller buffer sees only ``value > 0`` too.
        frames = rng.choice(np.array([0, 1, 7, 255], dtype=np.uint8), size=(3, 12, 17))
        out = np.full(frames.shape, 9, dtype=np.uint8)
        assert binary_median_filter_stack(frames, 3, out=out) is out
        for got, frame in zip(out, frames):
            np.testing.assert_array_equal(
                got, _naive_majority_filter((frame > 0).astype(np.uint8), 3)
            )

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            binary_median_filter(np.zeros((3, 3, 3)))
        with pytest.raises(ValueError):
            binary_median_filter(np.zeros((5, 5)), patch_size=2)
        with pytest.raises(ValueError):
            binary_median_filter(np.zeros((5, 5)), patch_size=0)

    def test_matches_naive_implementation_small_cases(self, rng):
        for _ in range(5):
            frame = (rng.random((16, 24)) < 0.3).astype(np.uint8)
            np.testing.assert_array_equal(
                binary_median_filter(frame, 3), _naive_majority_filter(frame, 3)
            )

    def test_matches_naive_implementation_patch5(self, rng):
        frame = (rng.random((20, 20)) < 0.4).astype(np.uint8)
        np.testing.assert_array_equal(
            binary_median_filter(frame, 5), _naive_majority_filter(frame, 5)
        )

    @pytest.mark.parametrize(
        "height, width, patch",
        [(1, 1, 3), (2, 7, 3), (3, 3, 5), (30, 41, 17)],
        ids=["1x1-p3", "2x7-p3", "3x3-p5", "p17"],
    )
    def test_matches_naive_on_edge_shapes(self, rng, height, width, patch):
        # Frames smaller than the patch, and p = 17, whose p^2 = 289 patch
        # counts do not fit the uint8 that suffices up to p = 15.
        for density in (0.3, 0.7, 1.0):
            frame = (rng.random((height, width)) < density).astype(np.uint8)
            np.testing.assert_array_equal(
                binary_median_filter(frame, patch), _naive_majority_filter(frame, patch)
            )

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(st.integers(3, 24), st.integers(3, 24)),
            elements=st.integers(0, 1),
        )
    )
    def test_property_matches_naive(self, frame):
        np.testing.assert_array_equal(
            binary_median_filter(frame, 3), _naive_majority_filter(frame, 3)
        )

    @settings(max_examples=30, deadline=None)
    @given(
        hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(st.integers(3, 20), st.integers(3, 20)),
            elements=st.integers(0, 1),
        )
    )
    def test_property_output_is_binary_and_idempotent_on_solid(self, frame):
        filtered = binary_median_filter(frame, 3)
        assert set(np.unique(filtered)).issubset({0, 1})
        # All-zero input stays all zero; all-one input stays mostly one.
        if frame.sum() == 0:
            assert filtered.sum() == 0


class TestBinaryMedianFilterStack:
    def test_stack_matches_per_frame_filter(self):
        rng = np.random.default_rng(3)
        frames = (rng.random((5, 40, 60)) < 0.2).astype(np.uint8)
        for patch in (1, 3, 5):
            stacked = binary_median_filter_stack(frames, patch)
            for i in range(frames.shape[0]):
                np.testing.assert_array_equal(
                    stacked[i], binary_median_filter(frames[i], patch)
                )

    @pytest.mark.parametrize(
        "passes",
        [
            # (frames, height, width, patch) per call on one scratch.
            [(1, 9, 11, 3), (5, 9, 11, 3), (300, 9, 11, 3), (2, 9, 11, 3)],
            [(3, 40, 60, 3), (3, 7, 5, 3), (3, 40, 60, 3)],
            [(3, 20, 24, 3), (3, 20, 24, 5), (3, 20, 24, 3)],
            # Same padded extent, different border: 40x60 at p=3, 38x58 at p=5.
            [(2, 40, 60, 3), (2, 38, 58, 5), (2, 40, 60, 3)],
        ],
        ids=["frame-count", "frame-shape", "patch-size", "same-padded-shape"],
    )
    def test_scratch_reuse_matches_naive(self, rng, passes):
        scratch = MedianScratch()
        for num_frames, height, width, patch in passes:
            frames = (rng.random((num_frames, height, width)) < 0.45).astype(np.uint8)
            out = np.full(frames.shape, 9, dtype=np.uint8)
            binary_median_filter_stack(frames, patch, out=out, scratch=scratch)
            for got, frame in zip(out, frames):
                np.testing.assert_array_equal(got, _naive_majority_filter(frame, patch))

    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([1, 3, 5, 7]),
        # Frames from 1x1 up, so many are smaller than the patch.
        hnp.arrays(
            dtype=np.uint8,
            shape=st.tuples(st.integers(1, 4), st.integers(1, 12), st.integers(1, 12)),
            elements=st.integers(0, 1),
        ),
    )
    def test_plain_and_bordered_stacks_match_naive(self, patch, frames):
        expected = [_naive_majority_filter(frame, patch) for frame in frames]
        plain = binary_median_filter_stack(frames, patch)
        # The builder's layout: the frames inside a zero border p // 2 wide,
        # read in place into a caller's output stack.
        num_frames, height, width = frames.shape
        border = patch // 2
        bordered = np.zeros((num_frames, height + 2 * border, width + 2 * border), np.uint8)
        bordered[:, border : border + height, border : border + width] = frames
        before = bordered.copy()
        out = np.full(frames.shape, 9, dtype=np.uint8)
        assert binary_median_filter_stack(bordered, patch, out=out, scratch=MedianScratch()) is out
        np.testing.assert_array_equal(bordered, before)
        for got_plain, got_bordered, want in zip(plain, out, expected):
            np.testing.assert_array_equal(got_plain, want)
            np.testing.assert_array_equal(got_bordered, want)

    def test_bordered_stack_must_fit_out(self):
        frames = np.zeros((2, 8, 8), dtype=np.uint8)
        for bordered in (
            np.zeros((2, 9, 10), dtype=np.uint8),  # a border of 1 on one axis only
            np.zeros((2, 12, 12), dtype=np.uint8),  # a border of 2 for p = 3
            np.zeros((2, 10, 10), dtype=np.int32),  # not uint8
            np.zeros((2, 10, 20), dtype=np.uint8)[:, :, ::2],  # not contiguous
        ):
            with pytest.raises(ValueError, match="out must be"):
                binary_median_filter_stack(bordered, 3, out=frames)

    def test_stack_empty(self):
        out = binary_median_filter_stack(np.zeros((0, 8, 8), dtype=np.uint8), 3)
        assert out.shape == (0, 8, 8)

    def test_stack_rejects_2d_input(self):
        with pytest.raises(ValueError):
            binary_median_filter_stack(np.zeros((8, 8), dtype=np.uint8), 3)

    def test_stack_rejects_even_patch(self):
        with pytest.raises(ValueError):
            binary_median_filter_stack(np.zeros((1, 8, 8), dtype=np.uint8), 2)

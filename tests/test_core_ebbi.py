"""Tests for EBBI frame generation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.core.ebbi import (
    BLOCK_BYTES,
    EbbiBuilder,
    events_to_binary_frame,
    events_to_binary_frame_batch,
)
from repro.core.median_filter import binary_median_filter
from repro.events.types import make_packet


class TestEventsToBinaryFrame:
    def test_single_event(self):
        frame = events_to_binary_frame(make_packet([3], [7], [0], [1]), 240, 180)
        assert frame.shape == (180, 240)
        assert frame[7, 3] == 1
        assert frame.sum() == 1

    def test_polarity_ignored(self):
        events = make_packet([3, 3], [7, 7], [0, 1], [1, -1])
        frame = events_to_binary_frame(events, 240, 180)
        assert frame.sum() == 1

    def test_repeated_events_latch_once(self):
        events = make_packet([5] * 10, [5] * 10, list(range(10)), [1] * 10)
        assert events_to_binary_frame(events, 240, 180).sum() == 1

    def test_empty_packet(self):
        frame = events_to_binary_frame(make_packet([], [], [], []), 240, 180)
        assert frame.sum() == 0

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            events_to_binary_frame(make_packet([240], [0], [0], [1]), 240, 180)

    def test_wrong_dtype_rejected(self):
        with pytest.raises(TypeError):
            events_to_binary_frame(np.zeros(3), 240, 180)


class TestEbbiBuilder:
    def test_build_returns_raw_and_filtered(self):
        builder = EbbiBuilder(240, 180, median_patch_size=3)
        # One dense blob plus one isolated noise pixel.
        xs = [50 + i % 6 for i in range(36)] + [200]
        ys = [60 + i // 6 for i in range(36)] + [20]
        events = make_packet(xs, ys, list(range(37)), [1] * 37)
        frames = builder.build(events, 0, 66_000)
        assert frames.raw[20, 200] == 1
        assert frames.filtered[20, 200] == 0  # isolated pixel filtered out
        assert frames.filtered[62, 52] == 1  # blob survives
        assert frames.num_events == 37
        assert frames.t_mid_us == 33_000

    def test_filtering_disabled(self):
        builder = EbbiBuilder(240, 180, median_patch_size=0)
        events = make_packet([10], [10], [0], [1])
        frames = builder.build(events, 0, 66_000)
        np.testing.assert_array_equal(frames.raw, frames.filtered)

    def test_even_patch_rejected(self):
        with pytest.raises(ValueError):
            EbbiBuilder(240, 180, median_patch_size=4)

    def test_invalid_size_rejected(self):
        with pytest.raises(ValueError):
            EbbiBuilder(0, 180)

    def test_statistics_accumulate(self):
        builder = EbbiBuilder(240, 180)
        builder.build(make_packet([1], [1], [0], [1]), 0, 66_000)
        builder.build(make_packet([], [], [], []), 66_000, 132_000)
        assert builder.frames_built == 2
        assert builder.mean_active_pixel_fraction == pytest.approx(
            0.5 * (1 / 43_200), rel=1e-6
        )

    def test_memory_bits_matches_eq1(self):
        assert EbbiBuilder(240, 180).memory_bits() == 2 * 240 * 180

    def test_active_pixel_fraction_property(self):
        builder = EbbiBuilder(240, 180)
        events = make_packet([1, 2, 3], [1, 2, 3], [0, 1, 2], [1, 1, 1])
        frames = builder.build(events, 0, 66_000)
        assert frames.active_pixel_count == 3
        assert frames.active_pixel_fraction == pytest.approx(3 / 43_200)

    def test_mean_fraction_zero_before_any_frames(self):
        assert EbbiBuilder(240, 180).mean_active_pixel_fraction == 0.0


class TestEventsToBinaryFrameBatch:
    def _random_packet(self, num_events, duration, seed, width=240, height=180):
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.integers(0, duration, size=num_events))
        return make_packet(
            rng.integers(0, width, size=num_events),
            rng.integers(0, height, size=num_events),
            ts,
            np.where(rng.random(num_events) < 0.5, 1, -1),
        )

    def test_batch_matches_per_frame_accumulation(self):
        from repro.core.ebbi import events_to_binary_frame_batch
        from repro.events.stream import frame_boundaries

        packet = self._random_packet(500, 1_000_000, seed=7)
        edges, splits = frame_boundaries(packet["t"], 66_000, 0, 1_000_000)
        stack = events_to_binary_frame_batch(packet, splits, 240, 180)
        assert stack.shape == (len(edges) - 1, 180, 240)
        for i in range(len(edges) - 1):
            expected = events_to_binary_frame(
                packet[splits[i] : splits[i + 1]], 240, 180
            )
            np.testing.assert_array_equal(stack[i], expected)

    def test_batch_with_empty_windows(self):
        from repro.core.ebbi import events_to_binary_frame_batch

        packet = make_packet([1, 2], [1, 2], [0, 500_000], [1, 1])
        splits = np.array([0, 1, 1, 1, 2])
        stack = events_to_binary_frame_batch(packet, splits, 240, 180)
        assert stack[0].sum() == 1
        assert stack[1].sum() == 0
        assert stack[2].sum() == 0
        assert stack[3].sum() == 1

    def test_batch_empty_packet(self):
        from repro.core.ebbi import events_to_binary_frame_batch

        stack = events_to_binary_frame_batch(
            make_packet([], [], [], []), np.array([0, 0, 0]), 240, 180
        )
        assert stack.shape == (2, 180, 240)
        assert stack.sum() == 0

    def test_batch_out_of_bounds_rejected(self):
        from repro.core.ebbi import events_to_binary_frame_batch

        with pytest.raises(ValueError):
            events_to_binary_frame_batch(
                make_packet([240], [0], [0], [1]), np.array([0, 1]), 240, 180
            )

    def test_batch_wrong_dtype_rejected(self):
        from repro.core.ebbi import events_to_binary_frame_batch

        with pytest.raises(TypeError):
            events_to_binary_frame_batch(np.zeros(3), np.array([0, 3]), 240, 180)


class TestEbbiBuilderBatch:
    def test_build_batch_matches_sequential_builds(self):
        from repro.events.stream import frame_boundaries

        rng = np.random.default_rng(11)
        num_events = 400
        ts = np.sort(rng.integers(0, 500_000, size=num_events))
        packet = make_packet(
            rng.integers(0, 240, size=num_events),
            rng.integers(0, 180, size=num_events),
            ts,
            np.ones(num_events, dtype=int),
        )
        edges, splits = frame_boundaries(packet["t"], 66_000, 0, 500_000)

        sequential = EbbiBuilder(240, 180, median_patch_size=3)
        expected = [
            sequential.build(
                packet[splits[i] : splits[i + 1]], int(edges[i]), int(edges[i + 1])
            )
            for i in range(len(edges) - 1)
        ]

        batched = EbbiBuilder(240, 180, median_patch_size=3)
        got = batched.build_batch(packet, edges[:-1], edges[1:], splits)

        assert len(got) == len(expected)
        for g, e in zip(got, expected):
            np.testing.assert_array_equal(g.raw, e.raw)
            np.testing.assert_array_equal(g.filtered, e.filtered)
            assert g.t_start_us == e.t_start_us
            assert g.t_end_us == e.t_end_us
            assert g.num_events == e.num_events
        assert batched.frames_built == sequential.frames_built
        assert batched.mean_active_pixel_fraction == pytest.approx(
            sequential.mean_active_pixel_fraction
        )

    @pytest.mark.parametrize("reuse_buffers", [False, True])
    @pytest.mark.parametrize("patch_size", [0, 3, 5])
    @pytest.mark.parametrize("width, height, block", [(240, 180, 8), (640, 480, 1)])
    def test_build_batch_matches_sequential_builds_across_blocks(
        self, width, height, block, patch_size, reuse_buffers
    ):
        assert max(1, BLOCK_BYTES // (width * height)) == block
        batched = EbbiBuilder(width, height, patch_size, reuse_buffers=reuse_buffers)
        sequential = EbbiBuilder(width, height, patch_size, reuse_buffers=reuse_buffers)
        for num_windows in (1, block, block + 1, 3 * block + 5):
            rng = np.random.default_rng(num_windows)
            counts = rng.integers(50, 400, size=num_windows)
            counts[num_windows // 2] = 5000  # one window holds most of the events
            if num_windows > block:
                counts[block - 1 : block + 1] = 0  # empty on both sides of a block edge
            windows = [
                _window(int(n), seed=i, width=width, height=height)
                for i, n in enumerate(counts)
            ]
            packet = np.concatenate(windows)
            splits = np.concatenate([[0], np.cumsum(counts)])
            starts = np.arange(num_windows) * 66_000

            got = batched.build_batch(packet, starts, starts + 66_000, splits)

            assert len(got) == num_windows
            for frames, window, start in zip(got, windows, starts):
                expected = sequential.build(window, int(start), int(start) + 66_000)
                np.testing.assert_array_equal(frames.raw, expected.raw)
                np.testing.assert_array_equal(frames.filtered, expected.filtered)
                assert frames.num_events == expected.num_events == len(window)
            assert batched.frames_built == sequential.frames_built
            assert batched.mean_active_pixel_fraction == sequential.mean_active_pixel_fraction

    def test_reused_build_batch_holds_the_chunk_stacks_and_one_block_of_work(self):
        """A chunk build's work arrays are sized by a block, not by the chunk."""
        width, height, num_windows, per_window = 240, 180, 256, 3000
        rng = np.random.default_rng(3)
        n = num_windows * per_window
        packet = make_packet(
            rng.integers(0, width, size=n),
            rng.integers(0, height, size=n),
            np.arange(n) * (66_000 // per_window),
            np.ones(n, dtype=int),
        )
        starts = np.arange(num_windows) * 66_000
        splits = np.arange(0, n + 1, per_window)
        chunk_stacks = 2 * num_windows * height * width
        budget = 2 * 2**20
        builder = EbbiBuilder(width, height, reuse_buffers=True)
        tracemalloc.start()
        try:
            frames = builder.build_batch(packet, starts, starts + 66_000, splits)
            retained, _ = tracemalloc.get_traced_memory()
            del frames
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            frames = builder.build_batch(packet, starts, starts + 66_000, splits)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(frames) == num_windows
        assert retained <= chunk_stacks + budget
        assert peak - held < budget

    def test_build_batch_refuses_bad_input_in_any_block(self):
        builder = EbbiBuilder(240, 180, reuse_buffers=True)
        other = np.zeros(0, dtype=[("x", np.int32), ("y", np.int32), ("t", np.int64)])
        with pytest.raises(TypeError, match="dtype"):
            builder.build_batch(other, np.array([]), np.array([]), np.array([0]))
        # The first block of 8 windows is fine; the second holds x = 240.
        packet = make_packet([1] * 8 + [240], [1] * 9, range(9), [1] * 9)
        starts = np.arange(9) * 66_000
        with pytest.raises(ValueError, match="outside the frame"):
            builder.build_batch(packet, starts, starts + 66_000, np.arange(10))
        assert builder.stats_snapshot() == (0, 0)

    def test_build_batch_disabled_median_filter(self):
        builder = EbbiBuilder(32, 32, median_patch_size=0)
        packet = make_packet([3, 4], [5, 6], [0, 10], [1, 1])
        frames = builder.build_batch(
            packet, np.array([0]), np.array([100]), np.array([0, 2])
        )
        np.testing.assert_array_equal(frames[0].raw, frames[0].filtered)

    def test_build_batch_shape_mismatch_rejected(self):
        builder = EbbiBuilder(32, 32)
        packet = make_packet([1], [1], [0], [1])
        with pytest.raises(ValueError):
            builder.build_batch(packet, np.array([0]), np.array([100]), np.array([0]))


def _window(num_events, seed, width=64, height=48):
    """One 66 ms window of random events (dense enough to survive filtering)."""
    rng = np.random.default_rng(seed)
    return make_packet(
        rng.integers(0, width, size=num_events),
        rng.integers(0, height, size=num_events),
        np.sort(rng.integers(0, 66_000, size=num_events)),
        np.where(rng.random(num_events) < 0.5, 1, -1),
    )


class TestOneBuildPath:
    """``build`` and ``events_to_binary_frame`` are one-window batch calls."""

    @pytest.mark.parametrize("num_events", [0, 1, 700])
    @pytest.mark.parametrize("reuse_buffers", [False, True])
    @pytest.mark.parametrize("patch_size", [0, 1, 3, 5])
    def test_build_equals_one_window_build_batch(self, patch_size, reuse_buffers, num_events):
        events = _window(num_events, seed=patch_size)
        single = EbbiBuilder(64, 48, patch_size, reuse_buffers=reuse_buffers)
        batched = EbbiBuilder(64, 48, patch_size, reuse_buffers=reuse_buffers)
        got = single.build(events, 0, 66_000)
        (expected,) = batched.build_batch(
            events, np.array([0]), np.array([66_000]), np.array([0, num_events])
        )
        assert got.raw.dtype == got.filtered.dtype == np.uint8
        np.testing.assert_array_equal(got.raw, expected.raw)
        np.testing.assert_array_equal(got.filtered, expected.filtered)
        np.testing.assert_array_equal(
            got.filtered, binary_median_filter(got.raw, max(patch_size, 1))
        )
        assert (got.t_start_us, got.t_end_us, got.num_events) == (
            expected.t_start_us,
            expected.t_end_us,
            expected.num_events,
        )
        assert single.stats_snapshot() == batched.stats_snapshot()

    @pytest.mark.parametrize("num_events", [0, 1, 500])
    def test_events_to_binary_frame_is_element_zero_of_batch(self, num_events):
        events = _window(num_events, seed=num_events)
        frame = events_to_binary_frame(events, 64, 48)
        stack = events_to_binary_frame_batch(events, np.array([0, num_events]), 64, 48)
        assert frame.shape == (48, 64)
        assert frame.dtype == np.uint8
        np.testing.assert_array_equal(frame, stack[0])

    @pytest.mark.parametrize("x, y", [(64, 0), (0, 48), (-1, 0), (0, -1)])
    def test_events_to_binary_frame_rejects_coordinates_outside_frame(self, x, y):
        with pytest.raises(ValueError, match="outside the frame"):
            events_to_binary_frame(make_packet([1, x], [1, y], [0, 1], [1, 1]), 64, 48)

    def test_events_to_binary_frame_rejects_other_dtypes(self):
        other = np.zeros(3, dtype=[("x", np.int32), ("y", np.int32), ("t", np.int64)])
        with pytest.raises(TypeError, match="dtype"):
            events_to_binary_frame(other, 64, 48)

    @pytest.mark.parametrize("patch_size", [-1, -3])
    def test_negative_patch_rejected(self, patch_size):
        with pytest.raises(ValueError, match="median_patch_size"):
            EbbiBuilder(240, 180, median_patch_size=patch_size)

    def test_alpha_does_not_depend_on_build_grouping(self):
        counts = np.random.default_rng(1).integers(0, 3000, size=40)
        windows = [_window(int(n), seed=i, width=240, height=180) for i, n in enumerate(counts)]
        active = sum(np.count_nonzero(events_to_binary_frame(w, 240, 180)) for w in windows)
        expected = active / (len(windows) * 240 * 180)
        packet = np.concatenate(windows)
        splits = np.concatenate([[0], np.cumsum([len(w) for w in windows])])
        starts = np.arange(len(windows)) * 66_000
        alphas = []
        for chunk in (1, 7, len(windows)):
            builder = EbbiBuilder(240, 180, reuse_buffers=True)
            for lo in range(0, len(windows), chunk):
                hi = min(lo + chunk, len(windows))
                builder.build_batch(packet, starts[lo:hi], starts[lo:hi] + 66_000, splits[lo : hi + 1])
            alphas.append(builder.mean_active_pixel_fraction)
        builder = EbbiBuilder(240, 180)
        for start, window in zip(starts, windows):
            builder.build(window, int(start), int(start) + 66_000)
        alphas.append(builder.mean_active_pixel_fraction)
        assert alphas == [expected] * 4

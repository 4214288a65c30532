"""Tests for EventStream and frame windowing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.events.stream import EventStream, frame_boundaries
from repro.events.types import empty_packet, make_packet


def _packet_spanning(duration_us: int, count: int):
    """Evenly spaced events over a duration."""
    ts = np.linspace(0, duration_us, count, endpoint=False).astype(np.int64)
    return make_packet(
        np.arange(count) % 240, np.arange(count) % 180, ts, np.ones(count, dtype=int)
    )


def _windows(packet, frame_duration_us: int):
    """The unaligned frame windows of ``packet``, as ``(start, end, events)``."""
    return list(EventStream(packet).iter_frames(frame_duration_us))


class TestFrameWindows:
    def test_every_event_in_exactly_one_window(self):
        packet = _packet_spanning(1_000_000, 100)
        windows = _windows(packet, 66_000)
        total = sum(len(events) for _, _, events in windows)
        assert total == 100

    def test_windows_are_contiguous(self):
        packet = _packet_spanning(500_000, 50)
        windows = _windows(packet, 66_000)
        for (s1, e1, _), (s2, e2, _) in zip(windows, windows[1:]):
            assert e1 == s2
            assert e1 - s1 == 66_000

    def test_empty_windows_are_yielded(self):
        packet = make_packet([1, 2], [1, 2], [0, 200_000], [1, 1])
        windows = _windows(packet, 66_000)
        lengths = [len(events) for _, _, events in windows]
        assert lengths == [1, 0, 0, 1]

    def test_empty_events_with_no_bounds(self):
        assert _windows(empty_packet(), 66_000) == []
        assert list(EventStream(empty_packet()).iter_frames(66_000, align_to_zero=True)) == []

    def test_explicit_bounds(self):
        edges, splits = frame_boundaries(empty_packet()["t"], 100, 0, 350)
        assert edges.tolist() == [0, 100, 200, 300, 400]
        assert splits.tolist() == [0] * 5

    def test_invalid_duration_raises(self):
        for packet in (empty_packet(), _packet_spanning(1_000, 10)):
            stream = EventStream(packet)
            for duration in (0, -66_000):
                with pytest.raises(ValueError, match="frame_duration_us must be positive"):
                    stream.frame_index(duration)
                with pytest.raises(ValueError, match="frame_duration_us must be positive"):
                    list(stream.iter_frames(duration, align_to_zero=True))


class TestEventStream:
    def test_sorts_unsorted_input(self):
        packet = make_packet([1, 2], [1, 2], [200, 100], [1, 1])
        stream = EventStream(packet, 240, 180)
        assert list(stream.events["t"]) == [100, 200]

    def test_rejects_out_of_bounds(self):
        packet = make_packet([999], [0], [0], [1])
        with pytest.raises(ValueError):
            EventStream(packet, 240, 180)

    def test_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            EventStream(np.zeros(4), 240, 180)

    def test_duration_and_rate(self):
        stream = EventStream(_packet_spanning(2_000_000, 200), 240, 180)
        assert stream.duration_s == pytest.approx(2.0, rel=0.01)
        assert stream.mean_event_rate == pytest.approx(100.0, rel=0.05)

    def test_empty_stream_properties(self):
        stream = EventStream(empty_packet(), 240, 180)
        assert stream.duration_us == 0
        assert stream.mean_event_rate == 0.0
        assert stream.frame_index(66_000).num_frames == 0

    def test_time_slice(self):
        stream = EventStream(_packet_spanning(1_000_000, 100), 240, 180)
        sliced = stream.time_slice(0, 500_000)
        assert len(sliced) == 50

    def test_iter_frames_align_to_zero(self):
        packet = make_packet([1], [1], [150_000], [1])
        stream = EventStream(packet, 240, 180)
        aligned = list(stream.iter_frames(66_000, align_to_zero=True))
        assert aligned[0][0] == 0
        unaligned = list(stream.iter_frames(66_000, align_to_zero=False))
        assert unaligned[0][0] == 150_000

    def test_merged_with(self):
        a = EventStream(make_packet([1], [1], [100], [1]), 240, 180)
        b = EventStream(make_packet([2], [2], [50], [1]), 240, 180)
        merged = a.merged_with(b)
        assert len(merged) == 2
        assert list(merged.events["t"]) == [50, 100]

    def test_merged_with_mismatched_resolution_raises(self):
        a = EventStream(empty_packet(), 240, 180)
        b = EventStream(empty_packet(), 128, 128)
        with pytest.raises(ValueError):
            a.merged_with(b)

    def test_filtered_by_mask(self):
        stream = EventStream(_packet_spanning(100_000, 10), 240, 180)
        mask = np.zeros(10, dtype=bool)
        mask[::2] = True
        assert len(stream.filtered(mask)) == 5

    def test_filtered_wrong_mask_length(self):
        stream = EventStream(_packet_spanning(100_000, 10), 240, 180)
        with pytest.raises(ValueError):
            stream.filtered(np.zeros(3, dtype=bool))

    def test_split_preserves_events(self):
        stream = EventStream(_packet_spanning(1_000_000, 100), 240, 180)
        parts = stream.split(4)
        assert len(parts) == 4
        assert sum(len(p) for p in parts) == 100

    def test_split_invalid(self):
        stream = EventStream(empty_packet(), 240, 180)
        with pytest.raises(ValueError):
            stream.split(0)


class TestStreamProperties:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=10_000, max_value=200_000),
    )
    def test_frame_partition_is_lossless(self, count, frame_duration):
        stream = EventStream(_packet_spanning(1_000_000, count), 240, 180)
        windows = list(stream.iter_frames(frame_duration, align_to_zero=True))
        assert sum(len(w[2]) for w in windows) == count
        # Windows tile the time axis without gaps.
        for (s1, e1, _), (s2, _, _) in zip(windows, windows[1:]):
            assert e1 == s2


class TestFrameBoundariesAndIndex:
    def test_boundaries_match_frame_windows(self):
        packet = _packet_spanning(1_000_000, 137)
        edges, splits = frame_boundaries(packet["t"], 66_000, 0, 1_000_000)
        assert edges.tolist() == list(range(0, 1_000_000 + 66_000, 66_000))
        for i in range(len(edges) - 1):
            in_window = (packet["t"] >= edges[i]) & (packet["t"] < edges[i + 1])
            np.testing.assert_array_equal(packet[splits[i] : splits[i + 1]], packet[in_window])

    def test_boundaries_degenerate_range(self):
        packet = _packet_spanning(1_000, 10)
        edges, splits = frame_boundaries(packet["t"], 100, 50, 50)
        assert len(edges) == 1 and len(splits) == 1

    def test_frame_index_matches_iter_frames(self):
        packet = _packet_spanning(700_000, 81)
        stream = EventStream(packet)
        for align in (False, True):
            index = stream.frame_index(66_000, align_to_zero=align)
            windows = list(stream.iter_frames(66_000, align_to_zero=align))
            assert index.num_frames == len(windows)
            for i, (t_start, t_end, events) in enumerate(windows):
                assert index.starts[i] == t_start
                assert index.ends[i] == t_end
                np.testing.assert_array_equal(index.frame_events(i), events)
            assert int(index.counts.sum()) == len(packet)

    def test_frame_index_iterates_like_iter_frames(self):
        packet = _packet_spanning(300_000, 20)
        stream = EventStream(packet)
        iterated = list(stream.frame_index(66_000, align_to_zero=True))
        direct = list(stream.iter_frames(66_000, align_to_zero=True))
        assert len(iterated) == len(direct)
        for (s1, e1, ev1), (s2, e2, ev2) in zip(iterated, direct):
            assert (s1, e1) == (s2, e2)
            np.testing.assert_array_equal(ev1, ev2)

    def test_frame_index_empty_stream(self):
        stream = EventStream(empty_packet())
        index = stream.frame_index(66_000)
        assert index.num_frames == 0
        assert list(index) == []

    @settings(deadline=None, max_examples=50)
    @given(
        num_events=st.integers(min_value=1, max_value=300),
        duration=st.integers(min_value=1, max_value=2_000_000),
        frame_duration=st.integers(min_value=1_000, max_value=200_000),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_boundaries_property_equivalence(
        self, num_events, duration, frame_duration, seed
    ):
        rng = np.random.default_rng(seed)
        ts = np.sort(rng.integers(0, duration, size=num_events))
        packet = make_packet(
            np.zeros(num_events, dtype=int),
            np.zeros(num_events, dtype=int),
            ts,
            np.ones(num_events, dtype=int),
        )
        index = EventStream(packet).frame_index(frame_duration)
        # The windows tile [first event, last event] from the first event on.
        t0 = int(ts[0])
        assert index.num_frames == (int(ts[-1]) - t0) // frame_duration + 1
        for i in range(index.num_frames):
            t_start = t0 + i * frame_duration
            assert (index.starts[i], index.ends[i]) == (t_start, t_start + frame_duration)
            in_window = (ts >= t_start) & (ts < t_start + frame_duration)
            np.testing.assert_array_equal(index.frame_events(i), packet[in_window])


class TestFromArraysAndNormalization:
    def test_from_arrays_round_trip(self):
        stream = EventStream.from_arrays(
            [10, 20], [30, 40], [100, 50], [1, -1], width=240, height=180
        )
        # Sorted by timestamp on construction.
        assert stream.events["t"].tolist() == [50, 100]
        assert stream.events["x"].tolist() == [20, 10]
        assert len(stream) == 2

    def test_from_arrays_defaults_polarity_to_on(self):
        stream = EventStream.from_arrays([1, 2], [3, 4], [10, 20])
        assert stream.events["p"].tolist() == [1, 1]

    def test_from_arrays_validates_bounds(self):
        with pytest.raises(ValueError):
            EventStream.from_arrays([999], [0], [0], width=240, height=180)

    def test_reordered_dtype_accepted(self):
        reordered_dtype = np.dtype(
            [("t", np.int64), ("x", np.int16), ("y", np.int16), ("p", np.int8)]
        )
        packet = np.zeros(3, dtype=reordered_dtype)
        packet["x"] = [1, 2, 3]
        packet["t"] = [30, 20, 10]
        packet["p"] = [1, 1, -1]
        stream = EventStream(packet)
        from repro.events.types import EVENT_DTYPE

        assert stream.events.dtype == EVENT_DTYPE
        assert stream.events["t"].tolist() == [10, 20, 30]
        assert stream.events["x"].tolist() == [3, 2, 1]

    def test_wrong_fields_still_rejected(self):
        bad = np.zeros(2, dtype=np.dtype([("a", np.int16), ("b", np.int16)]))
        with pytest.raises(TypeError):
            EventStream(bad)

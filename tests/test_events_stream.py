"""Tests for EventStream and frame windowing."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.events.stream import _SCALAR_TARGETS, EventStream, _left_bounds, frame_boundaries
from repro.events.types import empty_packet, make_packet


def _packet_spanning(duration_us: int, count: int):
    """Evenly spaced events over a duration."""
    ts = np.linspace(0, duration_us, count, endpoint=False).astype(np.int64)
    return make_packet(
        np.arange(count) % 240, np.arange(count) % 180, ts, np.ones(count, dtype=int)
    )


def _windows(packet, frame_duration_us: int):
    """The frame windows of ``packet``, as ``(start, end, events)``."""
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
                    list(stream.iter_frames(duration))


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

    def test_iter_frames_align_to_zero(self):
        # Windows start at t = 0, not at the first event: a late start
        # begins with empty windows on the same grid.
        packet = make_packet([1], [1], [150_000], [1])
        stream = EventStream(packet, 240, 180)
        windows = list(stream.iter_frames(66_000))
        assert [(start, end, len(events)) for start, end, events in windows] == [
            (0, 66_000, 0),
            (66_000, 132_000, 0),
            (132_000, 198_000, 1),
        ]

    def test_rejects_events_stamped_before_zero(self):
        # Windows start at t = 0: an earlier event would fall in no window,
        # so the stream refuses it, naming the count and the earliest stamp.
        packet = make_packet([1, 2, 3], [1, 2, 3], [-5_000, -1_000, 70_000], [1, 1, 1])
        with pytest.raises(ValueError) as refused:
            EventStream(packet, 240, 180)
        assert str(refused.value).startswith(
            "2 event(s) stamped before t = 0 (earliest -5000 us)"
        )

    def test_rejects_a_stream_of_only_negative_stamps(self):
        packet = make_packet([1, 2], [1, 2], [-1, -7], [1, 1])
        with pytest.raises(ValueError, match=r"^2 event\(s\) .*\(earliest -7 us\)"):
            EventStream(packet, 240, 180)

    def test_rejects_a_negative_stamp_behind_later_ones(self):
        # The check runs on the sorted events, so an early stamp is found
        # wherever it sits in the input.
        packet = make_packet([1, 2, 3], [1, 2, 3], [70_000, 5, -1_000], [1, 1, 1])
        with pytest.raises(ValueError, match=r"^1 event\(s\) .*\(earliest -1000 us\)"):
            EventStream(packet, 240, 180)

    def test_accepts_an_event_stamped_at_zero(self):
        packet = make_packet([1, 2], [1, 2], [66_000, 0], [1, 1])
        index = EventStream(packet, 240, 180).frame_index(66_000)
        assert np.diff(index.splits).tolist() == [1, 1]
        assert index.frame_events(0)["t"].tolist() == [0]


class TestStreamProperties:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=10_000, max_value=200_000),
    )
    def test_frame_partition_is_lossless(self, count, frame_duration):
        stream = EventStream(_packet_spanning(1_000_000, count), 240, 180)
        windows = list(stream.iter_frames(frame_duration))
        assert sum(len(w[2]) for w in windows) == count
        # Windows tile the time axis without gaps.
        for (s1, e1, _), (s2, _, _) in zip(windows, windows[1:]):
            assert e1 == s2


class TestFrameBoundariesAndIndex:
    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(0, 2_000), max_size=150),
        st.integers(1, 400),
        st.integers(0, 2_100),
        st.integers(1, 2_100),
    )
    @example([], 66, 0, 300)  # an empty stream
    @example([5], 66, 0, 6)  # a single event
    @example([0, 66, 66, 132, 199], 66, 0, 200)  # stamps on window edges
    @example([1_999, 2_000, 2_000], 100, 0, 2_001)  # every event in the last window
    @example(list(range(0, 2_000, 7)), 1, 0, 2_001)  # thousands of windows
    def test_splits_equal_searchsorted(self, stamps, duration, t_start, span):
        """On the strided ``t`` field of a packet and on a contiguous copy."""
        t_end = t_start + span
        packet = make_packet(
            [0] * len(stamps), [0] * len(stamps), sorted(stamps), [1] * len(stamps)
        )
        for timestamps in (packet["t"], np.ascontiguousarray(packet["t"])):
            edges, splits = frame_boundaries(timestamps, duration, t_start, t_end)
            assert splits.dtype == np.int64
            expected = np.searchsorted(np.ascontiguousarray(timestamps), edges, side="left")
            np.testing.assert_array_equal(splits, expected)

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-50, 50), max_size=80),
        st.lists(st.integers(-60, 60), min_size=1, max_size=3 * _SCALAR_TARGETS),
    )
    def test_left_bounds_equal_searchsorted_for_few_and_many_targets(self, values, targets):
        values = np.sort(np.array(values, dtype=np.int64))
        targets = np.array(targets, dtype=np.int64)
        np.testing.assert_array_equal(
            _left_bounds(values, targets), np.searchsorted(values, targets, side="left")
        )

    def test_boundaries_copy_no_column(self):
        # The t field of 200,000 events would be a 1.6 MB copy.
        packet = _packet_spanning(10_000_000, 200_000)
        tracemalloc.start()
        try:
            edges, splits = frame_boundaries(packet["t"], 66_000, 0, 10_000_000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(edges) > _SCALAR_TARGETS
        assert peak < 100_000
        np.testing.assert_array_equal(splits, np.searchsorted(packet["t"], edges))

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
        index = stream.frame_index(66_000)
        windows = list(stream.iter_frames(66_000))
        assert index.num_frames == len(windows)
        for i, (t_start, t_end, events) in enumerate(windows):
            assert index.starts[i] == t_start
            assert index.ends[i] == t_end
            np.testing.assert_array_equal(index.frame_events(i), events)
        assert int(index.splits[-1] - index.splits[0]) == len(packet)

    def test_frame_index_iterates_like_iter_frames(self):
        packet = _packet_spanning(300_000, 20)
        stream = EventStream(packet)
        iterated = list(stream.frame_index(66_000))
        direct = list(stream.iter_frames(66_000))
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
        # The windows tile [0, last event] from t = 0 on.
        assert index.num_frames == int(ts[-1]) // frame_duration + 1
        for i in range(index.num_frames):
            t_start = i * frame_duration
            assert (index.starts[i], index.ends[i]) == (t_start, t_start + frame_duration)
            in_window = (ts >= t_start) & (ts < t_start + frame_duration)
            np.testing.assert_array_equal(index.frame_events(i), packet[in_window])


class TestPacketNormalization:
    def test_packet_round_trip(self):
        stream = EventStream(make_packet([10, 20], [30, 40], [100, 50], [1, -1]), 240, 180)
        # Sorted by timestamp on construction.
        assert stream.events["t"].tolist() == [50, 100]
        assert stream.events["x"].tolist() == [20, 10]
        assert len(stream) == 2

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

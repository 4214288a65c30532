"""Tests for the online framer (live windowing with bounded disorder)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.events.stream import EventBuffer, EventStream
from repro.events.types import make_packet
from repro.serving.framer import OnlineFramer

FRAME_US = 66_000


def _packet(ts, x=10, y=10):
    ts = list(ts)
    return make_packet([x] * len(ts), [y] * len(ts), ts, [1] * len(ts))


class TestEventBuffer:
    def test_append_and_drain_sorted(self):
        buffer = EventBuffer()
        buffer.append(_packet([50, 10]))
        buffer.append(_packet([30]))
        assert len(buffer) == 3
        assert buffer.max_seen_t == 50
        drained = buffer.drain_until(40)
        assert drained["t"].tolist() == [10, 30]
        assert len(buffer) == 1
        assert buffer.drain_until(51)["t"].tolist() == [50]
        assert len(buffer) == 0

    def test_empty_drain(self):
        buffer = EventBuffer()
        assert len(buffer.drain_until(100)) == 0
        assert buffer.max_seen_t is None

    def test_drain_keeps_remainder_across_appends(self):
        buffer = EventBuffer()
        buffer.append(_packet([100, 200]))
        buffer.drain_until(150)
        buffer.append(_packet([120]))  # older than the retained 200
        drained = buffer.drain_until(201)
        assert drained["t"].tolist() == [120, 200]


class TestOnlineFramer:
    def test_in_order_batches_match_frame_index(self):
        rng = np.random.default_rng(0)
        ts = np.sort(rng.integers(0, 500_000, size=2_000))
        packet = make_packet(
            rng.integers(0, 240, 2_000), rng.integers(0, 180, 2_000), ts,
            np.where(rng.random(2_000) < 0.5, 1, -1),
        )
        stream = EventStream(packet.copy())
        index = stream.frame_index(FRAME_US)

        framer = OnlineFramer(FRAME_US, reorder_slack_us=1_000)
        windows = []
        for lo in range(0, 500_000, 20_000):
            hi = lo + 20_000
            i0, i1 = np.searchsorted(packet["t"], [lo, hi])
            windows.extend(framer.append(packet[i0:i1]))
        windows.extend(framer.flush())

        assert len(windows) == index.num_frames
        for window, (t_start, t_end, events) in zip(windows, index):
            assert window.t_start_us == t_start
            assert window.t_end_us == t_end
            assert window.num_events == len(events)
            assert sorted(window.events["t"].tolist()) == sorted(events["t"].tolist())

    @pytest.mark.parametrize(
        "first_t",
        [5_000_123, 76 * FRAME_US - 1, 76 * FRAME_US],
        ids=["mid_window", "last_us_of_window", "window_edge"],
    )
    def test_late_start_matches_frame_index(self, first_t):
        # A recording whose first event comes ~5 s after t = 0: live framing
        # and batch replay share one grid from t = 0, so both begin with the
        # same empty windows and cut the recording at the same bounds.
        rng = np.random.default_rng(1)
        ts = np.sort(rng.integers(first_t, first_t + 700_000, size=3_000))
        ts[0] = first_t
        packet = make_packet(
            rng.integers(0, 240, 3_000), rng.integers(0, 180, 3_000), ts,
            np.where(rng.random(3_000) < 0.5, 1, -1),
        )
        index = EventStream(packet.copy()).frame_index(FRAME_US)

        framer = OnlineFramer(FRAME_US, reorder_slack_us=1_000)
        windows = []
        for lo in range(first_t, int(ts[-1]) + 1, 20_000):
            i0, i1 = np.searchsorted(packet["t"], [lo, lo + 20_000])
            windows.extend(framer.append(packet[i0:i1]))
        windows.extend(framer.flush())

        counts = np.diff(index.splits)
        assert index.starts[0] == 0
        # The first event opens the window that contains it, after only
        # empty ones.
        assert int(counts[: first_t // FRAME_US].sum()) == 0
        assert counts[first_t // FRAME_US] > 0
        assert [(w.t_start_us, w.t_end_us) for w in windows] == list(
            zip(index.starts.tolist(), index.ends.tolist())
        )
        assert [w.num_events for w in windows] == counts.tolist()
        assert framer.late_events == 0

    def test_window_closes_only_past_watermark(self):
        framer = OnlineFramer(FRAME_US, reorder_slack_us=10_000)
        assert framer.append(_packet([1_000])) == []
        # Watermark = 70k - 10k = 60k < 66k: window 0 still open.
        assert framer.append(_packet([70_000])) == []
        # Watermark = 80k - 10k = 70k >= 66k: window 0 closes.
        windows = framer.append(_packet([80_000]))
        assert [w.frame_index for w in windows] == [0]
        assert windows[0].num_events == 1

    def test_out_of_order_within_slack_lands_in_correct_window(self):
        framer = OnlineFramer(FRAME_US, reorder_slack_us=10_000)
        framer.append(_packet([68_000]))  # later-stamped event arrives first
        framer.append(_packet([60_000]))  # belongs to window 0, 8 ms late
        windows = framer.flush()
        assert [w.num_events for w in windows] == [1, 1]
        assert windows[0].events["t"].tolist() == [60_000]
        assert framer.late_events == 0

    def test_events_before_zero_are_counted_late(self):
        # A batch stream refuses stamps before t = 0; the live framer takes
        # them like any event whose window has closed: dropped and counted.
        framer = OnlineFramer(FRAME_US, reorder_slack_us=1_000)
        windows = framer.append(_packet([-5_000, -1_000, 70_000]))
        windows += framer.flush()
        assert framer.late_events == 2
        assert [(w.t_start_us, w.num_events) for w in windows] == [(0, 0), (FRAME_US, 1)]

    def test_event_beyond_slack_is_dropped_and_counted(self):
        framer = OnlineFramer(FRAME_US, reorder_slack_us=1_000)
        framer.append(_packet([100_000]))  # closes window 0 (watermark 99k)
        framer.append(_packet([10_000]))  # window 0 already closed -> late
        assert framer.late_events == 1
        windows = framer.flush()
        assert sum(w.num_events for w in windows) == 1

    def test_empty_gap_windows_are_emitted(self):
        framer = OnlineFramer(FRAME_US, reorder_slack_us=0)
        framer.append(_packet([5_000]))
        windows = framer.append(_packet([5 * FRAME_US + 10]))
        # Windows 0..4 close (watermark = 330 010); 1-4 are empty.
        assert [w.frame_index for w in windows] == [0, 1, 2, 3, 4]
        assert [w.num_events for w in windows] == [1, 0, 0, 0, 0]

    def test_flush_on_empty_framer(self):
        framer = OnlineFramer(FRAME_US)
        assert framer.flush() == []
        assert framer.frames_closed == 0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            OnlineFramer(frame_duration_us=0)
        with pytest.raises(ValueError):
            OnlineFramer(reorder_slack_us=-1)

    def test_counters(self):
        framer = OnlineFramer(FRAME_US, reorder_slack_us=0)
        framer.append(_packet([1, 2, 3]))
        assert framer.events_accepted == 3
        assert framer.events_pending == 3
        framer.flush()
        assert framer.events_pending == 0
        assert framer.frames_closed == 1

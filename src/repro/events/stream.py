"""Event streams and fixed-duration frame windows.

The EBBIOT processor is interrupt driven: it wakes up every ``tF`` (66 ms in
the paper) and reads out all events accumulated since the previous interrupt
(Fig. 2).  :meth:`EventStream.frame_index` implements exactly that
partitioning of an event stream into frame-duration windows, and
:meth:`EventStream.iter_frames` iterates it.  The window grid always starts
at ``t = 0``: the simulator's ground-truth grid and the live
:class:`~repro.serving.framer.OnlineFramer`'s grid, so batch replay and a
live session frame a recording identically whenever it starts.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.events.types import (
    concatenate_packets,
    empty_packet,
    is_time_sorted,
    normalize_packet,
    validate_packet,
)


def frame_boundaries(
    timestamps: np.ndarray,
    frame_duration_us: int,
    t_start: int,
    t_end: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Compute all fixed-duration window edges and event split points at once.

    One search over the full edge array (:func:`_left_bounds`, vectorised
    once there are more than a few edges) replaces the per-window pair of
    searches the per-frame loop needs: that is what makes long-recording
    framing cheap.  It is a bisection, which reads only the
    ~``log2(len(timestamps))`` stamps it probes per edge, so the ``t``
    field of an event packet (a strided view) is searched in place, where
    :func:`numpy.searchsorted` would first copy the whole column, 8 bytes
    an event.  The splits equal ``np.searchsorted``'s.

    Parameters
    ----------
    timestamps:
        Sorted event timestamps in microseconds.
    frame_duration_us:
        Window length ``tF`` in microseconds.
    t_start, t_end:
        Stream bounds; windows cover ``[t_start, t_end)`` (the final window
        may extend past ``t_end``).

    Returns
    -------
    (edges, splits)
        ``edges`` holds the ``num_windows + 1`` window boundaries; window
        ``i`` spans ``[edges[i], edges[i + 1])`` and contains
        ``timestamps[splits[i]:splits[i + 1]]``.
    """
    if frame_duration_us <= 0:
        raise ValueError(f"frame_duration_us must be positive, got {frame_duration_us}")
    if t_end <= t_start:
        edges = np.asarray([t_start], dtype=np.int64)
        return edges, np.zeros(1, dtype=np.int64)
    num_windows = -(-(t_end - t_start) // frame_duration_us)
    edges = t_start + frame_duration_us * np.arange(num_windows + 1, dtype=np.int64)
    return edges, _left_bounds(timestamps, edges)


#: Up to this many targets, :func:`_left_bounds` bisects for each one in
#: Python (~0.2 us a probe); past it, for all at once in NumPy (~5 us a
#: probe round, whatever the number of targets).
_SCALAR_TARGETS = 32


def _left_bounds(values: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``np.searchsorted(values, targets, side="left")`` without copying ``values``.

    A bisection reads only the values it probes, so ``values`` may be any
    strided view.  Few targets are placed one by one with
    :func:`bisect.bisect_left`; many are placed at once by a branch-free
    bisection in which each step halves the interval ``[base, base +
    size]`` holding every target's answer, gathering one probe per target.
    """
    if len(targets) <= _SCALAR_TARGETS:
        return np.array(
            [bisect.bisect_left(values, target) for target in targets.tolist()], dtype=np.int64
        )
    base = np.zeros(len(targets), dtype=np.int64)
    size = len(values)
    if size == 0:
        return base
    while size > 1:
        half = size // 2
        base += (values[base + half] < targets) * half
        size -= half
    base += values[base] < targets
    return base


@dataclass(frozen=True)
class FrameIndex:
    """Precomputed frame-window partition of an event array.

    Produced by :meth:`EventStream.frame_index`; the batched EBBI path
    (:meth:`repro.core.ebbi.EbbiBuilder.build_batch`) and the runtime layer
    consume it directly instead of iterating windows one at a time.
    """

    events: np.ndarray
    edges: np.ndarray
    splits: np.ndarray

    @property
    def num_frames(self) -> int:
        """Number of frame windows in the partition."""
        return len(self.edges) - 1

    @property
    def starts(self) -> np.ndarray:
        """Window start times (length ``num_frames``)."""
        return self.edges[:-1]

    @property
    def ends(self) -> np.ndarray:
        """Window end times (length ``num_frames``)."""
        return self.edges[1:]

    def frame_events(self, index: int) -> np.ndarray:
        """The events of window ``index`` (a view, not a copy)."""
        return self.events[self.splits[index] : self.splits[index + 1]]

    def __len__(self) -> int:
        return self.num_frames

    def __iter__(self) -> Iterator[Tuple[int, int, np.ndarray]]:
        for i in range(self.num_frames):
            yield int(self.edges[i]), int(self.edges[i + 1]), self.frame_events(i)


@dataclass
class EventStream:
    """A time-sorted stream of events from a single sensor.

    Parameters
    ----------
    events:
        Structured event array (dtype :data:`repro.events.types.EVENT_DTYPE`).
        Sorted by timestamp on construction if needed.  Stamps must be
        non-negative: frame windows start at ``t = 0``, so an event before
        it would belong to no window, and construction raises
        :class:`ValueError` instead.
    width, height:
        Sensor resolution (``A x B`` in the paper; 240 x 180 for DAVIS).
    """

    events: np.ndarray = field(default_factory=empty_packet)
    width: int = 240
    height: int = 180

    def __post_init__(self) -> None:
        self.events = normalize_packet(self.events)
        validate_packet(self.events, self.width, self.height)
        if not is_time_sorted(self.events):
            self.events = np.take(self.events, np.argsort(self.events["t"], kind="stable"))
        if len(self.events) and self.events["t"][0] < 0:
            t = self.events["t"]
            num_negative = int(np.searchsorted(t, 0, side="left"))
            raise ValueError(
                f"{num_negative} event(s) stamped before t = 0 (earliest "
                f"{int(t[0])} us): frame windows start at t = 0"
            )

    # -- basic properties ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    @property
    def resolution(self) -> Tuple[int, int]:
        """Sensor resolution as ``(width, height)``."""
        return (self.width, self.height)

    @property
    def t_start(self) -> int:
        """Timestamp of the first event (0 when empty)."""
        return int(self.events["t"][0]) if len(self.events) else 0

    @property
    def t_end(self) -> int:
        """Timestamp of the last event (0 when empty)."""
        return int(self.events["t"][-1]) if len(self.events) else 0

    @property
    def duration_us(self) -> int:
        """Stream duration in microseconds."""
        return self.t_end - self.t_start if len(self.events) else 0

    @property
    def duration_s(self) -> float:
        """Stream duration in seconds."""
        return self.duration_us * 1e-6

    @property
    def num_events(self) -> int:
        """Total number of events in the stream."""
        return len(self.events)

    @property
    def mean_event_rate(self) -> float:
        """Mean event rate in events/second (0.0 for degenerate streams)."""
        if self.duration_us == 0:
            return 0.0
        return self.num_events / self.duration_s

    # -- iteration -----------------------------------------------------------------

    def iter_frames(self, frame_duration_us: int) -> Iterator[Tuple[int, int, np.ndarray]]:
        """Iterate over the windows of :meth:`frame_index`.

        Yields ``(window_start, window_end, window_events)``: the window
        bounds in microseconds and the events with ``window_start <= t <
        window_end``.  Windows with zero events are still yielded (with an
        empty array) so downstream framing stays in lockstep with
        wall-clock time.
        """
        yield from self.frame_index(frame_duration_us)

    def frame_index(self, frame_duration_us: int) -> FrameIndex:
        """Precompute the full frame-window partition of the stream.

        The returned :class:`FrameIndex` resolves every window boundary with
        a single vectorised ``searchsorted``, so batched consumers (the
        pipeline's chunked path, the runtime layer) never touch the
        per-window Python loop.  Windows start at ``t = 0``, so a recording
        that starts late begins with empty windows; every event (none is
        stamped before ``t = 0``) falls in exactly one window, and the last
        window ends past the last event.  An empty stream has no windows.

        Parameters
        ----------
        frame_duration_us:
            The EBBIOT frame duration ``tF`` in microseconds; must be
            positive, also for an empty stream.
        """
        t_end = self.t_end + 1 if len(self.events) else 0
        edges, splits = frame_boundaries(self.events["t"], frame_duration_us, 0, t_end)
        return FrameIndex(self.events, edges, splits)


class EventBuffer:
    """Growable buffer for live event ingestion (the serving layer's spool).

    Batches arriving from a live sensor are appended as-is (possibly
    overlapping in time); :meth:`drain_until` later extracts the time-sorted
    prefix below a watermark.  Appends are O(1) — packets are only
    concatenated and sorted when a drain compacts the buffer — so per-batch
    ingestion cost is independent of how much history is buffered.

    Real sensors deliver packets that are already time-sorted and
    non-overlapping, so the buffer tracks whether its packets form one
    globally ordered run.  While they do, :meth:`drain_until` slices packets
    in place — no concatenation of the remainder, no ``argsort``, no copies —
    which is what keeps the live path at batch-replay throughput.  Any
    out-of-order packet drops the buffer back to the sort-on-drain path,
    whose stable sort yields byte-identical output for equal timestamps.

    The buffer deliberately does not validate coordinates; callers that need
    bounds checks (the protocol layer does) validate before appending.
    """

    def __init__(self) -> None:
        self._packets: List[np.ndarray] = []
        self._num_pending = 0
        self._max_seen_t: Optional[int] = None
        self._ordered = True

    def __len__(self) -> int:
        return self._num_pending

    @property
    def max_seen_t(self) -> Optional[int]:
        """Largest event timestamp ever appended (``None`` before any)."""
        return self._max_seen_t

    def append(self, events: np.ndarray) -> None:
        """Buffer one batch of events (any order, canonical-izable dtype)."""
        events = normalize_packet(events)
        if len(events) == 0:
            return
        t = events["t"]
        if self._ordered:
            if not is_time_sorted(events):
                self._ordered = False
            elif self._max_seen_t is not None and int(t[0]) < self._max_seen_t:
                self._ordered = False
        batch_max = int(t[-1]) if self._ordered else int(t.max())
        if self._max_seen_t is None or batch_max > self._max_seen_t:
            self._max_seen_t = batch_max
        self._packets.append(events)
        self._num_pending += len(events)

    def drain_until(self, t_us: int) -> np.ndarray:
        """Remove and return all buffered events with ``t < t_us``, sorted.

        On the ordered fast path the drained prefix is sliced straight out of
        the buffered packets; otherwise the buffer is compacted into a single
        sorted packet first (so repeated drains do not re-sort old data).
        """
        if self._num_pending == 0:
            return empty_packet()
        if not self._ordered:
            merged = concatenate_packets(self._packets)
            cut = int(np.searchsorted(merged["t"], t_us, side="left"))
            drained = merged[:cut].copy()
            remainder = merged[cut:].copy()
            self._packets = [remainder] if len(remainder) else []
            self._num_pending = len(remainder)
            self._ordered = True
            return drained
        out: List[np.ndarray] = []
        consumed = len(self._packets)
        for i, packet in enumerate(self._packets):
            t = packet["t"]
            if int(t[-1]) < t_us:
                out.append(packet)
                continue
            cut = int(np.searchsorted(np.ascontiguousarray(t), t_us, side="left"))
            if cut:
                out.append(packet[:cut])
                self._packets[i] = packet[cut:]
            consumed = i
            break
        self._packets = self._packets[consumed:]
        if not out:
            return empty_packet()
        drained = out[0] if len(out) == 1 else np.concatenate(out)
        self._num_pending -= len(drained)
        return drained

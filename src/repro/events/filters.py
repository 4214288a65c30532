"""The event-level noise filter of the event-driven baseline.

:class:`NearestNeighbourFilter` (NN-filt) is the front end of the fully
event-based NN-filt + EBMS pipeline (Section II-A of the paper): it keeps an
event only if another event occurred recently in its ``p x p`` spatial
neighbourhood.  It needs a per-pixel timestamp memory of ``Bt`` bits, which
is exactly the memory cost the paper's Eq. (2) charges against the
event-driven approach.

Semantically the filter processes events strictly in time order, one at a
time, mirroring how it would run on an embedded event-driven processor.
:meth:`NearestNeighbourFilter.process_scalar` *is* that reference
implementation.  The default ``process`` path reaches the same result in
whole-packet vectorized passes: the packet is partitioned into maximal
sub-chunks in which no pixel repeats (:func:`distinct_pixel_spans`), so each
sub-chunk's per-pixel timestamp reads/writes have no intra-chunk write
conflicts and the sequential update collapses to NumPy gathers plus one
scatter per chunk.  The two paths are bit-identical — keep-masks and the
per-pixel timestamp memory agree exactly — which
``tests/test_event_path_parity.py`` asserts on adversarial packets.
``REPRO_FORCE_SCALAR=1`` (or ``vectorized=False``) forces the reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.fastpath import scalar_forced

#: Sub-chunk size cap for the vectorized filter passes.  Bounds the
#: ``chunk x neighbourhood`` gather scratch (8192 x 8 int64 ~ 0.5 MB per
#: array) without measurably limiting the amount of work per NumPy call.
MAX_FILTER_CHUNK = 8192

#: Packets shorter than this skip the vectorized machinery: the fixed cost
#: of the chunk partition exceeds the scalar loop for a handful of events.
MIN_VECTOR_EVENTS = 16

#: Spans shorter than this are swept with the in-place scalar kernel instead
#: of paying ~two dozen small-array NumPy calls.  Same-pixel bursts produce
#: runs of one-event spans; coalescing them into one scalar sweep keeps the
#: fast path fast on pathological packets (hot pixels, stuck pixels).
MIN_SPAN_VECTOR = 48


def previous_occurrence(pixel_ids: np.ndarray) -> np.ndarray:
    """For each event, the index of the previous event at the same pixel.

    Returns an ``int64`` array where entry ``i`` is the largest ``j < i``
    with ``pixel_ids[j] == pixel_ids[i]``, or ``-1`` when the pixel has not
    appeared before in the packet.  One stable argsort groups equal pixels
    while preserving arrival order, so the whole map costs ``O(n log n)``
    with no Python-level loop.
    """
    n = len(pixel_ids)
    prev = np.full(n, -1, dtype=np.int64)
    if n < 2:
        return prev
    order = np.argsort(pixel_ids, kind="stable")
    sorted_ids = pixel_ids[order]
    same_as_predecessor = sorted_ids[1:] == sorted_ids[:-1]
    prev[order[1:][same_as_predecessor]] = order[:-1][same_as_predecessor]
    return prev


def distinct_pixel_spans(
    pixel_ids: np.ndarray, max_chunk: int = MAX_FILTER_CHUNK
) -> Iterator[Tuple[int, int]]:
    """Partition a packet into maximal spans with no repeated pixel.

    Yields ``(start, stop)`` half-open index ranges covering the packet in
    order.  Within each span every pixel id is unique, so a span's per-pixel
    state updates commute and can be applied with one vectorized scatter.
    A same-pixel burst degenerates to one-event spans — correct, just not
    fast — and ``max_chunk`` caps the span length to bound scratch memory.

    The scan visits only the packet's *repeat* events (events whose pixel
    already fired earlier in the packet), so the whole partition costs
    ``O(n log n)`` for the argsort plus ``O(repeats + spans)``: a repeat
    whose previous occurrence predates the current span start can never end
    this or any later span (span starts only grow), so each repeat is
    examined once.
    """
    n = len(pixel_ids)
    prev = previous_occurrence(pixel_ids)
    repeat_indices = np.nonzero(prev >= 0)[0]
    repeats = repeat_indices.tolist()
    repeat_prev = prev[repeat_indices].tolist()
    num_repeats = len(repeats)
    start = 0
    cursor = 0
    while start < n:
        cap = min(start + max_chunk, n)
        while cursor < num_repeats and (
            repeats[cursor] <= start or repeat_prev[cursor] < start
        ):
            cursor += 1
        if cursor < num_repeats and repeats[cursor] < cap:
            stop = repeats[cursor]
        else:
            stop = cap
        yield start, stop
        start = stop


@dataclass
class NearestNeighbourFilter:
    """Nearest-neighbour temporal support filter (NN-filt).

    An event at pixel ``(x, y)`` and time ``t`` is kept if any pixel in its
    ``p x p`` neighbourhood (excluding itself) has fired within
    ``support_time_us`` before ``t``.  Every incoming event writes its
    timestamp to the per-pixel memory regardless of whether it is kept.

    Parameters
    ----------
    width, height:
        Sensor resolution.
    neighbourhood:
        Spatial support size ``p`` (the paper uses ``p = 3``).
    support_time_us:
        Maximum age of a neighbouring event for it to count as support.
    vectorized:
        Use the chunked fast path (default).  ``False`` pins this instance
        to the scalar reference; the ``REPRO_FORCE_SCALAR`` environment
        variable overrides all instances at once.
    """

    width: int
    height: int
    neighbourhood: int = 3
    support_time_us: int = 66_000
    vectorized: bool = True

    _last_timestamp: np.ndarray = field(init=False, repr=False)
    _chunk_scratch: Optional[np.ndarray] = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.neighbourhood < 1 or self.neighbourhood % 2 == 0:
            raise ValueError(
                f"neighbourhood must be a positive odd integer, got {self.neighbourhood}"
            )
        if self.support_time_us <= 0:
            raise ValueError(
                f"support_time_us must be positive, got {self.support_time_us}"
            )
        half = self.neighbourhood // 2
        offsets = [
            (dy, dx)
            for dy in range(-half, half + 1)
            for dx in range(-half, half + 1)
            if not (dy == 0 and dx == 0)
        ]
        self._offsets = offsets
        self._offset_dy = np.array([o[0] for o in offsets], dtype=np.int64)
        self._offset_dx = np.array([o[1] for o in offsets], dtype=np.int64)
        self.reset()

    def reset(self) -> None:
        """Clear the per-pixel timestamp memory."""
        # -1 marks "never fired"; stored as int64 microseconds.
        self._last_timestamp = np.full((self.height, self.width), -1, dtype=np.int64)

    @property
    def memory_bits(self) -> int:
        """Size of the timestamp memory in bits, assuming ``Bt``-bit stamps.

        The paper's Eq. (2) charges ``Bt * A * B`` bits with ``Bt = 16``.
        """
        bt = 16
        return bt * self.width * self.height

    def process(self, events: np.ndarray) -> np.ndarray:
        """Filter a time-sorted packet; return the boolean keep-mask.

        The filter is stateful: calling :meth:`process` on consecutive
        packets of one stream continues from the previous packet's state.
        Dispatches to the vectorized fast path unless the scalar reference
        is forced; both produce bit-identical keep-masks and memory state.
        """
        if (
            not self.vectorized
            or len(events) < MIN_VECTOR_EVENTS
            or scalar_forced()
        ):
            return self.process_scalar(events)
        return self._process_vectorized(events)

    def process_scalar(self, events: np.ndarray) -> np.ndarray:
        """The sequential per-event reference implementation."""
        keep = np.zeros(len(events), dtype=bool)
        half = self.neighbourhood // 2
        stamps = self._last_timestamp
        for index in range(len(events)):
            x = int(events["x"][index])
            y = int(events["y"][index])
            t = int(events["t"][index])
            x_lo, x_hi = max(0, x - half), min(self.width, x + half + 1)
            y_lo, y_hi = max(0, y - half), min(self.height, y + half + 1)
            patch = stamps[y_lo:y_hi, x_lo:x_hi]
            own = stamps[y, x]
            # Temporarily exclude the pixel's own previous timestamp so an
            # isolated pixel firing repeatedly does not support itself.
            stamps[y, x] = -1
            recent = patch >= (t - self.support_time_us)
            supported = bool(np.any(recent & (patch >= 0)))
            stamps[y, x] = own
            keep[index] = supported
            stamps[y, x] = t
        return keep

    def _process_vectorized(self, events: np.ndarray) -> np.ndarray:
        """Chunked fast path: gather-based support tests, scatter updates.

        For each distinct-pixel sub-chunk the support test splits in two:

        * *prior* support from the per-pixel memory as of chunk start —
          a ``chunk x (p^2 - 1)`` gather of neighbour timestamps (the own
          pixel is never among the offsets, which is exactly the scalar
          path's self-support exclusion);
        * *intra-chunk* support from earlier events inside the same chunk —
          chunk indices are scattered into a persistent index frame (legal
          because no pixel repeats), gathered back per neighbour, and an
          index comparison enforces the "strictly earlier event" order that
          timestamps alone cannot (ties are common).

        Timestamps only grow, so an event supported via the stale prior
        value of a pixel overwritten inside the chunk is also supported via
        the overwriting (newer) event — the OR of the two tests equals the
        sequential result exactly.

        Runs of spans shorter than :data:`MIN_SPAN_VECTOR` (same-pixel
        bursts) are coalesced and swept with the scalar kernel in place —
        identical semantics, no small-array NumPy overhead.

        When the whole packet spans at most ``support_time_us`` — always
        true for the pipeline's 66 ms window packets with the paper's 66 ms
        support time — every intra-packet predecessor is automatically
        recent enough, and the packet collapses to a single vectorized pass
        with no span partition at all (:meth:`_process_whole_packet`).
        """
        n = len(events)
        keep = np.zeros(n, dtype=bool)
        xs = events["x"].astype(np.int64)
        ys = events["y"].astype(np.int64)
        ts = events["t"].astype(np.int64)
        pix = ys * self.width + xs
        stamps_flat = self._last_timestamp.reshape(-1)
        if self._chunk_scratch is None:
            self._chunk_scratch = np.full(self.height * self.width, -1, dtype=np.int64)
        index_frame = self._chunk_scratch
        num_offsets = len(self._offset_dx)
        support = self.support_time_us
        if num_offsets > 0 and int(ts[-1]) - int(ts[0]) <= support:
            self._process_whole_packet(xs, ys, ts, pix, keep)
            return keep
        # Materialized lazily: only the short-span scalar-sweep fallback
        # reads the Python lists, and a burst-free packet never needs them.
        coordinate_lists = None

        def sweep(lo: int, hi: int) -> None:
            nonlocal coordinate_lists
            if coordinate_lists is None:
                coordinate_lists = (xs.tolist(), ys.tolist(), ts.tolist())
            self._scalar_sweep(*coordinate_lists, lo, hi, keep)

        pending_lo = -1
        pending_hi = -1
        for start, stop in distinct_pixel_spans(pix):
            if stop - start < MIN_SPAN_VECTOR or num_offsets == 0:
                if pending_lo < 0:
                    pending_lo = start
                pending_hi = stop
                continue
            if pending_lo >= 0:
                sweep(pending_lo, pending_hi)
                pending_lo = -1
            cxs = xs[start:stop]
            cys = ys[start:stop]
            cts = ts[start:stop]
            cpix = pix[start:stop]
            nx = cxs[:, None] + self._offset_dx[None, :]
            ny = cys[:, None] + self._offset_dy[None, :]
            in_bounds = (nx >= 0) & (nx < self.width) & (ny >= 0) & (ny < self.height)
            flat = np.where(in_bounds, ny * self.width + nx, 0)
            earliest_support = cts[:, None] - support
            prior = stamps_flat[flat]
            supported = in_bounds & (prior >= 0) & (prior >= earliest_support)
            # Intra-chunk: neighbour fired earlier in this same chunk.
            index_frame[cpix] = np.arange(stop - start, dtype=np.int64)
            neighbour_index = index_frame[flat]
            has_neighbour = in_bounds & (neighbour_index >= 0)
            neighbour_t = cts[np.where(neighbour_index >= 0, neighbour_index, 0)]
            supported |= (
                has_neighbour
                & (neighbour_index < np.arange(stop - start, dtype=np.int64)[:, None])
                & (neighbour_t >= earliest_support)
            )
            keep[start:stop] = supported.any(axis=1)
            stamps_flat[cpix] = cts
            index_frame[cpix] = -1
        if pending_lo >= 0:
            sweep(pending_lo, pending_hi)
        return keep

    def _process_whole_packet(
        self,
        xs: np.ndarray,
        ys: np.ndarray,
        ts: np.ndarray,
        pix: np.ndarray,
        keep: np.ndarray,
    ) -> None:
        """One-pass kernel for packets whose time span fits ``support_time_us``.

        With every pair of packet events at most ``support_time_us`` apart,
        an intra-packet predecessor at a neighbouring pixel is *always*
        recent enough — the time test is vacuously true — so support from
        inside the packet reduces to "some earlier event hit a neighbour
        pixel", i.e. a first-occurrence index comparison.  No distinct-pixel
        partition is needed: repeats are fine because *any* earlier
        occurrence supports, the first-occurrence scatter is made
        deterministic by writing indices in reverse order (last write = the
        smallest index), and the final timestamp scatter is in forward
        order (last write = the latest time, the correct end state).

        Support from events before the packet still carries the explicit
        ``>= t - support_time_us`` test against the per-pixel memory; a
        stale read of a pixel overwritten inside the packet is covered by
        the intra test exactly as in the span-partition path.

        Processes in ``MAX_FILTER_CHUNK`` slices only to bound the gather
        scratch; each slice inherits the same reasoning (its span is no
        longer than the packet's).
        """
        n = len(pix)
        stamps_flat = self._last_timestamp.reshape(-1)
        index_frame = self._chunk_scratch
        support = self.support_time_us
        for start in range(0, n, MAX_FILTER_CHUNK):
            stop = min(start + MAX_FILTER_CHUNK, n)
            cpix = pix[start:stop]
            cts = ts[start:stop]
            nx = xs[start:stop, None] + self._offset_dx[None, :]
            ny = ys[start:stop, None] + self._offset_dy[None, :]
            in_bounds = (nx >= 0) & (nx < self.width) & (ny >= 0) & (ny < self.height)
            flat = np.where(in_bounds, ny * self.width + nx, 0)
            prior = stamps_flat[flat]
            earliest_support = cts[:, None] - support
            supported = in_bounds & (prior >= 0) & (prior >= earliest_support)
            # First intra-chunk occurrence of each pixel: reverse-order
            # scatter leaves the smallest index.
            reverse = np.arange(stop - start - 1, -1, -1, dtype=np.int64)
            index_frame[cpix[reverse]] = reverse
            neighbour_first = index_frame[flat]
            supported |= (
                in_bounds
                & (neighbour_first >= 0)
                & (neighbour_first < np.arange(stop - start, dtype=np.int64)[:, None])
            )
            keep[start:stop] = supported.any(axis=1)
            stamps_flat[cpix] = cts
            index_frame[cpix] = -1

    def _scalar_sweep(
        self, xs, ys, ts, lo: int, hi: int, keep: np.ndarray
    ) -> None:
        """Scalar kernel over ``[lo, hi)`` on pre-extracted coordinate lists.

        Same integer comparisons as :meth:`process_scalar` (so bit-identical
        keep decisions and memory updates), but with plain-Python neighbour
        probes and early exit — this is what same-pixel burst runs fall back
        to inside the vectorized path.
        """
        stamps = self._last_timestamp
        width, height = self.width, self.height
        support = self.support_time_us
        offsets = self._offsets
        for index in range(lo, hi):
            x = xs[index]
            y = ys[index]
            t = ts[index]
            earliest = t - support
            supported = False
            for dy, dx in offsets:
                nyy = y + dy
                nxx = x + dx
                if 0 <= nyy < height and 0 <= nxx < width:
                    stamp = stamps[nyy, nxx]
                    if stamp >= 0 and stamp >= earliest:
                        supported = True
                        break
            keep[index] = supported
            stamps[y, x] = t

    def filter(self, events: np.ndarray) -> np.ndarray:
        """Return only the events that pass the filter."""
        return events[self.process(events)]

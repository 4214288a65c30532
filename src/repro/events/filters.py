"""The event-level noise filter of the event-driven baseline.

:class:`NearestNeighbourFilter` (NN-filt) is the front end of the fully
event-based NN-filt + EBMS pipeline (Section II-A of the paper): it keeps an
event only if another event occurred recently in its ``p x p`` spatial
neighbourhood.  It needs a per-pixel timestamp memory of ``Bt`` bits, which
is exactly the memory cost the paper's Eq. (2) charges against the
event-driven approach, and that memory is the filter's only state.

Semantically the filter processes events strictly in time order, one at a
time, mirroring how it would run on an embedded event-driven processor.
:meth:`NearestNeighbourFilter.process_scalar` *is* that reference
implementation.  The default ``process`` path reaches the same result in
vectorized passes: the packet is cut into slices that span at most
``support_time_us``, so inside a slice every earlier event is recent enough
to support a later one, and each slice's support test collapses to NumPy
gathers against the per-pixel memory plus one first-occurrence index
scatter.  The two paths are bit-identical — keep-masks and the per-pixel
timestamp memory agree exactly — which ``tests/test_event_path_parity.py``
asserts on adversarial packets.  ``REPRO_FORCE_SCALAR=1`` forces the
reference path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.utils.fastpath import scalar_forced

#: Slice size cap for the vectorized filter passes.  Bounds the
#: ``slice x neighbourhood`` gather scratch (8192 x 8 int64 ~ 0.5 MB per
#: array) without measurably limiting the amount of work per NumPy call.
MAX_FILTER_CHUNK = 8192

#: Packets and slices shorter than this run the scalar reference: the fixed
#: cost of the vectorized pass exceeds the scalar loop for a handful of
#: events.
MIN_VECTOR_EVENTS = 16


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
    """

    width: int
    height: int
    neighbourhood: int = 3
    support_time_us: int = 66_000

    _last_timestamp: np.ndarray = field(init=False, repr=False)

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
        if len(events) < MIN_VECTOR_EVENTS or scalar_forced():
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
        """Fast path: the packet in slices, each tested in one vectorized pass.

        Each slice holds at most :data:`MAX_FILTER_CHUNK` events and spans at
        most ``support_time_us``, so an earlier event of the same slice at a
        neighbouring pixel is *always* recent enough — the time test is
        vacuously true — and support from inside the slice reduces to "some
        earlier event hit a neighbour pixel", a first-occurrence index
        comparison.  Repeats of a pixel are fine, because *any* earlier
        occurrence supports: the first-occurrence scatter is made
        deterministic by writing indices in reverse order (last write = the
        smallest index), and the final timestamp scatter is in forward order
        (last write = the latest time, the correct end state).

        Support from before the slice comes from the per-pixel memory, which
        the earlier slices have already updated: an ``n x (p^2 - 1)`` gather
        of neighbour timestamps with the explicit ``>= t - support_time_us``
        test (the own pixel is never among the offsets, which is exactly the
        scalar path's self-support exclusion).  Timestamps only grow, so an
        event supported via the stale value of a pixel overwritten earlier
        in the slice is also supported via the overwriting event — the OR of
        the two tests equals the sequential result exactly.

        A slice shorter than :data:`MIN_VECTOR_EVENTS` runs
        :meth:`process_scalar`, as a short packet does.  So events more than
        ``support_time_us`` apart cost the scalar reference's per-event time
        (~14 µs on a 2-vCPU Xeon host).  No caller sends such packets: the
        pipeline's 66 ms windows fit the paper's 66 ms support time, so they
        are cut only at the count cap.
        """
        n = len(events)
        keep = np.zeros(n, dtype=bool)
        xs = events["x"].astype(np.int64)
        ys = events["y"].astype(np.int64)
        ts = events["t"].astype(np.int64)
        pix = ys * self.width + xs
        stamps_flat = self._last_timestamp.reshape(-1)
        # Slice indices fit the narrowest signed type that holds
        # MAX_FILTER_CHUNK, which keeps the per-packet fill cheap.
        index_type = np.min_scalar_type(-MAX_FILTER_CHUNK)
        index_frame = np.full(self.height * self.width, -1, dtype=index_type)
        support = self.support_time_us
        start = 0
        while start < n:
            stop = min(
                int(np.searchsorted(ts, ts[start] + support, side="right")),
                start + MAX_FILTER_CHUNK,
            )
            if stop - start < MIN_VECTOR_EVENTS:
                keep[start:stop] = self.process_scalar(events[start:stop])
                start = stop
                continue
            cpix = pix[start:stop]
            cts = ts[start:stop]
            nx = xs[start:stop, None] + self._offset_dx[None, :]
            ny = ys[start:stop, None] + self._offset_dy[None, :]
            in_bounds = (nx >= 0) & (nx < self.width) & (ny >= 0) & (ny < self.height)
            flat = np.where(in_bounds, ny * self.width + nx, 0)
            prior = stamps_flat[flat]
            supported = in_bounds & (prior >= 0) & (prior >= cts[:, None] - support)
            # First occurrence of each pixel in the slice: reverse-order
            # scatter leaves the smallest index.
            reverse = np.arange(stop - start - 1, -1, -1, dtype=index_type)
            index_frame[cpix[reverse]] = reverse
            neighbour_first = index_frame[flat]
            supported |= (
                in_bounds
                & (neighbour_first >= 0)
                & (neighbour_first < np.arange(stop - start, dtype=index_type)[:, None])
            )
            keep[start:stop] = supported.any(axis=1)
            stamps_flat[cpix] = cts
            index_frame[cpix] = -1
            start = stop
        return keep

    def filter(self, events: np.ndarray) -> np.ndarray:
        """Return only the events that pass the filter."""
        return events[self.process(events)]

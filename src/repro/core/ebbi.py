"""Event-based binary image (EBBI) generation.

The EBBI is simply the per-pixel OR of all events accumulated during one
``tF`` window, ignoring polarity (Section II-A).  In hardware the sensor
array itself stores this image while the processor sleeps; in software we
reproduce the same frame from an event packet with
:func:`events_to_binary_frame` and keep both the raw and median-filtered
frames, exactly the two-frame memory budget of Eq. (1)
(``M_EBBI = 2 * A * B`` bits).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.core.median_filter import (
    MedianScratch,
    binary_median_filter,
    binary_median_filter_stack,
)
from repro.events.types import EVENT_DTYPE


class EbbiScratch:
    """Reusable raw/filtered frame stacks for steady-state EBBI building.

    ``process_stream`` and the live serving sessions build one frame stack
    per chunk (or per window) forever; with a scratch the stacks — and the
    median filter's work arrays — are allocated once and recycled, removing
    every per-frame allocation from the hot path.  Frames handed out by the
    builder are then *views* into these buffers, valid until the next
    build; ``EbbiFrames.detached()`` copies one out when it must outlive
    the chunk (and callers that retain frames, like ``keep_frames``
    pipelines, already detach).
    """

    def __init__(self) -> None:
        self._raw: Optional[np.ndarray] = None
        self._filtered: Optional[np.ndarray] = None
        self.median = MedianScratch()

    def stacks(
        self, num_frames: int, height: int, width: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw + filtered uint8 stacks with at least ``num_frames`` slots."""
        if (
            self._raw is None
            or self._raw.shape[0] < num_frames
            or self._raw.shape[1:] != (height, width)
        ):
            capacity = num_frames
            if self._raw is not None and self._raw.shape[1:] == (height, width):
                capacity = max(num_frames, 2 * self._raw.shape[0])
            self._raw = np.zeros((capacity, height, width), dtype=np.uint8)
            self._filtered = np.zeros((capacity, height, width), dtype=np.uint8)
        return self._raw[:num_frames], self._filtered[:num_frames]


def events_to_binary_frame(
    events: np.ndarray, width: int, height: int
) -> np.ndarray:
    """Accumulate an event packet into a binary frame.

    Parameters
    ----------
    events:
        Structured event array; polarity is ignored.
    width, height:
        Sensor resolution ``A x B``.

    Returns
    -------
    numpy.ndarray
        ``(height, width)`` uint8 array with 1 where at least one event
        occurred.
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"events must have dtype {EVENT_DTYPE}, got {events.dtype}")
    frame = np.zeros((height, width), dtype=np.uint8)
    if len(events) == 0:
        return frame
    x = events["x"]
    y = events["y"]
    if x.min() < 0 or x.max() >= width or y.min() < 0 or y.max() >= height:
        raise ValueError("event coordinates fall outside the frame")
    frame[y, x] = 1
    return frame


def events_to_binary_frame_batch(
    events: np.ndarray,
    splits: np.ndarray,
    width: int,
    height: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Accumulate consecutive event slices into a stack of binary frames.

    Window ``i`` covers ``events[splits[i]:splits[i + 1]]`` (the split
    points come from :func:`repro.events.stream.frame_boundaries`).  All
    windows are scattered into the output stack with one flat index
    assignment instead of one :func:`events_to_binary_frame` call per
    window.

    Parameters
    ----------
    events:
        Structured event array; polarity is ignored.
    splits:
        ``num_frames + 1`` monotonically non-decreasing split indices into
        ``events``.
    width, height:
        Sensor resolution ``A x B``.
    out:
        Optional ``(num_frames, height, width)`` uint8 stack to fill in
        place (zeroed first) and return — the buffer-reuse path.

    Returns
    -------
    numpy.ndarray
        ``(num_frames, height, width)`` uint8 stack with 1 where at least
        one event occurred in that window (``out`` if it was given).
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"events must have dtype {EVENT_DTYPE}, got {events.dtype}")
    splits = np.asarray(splits, dtype=np.int64)
    if splits.ndim != 1 or len(splits) < 1:
        raise ValueError("splits must be a 1-D array with at least one entry")
    num_frames = len(splits) - 1
    if out is None:
        frames = np.zeros((num_frames, height, width), dtype=np.uint8)
    else:
        if out.shape != (num_frames, height, width) or out.dtype != np.uint8:
            raise ValueError(
                f"out must be a uint8 array of shape {(num_frames, height, width)}, "
                f"got {out.dtype} {out.shape}"
            )
        frames = out
        frames[:] = 0
    window_events = events[splits[0] : splits[-1]]
    if len(window_events) == 0:
        return frames
    x = window_events["x"].astype(np.int64)
    y = window_events["y"].astype(np.int64)
    if x.min() < 0 or x.max() >= width or y.min() < 0 or y.max() >= height:
        raise ValueError("event coordinates fall outside the frame")
    frame_of_event = np.repeat(np.arange(num_frames, dtype=np.int64), np.diff(splits))
    flat = (frame_of_event * height + y) * width + x
    frames.reshape(-1)[flat] = 1
    return frames


@dataclass
class EbbiFrames:
    """The raw and filtered binary frames for one ``tF`` window."""

    raw: np.ndarray
    filtered: np.ndarray
    t_start_us: int
    t_end_us: int
    num_events: int

    @property
    def t_mid_us(self) -> int:
        """Midpoint of the accumulation window."""
        return (self.t_start_us + self.t_end_us) // 2

    def detached(self) -> "EbbiFrames":
        """A copy that owns its frames.

        Frames built by :meth:`EbbiBuilder.build_batch` are views into the
        chunk's frame stack; retaining one would pin the whole stack.  Call
        this before keeping a frame beyond the chunk's lifetime.
        """
        if self.raw.base is None and self.filtered.base is None:
            return self
        return EbbiFrames(
            raw=self.raw.copy(),
            filtered=self.filtered.copy(),
            t_start_us=self.t_start_us,
            t_end_us=self.t_end_us,
            num_events=self.num_events,
        )

    @property
    def active_pixel_count(self) -> int:
        """Number of active pixels in the raw frame."""
        return int(self.raw.sum())

    @property
    def active_pixel_fraction(self) -> float:
        """Fraction of active pixels in the raw frame (the paper's ``alpha``)."""
        return self.active_pixel_count / self.raw.size


class EbbiBuilder:
    """Builds raw + median-filtered EBBI frames from event packets.

    Parameters
    ----------
    width, height:
        Sensor resolution.
    median_patch_size:
        Median-filter patch size ``p`` (the paper uses 3); ``0`` or ``1``
        disables filtering (the filtered frame is then the raw frame).
    reuse_buffers:
        Build frames into a persistent :class:`EbbiScratch` instead of
        fresh arrays.  Returned frames are then views valid only until the
        next ``build``/``build_batch`` call — callers that retain a frame
        must take ``EbbiFrames.detached()`` first.  The pipeline (which
        consumes each frame before building the next and detaches anything
        it keeps) turns this on; the default stays allocate-per-call for
        API compatibility.

    An optional :class:`repro.obs.Instrumentation` can be attached as the
    ``instrumentation`` attribute; :meth:`build` then times accumulation
    and filtering as the ``ebbi`` and ``median`` stages.  With the default
    ``None`` the build path is untouched.
    """

    def __init__(
        self,
        width: int,
        height: int,
        median_patch_size: int = 3,
        reuse_buffers: bool = False,
    ) -> None:
        if width <= 0 or height <= 0:
            raise ValueError(f"frame size must be positive, got {width}x{height}")
        if median_patch_size not in (0, 1) and median_patch_size % 2 == 0:
            raise ValueError(
                f"median_patch_size must be odd (or 0/1 to disable), got {median_patch_size}"
            )
        self.width = width
        self.height = height
        self.median_patch_size = median_patch_size
        self.reuse_buffers = reuse_buffers
        self.instrumentation = None
        self._scratch = EbbiScratch() if reuse_buffers else None
        self._frames_built = 0
        self._total_active_fraction = 0.0

    def _accumulate_window(self, events: np.ndarray) -> np.ndarray:
        """Raw accumulation for one window (the ``ebbi`` stage)."""
        if self._scratch is not None:
            raw_stack, _ = self._scratch.stacks(1, self.height, self.width)
            return events_to_binary_frame_batch(
                events,
                np.array([0, len(events)], dtype=np.int64),
                self.width,
                self.height,
                out=raw_stack,
            )[0]
        return events_to_binary_frame(events, self.width, self.height)

    def _filter_window(self, raw: np.ndarray) -> np.ndarray:
        """Median filtering for one window (the ``median`` stage)."""
        if self._scratch is not None:
            raw_stack, filtered_stack = self._scratch.stacks(
                1, self.height, self.width
            )
            if self.median_patch_size in (0, 1):
                np.greater(raw_stack, 0, out=filtered_stack)
            else:
                binary_median_filter_stack(
                    raw_stack,
                    self.median_patch_size,
                    out=filtered_stack,
                    scratch=self._scratch.median,
                )
            return filtered_stack[0]
        if self.median_patch_size in (0, 1):
            return raw.copy()
        return binary_median_filter(raw, self.median_patch_size)

    def build(
        self, events: np.ndarray, t_start_us: int, t_end_us: int
    ) -> EbbiFrames:
        """Accumulate one window of events into raw and filtered EBBI frames.

        With ``reuse_buffers`` the window is built as a one-frame batch into
        the persistent stacks, so a live session's per-window processing
        allocates nothing; the returned frames are views into the scratch
        (their ``base`` is set, so ``detached()`` knows to copy).
        """
        instrumentation = self.instrumentation
        if instrumentation is None:
            raw = self._accumulate_window(events)
            filtered = self._filter_window(raw)
        else:
            with instrumentation.stage("ebbi"):
                raw = self._accumulate_window(events)
            with instrumentation.stage("median"):
                filtered = self._filter_window(raw)
        self._frames_built += 1
        self._total_active_fraction += np.count_nonzero(raw) / raw.size
        return EbbiFrames(
            raw=raw,
            filtered=filtered,
            t_start_us=t_start_us,
            t_end_us=t_end_us,
            num_events=len(events),
        )

    def build_batch(
        self,
        events: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        splits: np.ndarray,
    ) -> List[EbbiFrames]:
        """Accumulate a whole chunk of windows in one vectorised pass.

        Equivalent to calling :meth:`build` once per window but the raw
        accumulation (:func:`events_to_binary_frame_batch`) and the median
        filter (:func:`binary_median_filter_stack`) both run over the full
        stack at once.

        Parameters
        ----------
        events:
            Structured event array; window ``i`` is
            ``events[splits[i]:splits[i + 1]]``.
        starts, ends:
            Window bounds in microseconds (length ``num_frames``).
        splits:
            ``num_frames + 1`` split indices into ``events`` (see
            :func:`repro.events.stream.frame_boundaries`).
        """
        if len(starts) != len(ends) or len(splits) != len(starts) + 1:
            raise ValueError(
                f"inconsistent batch shapes: {len(starts)} starts, "
                f"{len(ends)} ends, {len(splits)} splits"
            )
        if self._scratch is not None:
            raw_out, filtered_out = self._scratch.stacks(
                len(starts), self.height, self.width
            )
            median_scratch = self._scratch.median
        else:
            raw_out = filtered_out = median_scratch = None
        raw_stack = events_to_binary_frame_batch(
            events, splits, self.width, self.height, out=raw_out
        )
        if self.median_patch_size in (0, 1):
            if filtered_out is None:
                filtered_stack = raw_stack.copy()
            else:
                np.greater(raw_stack, 0, out=filtered_out)
                filtered_stack = filtered_out
        else:
            filtered_stack = binary_median_filter_stack(
                raw_stack,
                self.median_patch_size,
                out=filtered_out,
                scratch=median_scratch,
            )
        counts = np.diff(np.asarray(splits, dtype=np.int64))
        num_frames = len(starts)
        self._frames_built += num_frames
        self._total_active_fraction += np.count_nonzero(raw_stack) / (
            self.width * self.height
        )
        return [
            EbbiFrames(
                raw=raw_stack[i],
                filtered=filtered_stack[i],
                t_start_us=int(starts[i]),
                t_end_us=int(ends[i]),
                num_events=int(counts[i]),
            )
            for i in range(num_frames)
        ]

    @property
    def frames_built(self) -> int:
        """Number of frames built so far."""
        return self._frames_built

    @property
    def mean_active_pixel_fraction(self) -> float:
        """Mean active-pixel fraction ``alpha`` observed over all frames."""
        if self._frames_built == 0:
            return 0.0
        return self._total_active_fraction / self._frames_built

    def stats_snapshot(self) -> Tuple[int, float]:
        """Capture the running statistics (frame count, summed alpha)."""
        return (self._frames_built, self._total_active_fraction)

    def restore_stats(self, snapshot: Tuple[int, float]) -> None:
        """Reinstate statistics captured by :meth:`stats_snapshot`."""
        self._frames_built, self._total_active_fraction = snapshot

    def memory_bits(self) -> int:
        """Memory required by the EBBI stage: two binary frames (Eq. (1))."""
        return 2 * self.width * self.height

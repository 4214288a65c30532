"""Event-based binary image (EBBI) generation.

The EBBI is simply the per-pixel OR of all events accumulated during one
``tF`` window, ignoring polarity (Section II-A).  In hardware the sensor
array itself stores this image while the processor sleeps; in software we
reproduce the same frame from an event packet and keep both the raw and
median-filtered frames, exactly the two-frame memory budget of Eq. (1)
(``M_EBBI = 2 * A * B`` bits).

Every frame is built on one path: :func:`events_to_binary_frame_batch`
scatters a stack of consecutive windows, and :class:`EbbiBuilder` runs it
and the median filter over a chunk of windows one cache-sized block
(:data:`BLOCK_BYTES`) at a time, the blocks split into one contiguous share
per usable CPU (:func:`repro.utils.shares.run_shares`).  One window is a
one-frame stack: :func:`events_to_binary_frame` and
:meth:`EbbiBuilder.build` are the one-window calls of that path.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import ContextManager, List, Optional, Tuple

import numpy as np

from repro.core.median_filter import MedianScratch, binary_median_filter_stack
from repro.events.types import EVENT_DTYPE
from repro.utils.shares import run_shares

_UNTIMED = nullcontext()

#: Raw-frame bytes per block of an :class:`EbbiBuilder` build: 8 frames at
#: 240x180.  A block's raw and filtered frames and the median filter's three
#: work stacks then take ~1.7 MB, which stays in a 2 MiB L2 cache while the
#: block is accumulated, filtered and counted; a 256-frame chunk at once
#: spills it.  Larger frames get fewer frames per block, at least one.
BLOCK_BYTES = 8 * 240 * 180


def frames_per_block(frame_pixels: int) -> int:
    """Frames of ``frame_pixels`` pixels in one :data:`BLOCK_BYTES` block, at least one."""
    return max(1, BLOCK_BYTES // max(frame_pixels, 1))


def untimed_stage(name: str) -> ContextManager[None]:
    """The no-op stand-in for ``Instrumentation.stage`` on uninstrumented runs.

    Every stage shares one context, so the plain path never calls into
    :mod:`repro.obs`.
    """
    return _UNTIMED


class EbbiScratch:
    """Reusable raw/filtered frame stacks for steady-state EBBI building.

    ``process_stream`` and the live serving sessions build one frame stack
    per chunk (or per window) forever; with a scratch the stacks — and the
    median filter's work arrays — are allocated once and recycled, removing
    every per-frame allocation from the hot path.  The raw stack holds each
    frame inside the zero border that the median filter reads, so the
    builder accumulates straight into it and the raw frames are views of
    its interior.  The raw and filtered stacks hold a whole chunk, since
    the builder hands out every frame of it; the median's work arrays hold
    one block per share of a build, since each share filters block by
    block.  Frames handed out by the builder are then *views* into these
    buffers, valid until the next build; both callers consume each frame
    before the next build.
    """

    def __init__(self) -> None:
        self._raw: Optional[np.ndarray] = None
        self._filtered: Optional[np.ndarray] = None
        self._medians: List[MedianScratch] = []

    def median(self, share: int) -> MedianScratch:
        """The median filter's work arrays of share ``share`` of a build.

        Shares of one build run on their own threads; each asks only for
        its own index, and an entry once made is never replaced, so no two
        shares are handed the same arrays.
        """
        while len(self._medians) <= share:
            self._medians.append(MedianScratch())
        return self._medians[share]

    def stacks(
        self, num_frames: int, height: int, width: int, border: int
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Bordered raw + filtered uint8 stacks with at least ``num_frames`` slots.

        The raw stack is ``(num_frames, height + 2 border, width + 2 border)``,
        the filtered one ``(num_frames, height, width)``.
        """
        bordered = (height + 2 * border, width + 2 * border)
        if (
            self._raw is None
            or self._filtered is None
            or self._raw.shape[0] < num_frames
            or self._raw.shape[1:] != bordered
            or self._filtered.shape[1:] != (height, width)
        ):
            capacity = num_frames
            if self._raw is not None and self._raw.shape[1:] == bordered:
                capacity = max(num_frames, 2 * self._raw.shape[0])
            self._raw = np.zeros((capacity,) + bordered, dtype=np.uint8)
            self._filtered = np.zeros((capacity, height, width), dtype=np.uint8)
        return self._raw[:num_frames], self._filtered[:num_frames]


def events_to_binary_frame(
    events: np.ndarray, width: int, height: int
) -> np.ndarray:
    """Accumulate an event packet into a binary frame.

    The one-window call of :func:`events_to_binary_frame_batch`, with its
    errors: ``TypeError`` for a wrong dtype, ``ValueError`` for a
    coordinate outside the frame.

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
    splits = np.array([0, len(events)], dtype=np.int64)
    return events_to_binary_frame_batch(events, splits, width, height)[0]


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
    assignment.  The index is built in place from one contiguous ``intp``
    copy each of ``y`` and ``x``, which the bounds check reads too, with
    one unsigned max each; each window after the first then gets its frame
    offset added to its own slice of the index.
    :class:`EbbiBuilder` calls this once per block of a chunk, with the
    block's slice of its bordered raw stack as ``out``.

    Parameters
    ----------
    events:
        Structured event array; polarity is ignored.
    splits:
        ``num_frames + 1`` non-decreasing split indices into ``events``,
        from ``0`` up to ``len(events)``; others raise ``ValueError``.
    width, height:
        Sensor resolution ``A x B``.
    out:
        Optional C-contiguous uint8 stack to fill in place — the
        buffer-reuse path: ``(num_frames, height + 2 b, width + 2 b)`` for
        a border ``b >= 0``.  It is zeroed, border included, and each frame
        is written into its interior, so a bordered ``out`` is the
        zero-bordered stack that :func:`binary_median_filter_stack` reads
        in place.

    Returns
    -------
    numpy.ndarray
        ``(num_frames, height, width)`` uint8 stack with 1 where at least
        one event occurred in that window (the interior of ``out`` if it
        was given).
    """
    if events.dtype != EVENT_DTYPE:
        raise TypeError(f"events must have dtype {EVENT_DTYPE}, got {events.dtype}")
    splits = np.asarray(splits, dtype=np.int64)
    if splits.ndim != 1 or len(splits) < 1:
        raise ValueError("splits must be a 1-D array with at least one entry")
    bounds = splits.tolist()
    if bounds[0] < 0 or bounds[-1] > len(events) or any(
        start > stop for start, stop in zip(bounds, bounds[1:])
    ):
        raise ValueError(
            f"splits must be non-decreasing indices from 0 to {len(events)}, "
            f"the number of events; got {bounds}"
        )
    num_frames = len(splits) - 1
    if out is None:
        out = np.empty((num_frames, height, width), dtype=np.uint8)
    border = (out.shape[-1] - width) // 2
    padded_height, padded_width = height + 2 * border, width + 2 * border
    if out.shape != (num_frames, padded_height, padded_width) or border < 0 or (
        out.dtype != np.uint8 or not out.flags.c_contiguous
    ):
        raise ValueError(
            "out must be a C-contiguous uint8 array of shape "
            f"{(num_frames, height, width)} or that with an equal border, "
            f"got {out.dtype} {out.shape}"
        )
    out.fill(0)
    interior = out[:, border : border + height, border : border + width] if border else out
    first = bounds[0]
    window_events = events[first : bounds[-1]]
    if len(window_events) == 0:
        return interior
    y = window_events["y"].astype(np.intp)
    x = window_events["x"].astype(np.intp)
    # Read unsigned, a negative coordinate is past every frame edge.
    if x.view(np.uintp).max() >= width or y.view(np.uintp).max() >= height:
        raise ValueError("event coordinates fall outside the frame")
    flat = y
    flat *= padded_width
    flat += x
    frame_size = padded_height * padded_width
    for frame in range(1, num_frames):
        flat[bounds[frame] - first : bounds[frame + 1] - first] += frame * frame_size
    # Index from the first interior pixel, so (y, x) needs no border offset.
    out.reshape(-1)[border * padded_width + border :][flat] = 1
    return interior


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

    @property
    def active_pixel_count(self) -> int:
        """Number of active pixels in the raw frame."""
        return int(self.raw.sum())

    @property
    def active_pixel_fraction(self) -> float:
        """Fraction of active pixels in the raw frame (the paper's ``alpha``)."""
        return self.active_pixel_count / self.raw.size


class EbbiBatch(List[EbbiFrames]):
    """The frames of one :meth:`EbbiBuilder.build_batch`, with the stacks they view.

    A list of :class:`EbbiFrames`, one per window, whose ``raw`` and
    ``filtered`` arrays are the frames of the ``raw`` and ``filtered``
    attributes: ``(num_frames, height, width)`` stacks, so a consumer can
    run a stage over the whole chunk at once (the filtered stack is
    C-contiguous; the raw frames are views of a bordered stack's interior).
    """

    def __init__(self, frames: List[EbbiFrames], raw: np.ndarray, filtered: np.ndarray) -> None:
        super().__init__(frames)
        self.raw = raw
        self.filtered = filtered


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
        next ``build``/``build_batch`` call.  The pipeline (which consumes
        each frame before building the next) turns this on; the default
        allocates fresh stacks per call.

    :meth:`build` (one window) and :meth:`build_batch` (a chunk of windows)
    run one body over a frame stack, walking it in blocks of as many frames
    as fit :data:`BLOCK_BYTES` (8 at 240x180): each block is accumulated,
    median-filtered and counted before the next, so its frames stay in
    cache and the median's work arrays are one block long.  A stack of
    more than one block is split into contiguous shares of blocks, one per
    usable CPU, which run at once on helper threads; the outputs are the
    same for any number of shares.  An optional
    :class:`repro.obs.Instrumentation` can be attached as the
    ``instrumentation`` attribute; both then time accumulation and
    filtering of each block as the ``ebbi`` and ``median`` stages, so a
    one-window build records one span of each.  With the default ``None``
    the stages run in a shared no-op context.
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
        if median_patch_size < 0 or (median_patch_size > 1 and median_patch_size % 2 == 0):
            raise ValueError(
                "median_patch_size must be a positive odd integer (or 0 to disable), "
                f"got {median_patch_size}"
            )
        self.width = width
        self.height = height
        self.median_patch_size = median_patch_size
        self.reuse_buffers = reuse_buffers
        self.instrumentation = None
        self._scratch = EbbiScratch() if reuse_buffers else None
        self._block_frames = frames_per_block(width * height)
        self._frames_built = 0
        self._active_pixels = 0

    def _build_stacks(
        self, events: np.ndarray, splits: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Raw and filtered stacks of the windows ``events[splits[i]:splits[i + 1]]``.

        Built into the scratch with ``reuse_buffers`` (else fresh arrays),
        one block at a time: the block is accumulated into its slice of the
        bordered raw stack, median-filtered from there into its slice of
        the filtered stack, and its active pixels counted while it is still
        in cache.  The blocks are split into contiguous shares, one per
        usable CPU (:func:`~repro.utils.shares.run_shares`), each with its
        own median work arrays; an instrumented builder runs every share on
        the caller's thread, as its stage timers are not thread-safe.  The
        border is ``p // 2`` pixels wide, none for a disabled filter, which
        is a ``1 x 1`` patch, i.e. a copy of the raw stack.  An empty build
        still runs one empty block, so a wrong dtype is refused there too;
        the statistics change only once every share is built.
        """
        num_frames = len(splits) - 1
        patch_size = max(self.median_patch_size, 1)
        border = patch_size // 2
        scratch = self._scratch
        if scratch is not None:
            bordered, filtered = scratch.stacks(num_frames, self.height, self.width, border)
        else:
            shape = (num_frames, self.height + 2 * border, self.width + 2 * border)
            bordered = np.empty(shape, dtype=np.uint8)
            filtered = np.empty((num_frames, self.height, self.width), dtype=np.uint8)
        instrumentation = self.instrumentation
        stage = untimed_stage if instrumentation is None else instrumentation.stage
        block = self._block_frames

        def build_share(share: int, start: int, stop: int) -> int:
            median_scratch = MedianScratch() if scratch is None else scratch.median(share)
            active = 0
            for lo in range(start, max(stop, 1), block):
                hi = min(lo + block, stop)
                with stage("ebbi"):
                    events_to_binary_frame_batch(
                        events, splits[lo : hi + 1], self.width, self.height, out=bordered[lo:hi]
                    )
                with stage("median"):
                    binary_median_filter_stack(
                        bordered[lo:hi], patch_size, out=filtered[lo:hi], scratch=median_scratch
                    )
                active += np.count_nonzero(bordered[lo:hi])
            return active

        if instrumentation is None:
            active = sum(run_shares(build_share, num_frames, block))
        else:
            active = build_share(0, 0, num_frames)
        self._frames_built += num_frames
        self._active_pixels += active
        raw = bordered[:, border : border + self.height, border : border + self.width]
        return raw, filtered

    def build(
        self, events: np.ndarray, t_start_us: int, t_end_us: int
    ) -> EbbiFrames:
        """Accumulate one window of events into raw and filtered EBBI frames.

        Element 0 of the :meth:`build_batch` body run on a one-window stack;
        with ``reuse_buffers`` that stack is the persistent scratch, so a
        live session's per-window processing allocates nothing.
        """
        raw, filtered = self._build_stacks(events, np.array([0, len(events)], dtype=np.int64))
        return EbbiFrames(raw[0], filtered[0], t_start_us, t_end_us, num_events=len(events))

    def build_batch(
        self,
        events: np.ndarray,
        starts: np.ndarray,
        ends: np.ndarray,
        splits: np.ndarray,
    ) -> EbbiBatch:
        """Accumulate and filter a chunk of windows, one block at a time.

        Equivalent to calling :meth:`build` once per window, but the raw
        accumulation (:func:`events_to_binary_frame_batch`) and the median
        filter (:func:`binary_median_filter_stack`) each run once per
        cache-sized block of windows (see :data:`BLOCK_BYTES`), not once
        per window, with the blocks shared out over the usable CPUs.

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
        raw, filtered = self._build_stacks(events, splits)
        counts = np.diff(np.asarray(splits, dtype=np.int64))
        frames = [
            EbbiFrames(
                raw=raw[i],
                filtered=filtered[i],
                t_start_us=int(starts[i]),
                t_end_us=int(ends[i]),
                num_events=int(counts[i]),
            )
            for i in range(len(starts))
        ]
        return EbbiBatch(frames, raw, filtered)

    @property
    def frames_built(self) -> int:
        """Number of frames built so far."""
        return self._frames_built

    @property
    def mean_active_pixel_fraction(self) -> float:
        """Mean active-pixel fraction ``alpha`` observed over all frames.

        Active pixels are counted as an integer and divided once here, so
        ``alpha`` does not depend on how the frames were grouped into builds.
        """
        if self._frames_built == 0:
            return 0.0
        return self._active_pixels / (self._frames_built * self.width * self.height)

    def stats_snapshot(self) -> Tuple[int, int]:
        """Capture the running statistics (frame count, active-pixel count)."""
        return (self._frames_built, self._active_pixels)

    def restore_stats(self, snapshot: Tuple[int, int]) -> None:
        """Reinstate statistics captured by :meth:`stats_snapshot`."""
        self._frames_built, self._active_pixels = snapshot

    def memory_bits(self) -> int:
        """Memory required by the EBBI stage: two binary frames (Eq. (1))."""
        return 2 * self.width * self.height

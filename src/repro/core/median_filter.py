"""Binary median (majority) filtering for EBBI denoising.

Spurious sensor events appear in the EBBI as salt-and-pepper noise; for a
binary image a median filter reduces to a majority vote over the ``p x p``
patch: the output pixel is 1 when more than ``floor(p^2 / 2)`` of the patch
pixels are 1 (Section II-A).  The patch counts are separable sums: ``p``
row-shifted views of the zero-padded frames are added, then ``p``
column-shifted views of those row sums.  They are held in the narrowest
unsigned dtype that holds ``p^2`` (uint8 up to ``p = 15``), so the filter
is exact and costs ``2 (p - 1)`` in-place adds per pixel.

On the steady-state pipeline path the padded copy, the row sums and the
patch sums live in a reusable :class:`MedianScratch`, so filtering frames
performs no allocations at all after warm-up.  ``EbbiBuilder`` filters a
chunk one cache-sized block of frames at a time, so those work stacks are
one block long, not one chunk.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class MedianScratch:
    """Reusable work buffers for :func:`binary_median_filter_stack`.

    Three stacks in the patch-count dtype: the input binarised into the
    interior of a ``p // 2`` zero border, its ``p``-row sums and the
    ``p x p`` patch sums.  Only the interior of the padded stack is ever
    written, so its border stays zero across reuse.  Callers that filter
    stack after stack pass one scratch: ``EbbiBuilder`` passes one per
    build, or its persistent one with buffer reuse, and filters each chunk
    block by block, so the stacks hold one block (8 frames at 240x180,
    ~1 MB for the three), not a chunk.  The buffers are regrown when the
    frame shape or patch size changes or a longer stack arrives (capacity
    doubles), and never shrink.
    """

    def __init__(self) -> None:
        self._key: Optional[Tuple[int, int, int]] = None
        self._buffers: Tuple[np.ndarray, ...] = ()

    def buffers(
        self, num_frames: int, frame_shape: Tuple[int, int], patch_size: int
    ) -> Tuple[np.ndarray, ...]:
        """Padded, row-sum and patch-sum stacks for one filter pass."""
        height, width = frame_shape
        key = (height, width, patch_size)
        capacity = self._buffers[0].shape[0] if self._buffers else 0
        if key != self._key or capacity < num_frames:
            capacity = max(num_frames, 2 * capacity) if key == self._key else num_frames
            pad = 2 * (patch_size // 2)
            dtype = np.min_scalar_type(patch_size * patch_size)
            self._buffers = (
                np.zeros((capacity, height + pad, width + pad), dtype=dtype),
                np.empty((capacity, height, width + pad), dtype=dtype),
                np.empty((capacity, height, width), dtype=dtype),
            )
            self._key = key
        return tuple(buffer[:num_frames] for buffer in self._buffers)


def binary_median_filter(frame: np.ndarray, patch_size: int = 3) -> np.ndarray:
    """Majority-vote median filter for a binary frame.

    Parameters
    ----------
    frame:
        2-D array of 0/1 values.
    patch_size:
        Odd patch size ``p``; the paper uses 3.

    Returns
    -------
    numpy.ndarray
        uint8 frame where a pixel is 1 iff strictly more than
        ``floor(p^2 / 2)`` pixels of its ``p x p`` neighbourhood (zero padded
        at the borders) are 1.
    """
    if frame.ndim != 2:
        raise ValueError(f"frame must be 2-D, got shape {frame.shape}")
    return binary_median_filter_stack(frame[np.newaxis], patch_size)[0]


def _box_sum_stack(
    frames: np.ndarray, patch_size: int, scratch: Optional[MedianScratch] = None
) -> np.ndarray:
    """Per-frame ``p x p`` patch sums of ``frames > 0`` (zero padded).

    Separable over the whole ``(n, height, width)`` stack: ``p - 1``
    in-place adds of row-shifted views, then ``p - 1`` of column-shifted
    views.  Every shifted operand is a slice view, so nothing is gathered.
    """
    height, width = frames.shape[1:]
    half = patch_size // 2
    if scratch is None:
        scratch = MedianScratch()
    padded, rows, sums = scratch.buffers(frames.shape[0], (height, width), patch_size)
    np.greater(frames, 0, out=padded[:, half : half + height, half : half + width])
    np.add(padded[:, :height], padded[:, 1 : 1 + height], out=rows)
    for shift in range(2, patch_size):
        np.add(rows, padded[:, shift : shift + height], out=rows)
    np.add(rows[:, :, :width], rows[:, :, 1 : 1 + width], out=sums)
    for shift in range(2, patch_size):
        np.add(sums, rows[:, :, shift : shift + width], out=sums)
    return sums


def binary_median_filter_stack(
    frames: np.ndarray,
    patch_size: int = 3,
    out: Optional[np.ndarray] = None,
    scratch: Optional[MedianScratch] = None,
) -> np.ndarray:
    """Majority-vote median filter applied to a stack of binary frames.

    Vectorised equivalent of calling :func:`binary_median_filter` on each
    ``frames[i]``; the EBBI builder calls it once per block of frames, so
    chunked processing never loops over single frames in Python.

    Parameters
    ----------
    frames:
        ``(n, height, width)`` array of 0/1 values.
    patch_size:
        Odd patch size ``p``; the paper uses 3.
    out:
        Optional uint8 output stack of the same shape; written in place and
        returned (the steady-state pipeline passes a reusable buffer).
    scratch:
        Optional :class:`MedianScratch` holding the reusable work arrays.

    Returns
    -------
    numpy.ndarray
        uint8 stack, filtered frame by frame (``out`` if it was given).
    """
    if frames.ndim != 3:
        raise ValueError(f"frames must be 3-D (n, height, width), got shape {frames.shape}")
    if patch_size < 1 or patch_size % 2 == 0:
        raise ValueError(f"patch_size must be a positive odd integer, got {patch_size}")
    if out is not None and (out.shape != frames.shape or out.dtype != np.uint8):
        raise ValueError(
            f"out must be a uint8 array of shape {frames.shape}, "
            f"got {out.dtype} {out.shape}"
        )
    if patch_size == 1:
        if out is None:
            return (frames > 0).astype(np.uint8)
        np.greater(frames, 0, out=out)
        return out
    if frames.shape[0] == 0:
        return frames.astype(np.uint8) if out is None else out
    sums = _box_sum_stack(frames, patch_size, scratch)
    majority = patch_size * patch_size // 2
    if out is None:
        return (sums > majority).astype(np.uint8)
    np.greater(sums, majority, out=out)
    return out

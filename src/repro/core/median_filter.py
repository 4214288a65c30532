"""Binary median (majority) filtering for EBBI denoising.

Spurious sensor events appear in the EBBI as salt-and-pepper noise; for a
binary image a median filter reduces to a majority vote over the ``p x p``
patch: the output pixel is 1 when more than ``floor(p^2 / 2)`` of the patch
pixels are 1 (Section II-A).  The filter reads the frames inside a zero
border ``p // 2`` pixels wide and forms the patch counts as separable sums
over the bordered stack's flat bytes: ``p - 1`` adds of the stack shifted
by one byte give each pixel's ``p``-pixel row sum, and ``p - 1`` adds of
those shifted by one bordered row give the ``p x p`` sums.  Every operand
is a 1-D slice, so each add is one contiguous pass over the stack, and the
borders keep the sums from reaching across rows or frames.  The counts are
held in the narrowest unsigned dtype that holds ``p^2`` (uint8 up to
``p = 15``), so the filter is exact and costs ``2 (p - 1)`` adds per pixel.

``EbbiBuilder`` accumulates its frames straight into such a bordered stack,
one cache-sized block at a time, and filters each block in place; the row
and patch sums live in a reusable :class:`MedianScratch`, so filtering
performs no allocations at all after warm-up.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


class MedianScratch:
    """Reusable work buffers for :func:`binary_median_filter_stack`.

    Two flat arrays in the patch-count dtype, each as long as the bordered
    stack being filtered: its ``p``-pixel row sums and its ``p x p`` patch
    sums.  ``EbbiBuilder`` filters block by block, so they hold one block
    (8 frames at 240x180, ~0.7 MB for the two), not a chunk.  The buffers
    are regrown when the patch size changes or a longer stack arrives
    (capacity doubles), and never shrink.
    """

    def __init__(self) -> None:
        self._buffers: Tuple[np.ndarray, ...] = ()

    def buffers(self, size: int, patch_size: int) -> Tuple[np.ndarray, ...]:
        """Flat row-sum and patch-sum arrays of ``size`` counts each."""
        dtype = np.min_scalar_type(patch_size * patch_size)
        same_dtype = bool(self._buffers) and self._buffers[0].dtype == dtype
        capacity = self._buffers[0].size if same_dtype else 0
        if capacity < size:
            capacity = max(size, 2 * capacity)
            self._buffers = (np.empty(capacity, dtype=dtype), np.empty(capacity, dtype=dtype))
        return tuple(buffer[:size] for buffer in self._buffers)


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


def _patch_sums(
    bordered: np.ndarray, patch_size: int, scratch: Optional[MedianScratch]
) -> np.ndarray:
    """``p x p`` patch sums of a zero-bordered 0/1 stack, as an ``(n, height, width)`` view.

    ``bordered`` is C-contiguous, ``(n, height + 2h, width + 2h)`` with
    ``h = p // 2``.  Over its flat bytes ``b``, the row sums are ``r[i] =
    b[i] + ... + b[i + p - 1]`` and the patch sums ``s[i] = r[i] + r[i + W']
    + ... + r[i + (p - 1) W']`` for the bordered width ``W'``, so the patch
    centred on interior pixel ``(f, y, x)`` sums to ``s`` at the flat index
    of bordered pixel ``(f, y, x)``.  Each of the ``2 (p - 1)`` adds is one
    1-D slice of the stack or of the row sums.
    """
    _, padded_height, padded_width = bordered.shape
    border = patch_size // 2
    height, width = padded_height - 2 * border, padded_width - 2 * border
    flat = bordered.reshape(-1)
    rows, sums = (scratch or MedianScratch()).buffers(flat.size, patch_size)
    span = flat.size - (patch_size - 1)
    np.add(flat[:span], flat[1 : 1 + span], out=rows[:span])
    for shift in range(2, patch_size):
        np.add(rows[:span], flat[shift : shift + span], out=rows[:span])
    span -= (patch_size - 1) * padded_width
    np.add(rows[:span], rows[padded_width : padded_width + span], out=sums[:span])
    for shift in range(2, patch_size):
        offset = shift * padded_width
        np.add(sums[:span], rows[offset : offset + span], out=sums[:span])
    return sums.reshape(bordered.shape)[:, :height, :width]


def binary_median_filter_stack(
    frames: np.ndarray,
    patch_size: int = 3,
    out: Optional[np.ndarray] = None,
    scratch: Optional[MedianScratch] = None,
) -> np.ndarray:
    """Majority-vote median filter applied to a stack of binary frames.

    Vectorised equivalent of calling :func:`binary_median_filter` on each
    frame; the EBBI builder calls it once per block of frames, so chunked
    processing never loops over single frames in Python.

    Parameters
    ----------
    frames:
        ``(n, height, width)`` array; a pixel is on where it is above 0.
        The frames are first copied, as 0/1 bytes, into the interior of a
        fresh zero-bordered stack.  With ``out`` given, ``frames`` may
        instead be that bordered stack itself: C-contiguous uint8 0/1
        values, ``(n, height + 2h, width + 2h)`` for ``h = p // 2``, with a
        zero border, as :class:`~repro.core.ebbi.EbbiBuilder` accumulates
        it.  It is then read in place, and ``out``'s shape gives the frame
        size.
    patch_size:
        Odd patch size ``p``; the paper uses 3.
    out:
        Optional ``(n, height, width)`` uint8 output stack; written in place
        and returned (the steady-state pipeline passes a reusable buffer).
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
    if out is None:
        out = np.empty(frames.shape, dtype=np.uint8)
    border = patch_size // 2
    bordered = frames.shape != out.shape
    if out.dtype != np.uint8 or out.ndim != 3 or bordered and (
        frames.dtype != np.uint8
        or not frames.flags.c_contiguous
        or frames.shape[1:] != (out.shape[1] + 2 * border, out.shape[2] + 2 * border)
        or frames.shape[0] != out.shape[0]
    ):
        raise ValueError(
            f"out must be a uint8 array of shape {frames.shape}, or of the interior "
            f"of a contiguous uint8 stack with a border of {border}; got {out.dtype} {out.shape}"
        )
    num_frames, height, width = out.shape
    if patch_size == 1:
        np.greater(frames, 0, out=out)
        return out
    if out.size == 0:
        return out
    if not bordered:
        padded = np.zeros((num_frames, height + 2 * border, width + 2 * border), dtype=np.uint8)
        np.greater(frames, 0, out=padded[:, border : border + height, border : border + width])
        frames = padded
    sums = _patch_sums(frames, patch_size, scratch)
    np.greater(sums, patch_size * patch_size // 2, out=out)
    return out

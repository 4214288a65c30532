"""Event data structures.

Events are stored in NumPy structured arrays with fields ``x``, ``y``, ``t``
and ``p``.  The array-of-events representation keeps per-event semantics
(needed by the NN-filter and EBMS baselines, which genuinely process events
one at a time) while allowing vectorised accumulation into binary frames for
the EBBIOT path.

Timestamps ``t`` are in microseconds, matching the DAVIS sensor resolution
quoted in the paper.  Polarity ``p`` is ``+1`` for ON events and ``-1`` for
OFF events.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

#: Structured dtype of a single event: pixel coordinates, timestamp (us), polarity.
EVENT_DTYPE = np.dtype(
    [
        ("x", np.int16),
        ("y", np.int16),
        ("t", np.int64),
        ("p", np.int8),
    ]
)

#: Polarity value of an ON event (intensity increased past the threshold).
ON_POLARITY = 1
#: Polarity value of an OFF event (intensity decreased past the threshold).
OFF_POLARITY = -1


def make_packet(
    x: Sequence[int],
    y: Sequence[int],
    t: Sequence[int],
    p: Sequence[int],
) -> np.ndarray:
    """Build an event packet (structured array) from parallel field arrays.

    Parameters
    ----------
    x, y:
        Pixel coordinates.
    t:
        Timestamps in microseconds.
    p:
        Polarities, ``+1`` or ``-1``.

    Returns
    -------
    numpy.ndarray
        Structured array with dtype :data:`EVENT_DTYPE`.

    Raises
    ------
    ValueError
        If the field arrays have mismatched lengths, polarity values are
        not in ``{-1, +1}``, or a value does not survive the cast to
        :data:`EVENT_DTYPE` (an ``x`` of 65546 would wrap to 10, a ``t`` of
        5.5 would truncate to 5).
    """
    x = np.asarray(x)
    y = np.asarray(y)
    t = np.asarray(t)
    p = np.asarray(p)
    lengths = {len(x), len(y), len(t), len(p)}
    if len(lengths) != 1:
        raise ValueError(
            f"event field arrays must have equal length, got lengths "
            f"x={len(x)} y={len(y)} t={len(t)} p={len(p)}"
        )
    if len(p) and not ((p == ON_POLARITY) | (p == OFF_POLARITY)).all():
        raise ValueError("polarity values must be +1 (ON) or -1 (OFF)")
    packet = np.empty(len(x), dtype=EVENT_DTYPE)
    for name, values in zip(EVENT_DTYPE.names, (x, y, t, p)):
        packet[name] = values
        # A source dtype that casts safely cannot wrap, and p is already +-1.
        if name != "p" and not np.can_cast(values.dtype, EVENT_DTYPE[name]):
            if not (packet[name] == values).all():
                raise ValueError(
                    f"event field {name!r} values do not fit {EVENT_DTYPE[name]}"
                )
    return packet


def empty_packet() -> np.ndarray:
    """Return an empty event packet."""
    return np.empty(0, dtype=EVENT_DTYPE)


def normalize_packet(packet: np.ndarray) -> np.ndarray:
    """Coerce a structured array to the canonical :data:`EVENT_DTYPE`.

    Arrays already in the canonical dtype are returned unchanged.  Arrays
    with the same four fields in a different order (or with compatible but
    wider field types, e.g. ``int64`` coordinates from a file reader) are
    copied field by field into a fresh canonical packet, so callers never
    have to care about field order.

    Raises
    ------
    TypeError
        If the array is not structured or its field names are not exactly
        ``{x, y, t, p}``.
    ValueError
        If a field's values do not survive the cast to the canonical field
        type (e.g. an ``x`` of 65546 would silently wrap to 10 in int16 and
        then pass the coordinate bounds check as a corrupt-but-valid event).
    """
    if packet.dtype == EVENT_DTYPE:
        return packet
    names = packet.dtype.names
    if names is None or set(names) != set(EVENT_DTYPE.names):
        raise TypeError(
            f"events must have fields {EVENT_DTYPE.names}, got dtype {packet.dtype}"
        )
    normalized = np.empty(len(packet), dtype=EVENT_DTYPE)
    for name in EVENT_DTYPE.names:
        normalized[name] = packet[name]
        if not np.array_equal(normalized[name], packet[name]):
            raise ValueError(
                f"event field {name!r} values do not fit {EVENT_DTYPE[name]}"
            )
    return normalized


def sort_packet(packet: np.ndarray) -> np.ndarray:
    """Return a copy of ``packet`` sorted by ``t``, ties broken by ``x``, ``y``, ``p``.

    The same bytes as ``packet.sort(order="t")``, which breaks ties on the
    remaining fields in dtype order.  Each field less its minimum is packed
    into one int64 key, ``t`` in the highest bits, whenever the four widths
    add up to at most 63 bits (an 8 ms chunk of the simulator needs 31):
    one ``argsort`` of the key and one ``np.take`` then cost under half of
    a ``lexsort`` of the four columns.  Equal keys are identical records,
    so the order among them does not change the bytes.  Wider packets take
    the ``lexsort``.
    """
    fields = [packet[name] for name in ("t", "x", "y", "p")]
    if len(packet) > 1:
        lows = [int(field.min()) for field in fields]
        widths = [(int(field.max()) - low).bit_length() for field, low in zip(fields, lows)]
        if sum(widths) <= 63:
            key = fields[0].astype(np.int64) - lows[0]
            for field, low, width in zip(fields[1:], lows[1:], widths[1:]):
                key <<= width
                key |= field.astype(np.int64) - low
            return np.take(packet, np.argsort(key))
    return np.take(packet, np.lexsort(fields[::-1]))


def concatenate_packets(packets: Sequence[np.ndarray]) -> np.ndarray:
    """Concatenate packets and sort the result by timestamp (stable)."""
    packets = [p for p in packets if len(p)]
    if not packets:
        return empty_packet()
    merged = np.concatenate(packets)
    return np.take(merged, np.argsort(merged["t"], kind="stable"))


def validate_packet(packet: np.ndarray, width: int, height: int) -> None:
    """Raise :class:`ValueError` if any event falls outside the sensor array.

    Parameters
    ----------
    packet:
        Structured event array.
    width, height:
        Sensor resolution ``A x B``.
    """
    if len(packet) == 0:
        return
    if packet["x"].min() < 0 or packet["x"].max() >= width:
        raise ValueError(
            f"event x coordinates outside [0, {width}): "
            f"[{packet['x'].min()}, {packet['x'].max()}]"
        )
    if packet["y"].min() < 0 or packet["y"].max() >= height:
        raise ValueError(
            f"event y coordinates outside [0, {height}): "
            f"[{packet['y'].min()}, {packet['y'].max()}]"
        )


def is_time_sorted(packet: np.ndarray) -> bool:
    """Return ``True`` when the packet timestamps are non-decreasing."""
    if len(packet) < 2:
        return True
    return bool(np.all(np.diff(packet["t"]) >= 0))

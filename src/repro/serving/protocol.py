"""Wire protocol spoken between sensor clients and the tracking server (version 2).

Every message is one JSON object with a ``"type"`` field on one line, except
that an ``events`` batch travels as a *binary frame*: a short header line
declaring the batch's event ``count``, followed by exactly ``count × 13``
bytes, the batch's packed little-endian ``EVENT_DTYPE`` records (int16 x,
int16 y, int64 t, int8 p) -- byte for byte what ``packet.tobytes()`` gives
and what a shard ring record carries::

    events-frame = '{"type":"events","count":' N '}' LF  N*13 record bytes
    line         = JSON-object LF

A ``count`` field marks a binary frame unambiguously, so the server keeps no
per-connection mode.  Binary frames are the only form an ``events`` batch
takes: an ``events`` message without a ``count`` (such as protocol version
1's line of four parallel JSON lists) gets an ``error`` reply, on a
connection that stays usable.  :class:`~repro.serving.client.SensorClient`
refuses a server whose ``welcome`` says a version below 2.

The front door parses each socket read whole.  :func:`decode_message`
parses every frame's header line; the exact header the client writes
skips ``json.loads``.  The door then joins the records of each run of
consecutive frames, and one :func:`packet_from_events_message` call
validates the run in place against the ``hello`` geometry, with a few
vectorised checks on a zero-copy view.  A line, and a frame's records, may
each be at most the hub's ring capacity long
(``HubConfig.ring_capacity_bytes``, 1 MiB by default); past it, or with a
``count`` that is not a non-negative integer, the framing is lost: the
server sends an ``error`` reply and closes the connection.

Client → server::

    {"type": "hello", "sensor_id": "ENG-00", "width": 240, "height": 180,
     "version": 2, "tracker": "kalman"}   # tracker is optional (server default)
    {"type": "events", "count": 25}       # + 325 bytes of EVENT_DTYPE records
    {"type": "stats"}
    {"type": "metrics"}            # allowed without hello (monitoring)
    {"type": "trace"}              # allowed without hello (monitoring)
    {"type": "finish"}

Server → client, always one JSON line each::

    {"type": "welcome", "version": 2, "frame_duration_us": 66000, ...}
    {"type": "frame", "sensor_id": ..., "frame_index": ..., "tracks": [...]}
    {"type": "stats", "telemetry": {...}}
    {"type": "metrics", "exposition": "..."}     # Prometheus text format
    {"type": "trace", "trace": {...}}            # Chrome trace-event JSON
    {"type": "summary", "recording": {...}}      # reply to finish (repeatable)
    {"type": "error", "message": "..."}

``metrics`` and ``trace`` are monitoring commands: a scraper connects,
asks, reads one reply and disconnects, without ever registering as a
sensor — so the server answers them before (or without) ``hello``.

In memory a binary frame is the dict ``{"type": "events", "count": N,
"records": <N*13 bytes>}``: :func:`encode_message` writes its header line
and then the records, and :func:`decode_message` reattaches them.
"""

from __future__ import annotations

import json
import re
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from repro.core.config import EbbiotConfig
from repro.core.pipeline import FrameResult
from repro.events.types import EVENT_DTYPE, normalize_packet
from repro.runtime.aggregate import RecordingResult
from repro.trackers.registry import ensure_backend_name

#: Bumped on wire-format changes; ``hello`` and ``welcome`` carry it.
#: Version 2 sends ``events`` batches as binary frames.
PROTOCOL_VERSION = 2

#: Bytes of one event record in a binary ``events`` frame.
RECORD_BYTES = EVENT_DTYPE.itemsize

#: EVENT_DTYPE with its byte order pinned to the wire's (little-endian).
_WIRE_DTYPE = EVENT_DTYPE.newbyteorder("<")

#: Offset of the polarity byte within a record.
_P_OFFSET = EVENT_DTYPE.fields["p"][1]

#: The fields of a protocol-version-1 ``events`` line, refused beside a ``count``.
_LIST_FIELDS = frozenset("xytp")

#: Coordinates at or past this bound would wrap in EVENT_DTYPE's int16 fields.
_COORDINATE_END = int(np.iinfo(EVENT_DTYPE["x"]).max) + 1

#: The header line :func:`encode_message` writes for a binary frame: a
#: ``count`` of plain ASCII digits, without a leading zero.
_EVENTS_HEADER = re.compile(rb'\{"type":"events","count":(0|[1-9][0-9]*)\}')


class ProtocolError(ValueError):
    """A malformed or out-of-sequence protocol message."""


class FramingError(ProtocolError):
    """A message after which the connection's framing is unknown: it must close."""


# -- framing ---------------------------------------------------------------------------


def _line(message: dict) -> bytes:
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def encode_message(message: dict) -> bytes:
    """Serialise one message to a compact JSON line (UTF-8, trailing \\n);
    a binary ``events`` frame's records follow its header line."""
    if "count" not in message:
        return _line(message)
    header = dict(message)
    records = header.pop("records")
    return _line(header) + records


def decode_message(data) -> dict:
    """Parse one line, or one binary frame, into a message dict.

    ``data`` is bytes or str.  A header declaring a ``count`` gets the bytes
    after its newline as ``message["records"]`` when they are exactly
    ``count`` records; given the header line alone, the caller reads the
    records itself (the front door does).  The exact header line a client's
    :func:`encode_message` writes is read without ``json.loads``; every
    other line, including a header that differs by one space or a leading
    zero, goes through it.  Raises :class:`FramingError` on a ``count``
    that is not a non-negative integer, and :class:`ProtocolError` on other
    junk.
    """
    attachment = b""
    try:
        if isinstance(data, (bytes, bytearray)):
            data, _, attachment = data.partition(b"\n")
            header = _EVENTS_HEADER.fullmatch(data)
            # Decoding first is faster than json.loads' own sniffing of bytes.
            message = (json.loads(data.decode()) if header is None
                       else {"type": "events", "count": int(header[1])})
        else:
            message = json.loads(data)
    except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
        raise ProtocolError(f"invalid JSON: {error}") from error
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("message must be a JSON object with a 'type' field")
    if "count" in message:
        count = message["count"]
        if type(count) is not int or count < 0:  # bools and floats too
            raise FramingError(f"events count must be a non-negative integer, got {count!r}")
        if len(attachment) == count * RECORD_BYTES:
            message["records"] = bytes(attachment)
        elif attachment:
            raise ProtocolError(f"events frame carries {len(attachment)} bytes after its "
                                f"header, not {count} records of {RECORD_BYTES}")
    elif attachment:
        raise ProtocolError("unexpected bytes after the message line")
    return message


# -- client-side constructors ----------------------------------------------------------


def hello_message(
    sensor_id: str,
    width: int = 240,
    height: int = 180,
    tracker: Optional[str] = None,
) -> dict:
    """The connection-opening handshake.

    ``tracker`` optionally requests a tracker backend by registry name
    (``"overlap"``, ``"kalman"``, ``"ebms"``); omitted, the sensor runs the
    server's configured default.
    """
    message = {
        "type": "hello",
        "sensor_id": sensor_id,
        "width": width,
        "height": height,
        "version": PROTOCOL_VERSION,
    }
    if tracker is not None:
        message["tracker"] = tracker
    return message


def events_message(events: np.ndarray) -> dict:
    """Encode one event batch as a binary frame of packed EVENT_DTYPE records."""
    packet = normalize_packet(events).astype(_WIRE_DTYPE, copy=False)
    return {"type": "events", "count": len(packet), "records": packet.tobytes()}


def packet_from_events_message(message: dict, width: int, height: int) -> np.ndarray:
    """Validate a binary ``events`` frame against the ``hello`` geometry; return its packet.

    The frame's records become a zero-copy view, checked with one max over
    an unsigned view of the x/y pairs (a negative int16 reads as 32768 or
    more) and one pass over the polarity bytes.  Raises
    :class:`ProtocolError` wherever ``make_packet`` + ``validate_packet``
    raise, and on a message that is not a binary frame: one without a
    ``count``, or one that also carries x/y/t/p fields.
    """
    if "count" not in message:
        raise ProtocolError("an events message must be a binary frame: a header line "
                            "with its count, then the records")
    if not _LIST_FIELDS.isdisjoint(message):
        raise ProtocolError("an events message carries a count or x/y/t/p lists, not both")
    width, height = min(width, _COORDINATE_END), min(height, _COORDINATE_END)
    records = message["records"]
    packet = np.frombuffer(records, dtype=_WIRE_DTYPE)
    if not len(packet):
        return packet
    pairs = np.ndarray((len(packet), 2), "<u2", records, 0, (RECORD_BYTES, 2))
    x_max, y_max = pairs.max(0).tolist()
    if x_max >= width or y_max >= height:
        x, y = packet["x"], packet["y"]
        raise ProtocolError(f"events outside the {width}x{height} sensor: "
                            f"x in [{x.min()}, {x.max()}], y in [{y.min()}, {y.max()}]")
    if records[_P_OFFSET::RECORD_BYTES].translate(None, b"\x01\xff"):
        raise ProtocolError("polarity values must be +1 (ON) or -1 (OFF)")
    return packet


# -- server side ------------------------------------------------------------------------


def parse_hello(
    message: dict, default: EbbiotConfig
) -> Tuple[str, Tuple[int, int], EbbiotConfig]:
    """Validate a ``hello``; returns ``(sensor_id, (width, height), config)``.

    The declared resolution and tracker configure the sensor's pipeline,
    starting from the server's ``default``: a non-DAVIS240 sensor gets
    correctly sized EBBI frames and a sensor may request a baseline
    backend.  Raises :class:`ProtocolError` on a malformed handshake.
    """
    sensor_id = message.get("sensor_id")
    if not isinstance(sensor_id, str) or not sensor_id:
        raise ProtocolError("hello must carry a non-empty string sensor_id")
    width, height = message.get("width", 240), message.get("height", 180)
    for name, value in (("width", width), ("height", height)):
        if type(value) is not int:  # bools, floats and strings too
            raise ProtocolError(f"hello {name} must be a JSON integer, got {value!r}")
    if width <= 0 or height <= 0:
        raise ProtocolError("hello width/height must be positive")
    config = default
    if (width, height) != (config.width, config.height):
        try:
            config = replace(config, width=width, height=height)
        except ValueError as error:
            raise ProtocolError(
                f"hello resolution {width}x{height} does not fit the pipeline: {error}"
            ) from error
    tracker = message.get("tracker")
    if tracker is not None:
        if not isinstance(tracker, str):
            raise ProtocolError("hello tracker must be a string backend name")
        try:
            ensure_backend_name(tracker)
        except ValueError as error:
            raise ProtocolError(str(error)) from error
        if tracker != config.tracker:
            config = replace(config, tracker=tracker)
    return sensor_id, (width, height), config


def welcome_message(
    frame_duration_us: int,
    reorder_slack_us: int,
    width: int,
    height: int,
    tracker: str = "overlap",
) -> dict:
    """The server's reply to ``hello`` (``tracker`` is the backend in force)."""
    return {
        "type": "welcome",
        "version": PROTOCOL_VERSION,
        "frame_duration_us": frame_duration_us,
        "reorder_slack_us": reorder_slack_us,
        "width": width,
        "height": height,
        "tracker": tracker,
    }


def frame_message(sensor_id: str, frame: FrameResult) -> dict:
    """One closed frame's track observations."""
    return {
        "type": "frame",
        "sensor_id": sensor_id,
        "frame_index": frame.frame_index,
        "t_start_us": frame.t_start_us,
        "t_end_us": frame.t_end_us,
        "num_events": frame.num_events,
        "num_proposals": len(frame.proposals),
        "tracks": [observation.to_dict() for observation in frame.tracks],
    }


def summary_message(result: RecordingResult) -> dict:
    """The terminal per-sensor summary (reply to ``finish``)."""
    return {"type": "summary", "recording": result.to_dict()}


def stats_message(telemetry: dict) -> dict:
    """A telemetry snapshot (reply to ``stats``)."""
    return {"type": "stats", "telemetry": telemetry}


def metrics_message(exposition: str) -> dict:
    """A Prometheus text-exposition snapshot (reply to ``metrics``)."""
    return {"type": "metrics", "exposition": exposition}


def trace_message(trace: Optional[dict]) -> dict:
    """A Chrome trace-event document (reply to ``trace``).

    ``trace`` is ``None`` when the hub runs uninstrumented; the client sees
    an explicit null rather than an empty trace, so "tracing off" and "no
    spans yet" are distinguishable.
    """
    return {"type": "trace", "trace": trace}


def error_message(message: str, sensor_id: Optional[str] = None) -> dict:
    """An error report; the connection stays usable unless noted."""
    payload = {"type": "error", "message": message}
    if sensor_id is not None:
        payload["sensor_id"] = sensor_id
    return payload


def error_reply(error: Exception, sensor_id: Optional[str]) -> dict:
    """The ``error`` reply to a message a front door refused with ``error``.

    A :class:`KeyError` is the hub not knowing the sensor (closed and removed
    by a racing path); the connection stays usable either way.
    """
    if isinstance(error, KeyError):
        return error_message(f"sensor is not registered: {error}", sensor_id)
    return error_message(str(error), sensor_id)

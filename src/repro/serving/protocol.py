"""JSONL line protocol spoken between sensor clients and the tracking server.

One message per line, each a JSON object with a ``"type"`` field.  JSONL is
deliberately simple — debuggable with ``nc`` and greppable in logs.  The
front door decodes an ``events`` line with two calls:
:func:`decode_message` parses its bytes, then :func:`packet_from_events_message`
validates the batch against the ``hello`` geometry in one pass.  A line may
be at most the hub's ring capacity long (``HubConfig.ring_capacity_bytes``,
1 MiB by default); a longer one gets an ``error`` reply and the connection
is closed.

Client → server::

    {"type": "hello", "sensor_id": "ENG-00", "width": 240, "height": 180,
     "tracker": "kalman"}          # tracker is optional (server default)
    {"type": "events", "x": [...], "y": [...], "t": [...], "p": [...]}
    {"type": "stats"}
    {"type": "metrics"}            # allowed without hello (monitoring)
    {"type": "trace"}              # allowed without hello (monitoring)
    {"type": "finish"}

Server → client::

    {"type": "welcome", "frame_duration_us": 66000, "reorder_slack_us": 5000, ...}
    {"type": "frame", "sensor_id": ..., "frame_index": ..., "tracks": [...]}
    {"type": "stats", "telemetry": {...}}
    {"type": "metrics", "exposition": "..."}     # Prometheus text format
    {"type": "trace", "trace": {...}}            # Chrome trace-event JSON
    {"type": "summary", "recording": {...}}      # terminal reply to finish
    {"type": "error", "message": "..."}

``metrics`` and ``trace`` are monitoring commands: a scraper connects,
asks, reads one reply and disconnects, without ever registering as a
sensor — so the server answers them before (or without) ``hello``.
"""

from __future__ import annotations

import json
from dataclasses import replace
from typing import Optional, Tuple

import numpy as np

from repro.core.config import EbbiotConfig
from repro.core.pipeline import FrameResult
from repro.events.types import EVENT_DTYPE
from repro.runtime.aggregate import RecordingResult
from repro.trackers.registry import ensure_backend_name

#: Bumped on wire-format changes; the server advertises it in ``welcome``.
PROTOCOL_VERSION = 1

#: Coordinates at or past this bound would wrap in EVENT_DTYPE's int16 fields.
_COORDINATE_END = int(np.iinfo(EVENT_DTYPE["x"]).max) + 1


class ProtocolError(ValueError):
    """A malformed or out-of-sequence protocol message."""


# -- framing ---------------------------------------------------------------------------


def encode_message(message: dict) -> bytes:
    """Serialise one message to a compact JSON line (UTF-8, trailing \\n)."""
    return (json.dumps(message, separators=(",", ":")) + "\n").encode("utf-8")


def decode_message(line) -> dict:
    """Parse one line (bytes or str) into a message dict; raise :class:`ProtocolError` on junk."""
    try:
        # Decoding first is faster than json.loads' own sniffing of bytes.
        message = json.loads(line.decode() if isinstance(line, (bytes, bytearray)) else line)
    except ValueError as error:  # JSONDecodeError, or bytes that are not UTF-8
        raise ProtocolError(f"invalid JSON: {error}") from error
    if not isinstance(message, dict) or "type" not in message:
        raise ProtocolError("message must be a JSON object with a 'type' field")
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
    """Encode one event batch as parallel coordinate lists."""
    return {
        "type": "events",
        "x": events["x"].tolist(),
        "y": events["y"].tolist(),
        "t": events["t"].tolist(),
        "p": events["p"].tolist(),
    }


def packet_from_events_message(message: dict, width: int, height: int) -> np.ndarray:
    """Validate an ``events`` message against the ``hello`` geometry; return its packet.

    One ``np.array`` over the four lists, then one min and max per field.
    Raises :class:`ProtocolError` wherever ``make_packet`` + ``validate_packet``
    raise, and also on non-integers and on values that would wrap in EVENT_DTYPE.
    """
    try:
        fields = np.array([message["x"], message["y"], message["t"], message["p"]])
    except KeyError as error:
        raise ProtocolError(f"events message missing field {error}") from error
    except ValueError as error:
        raise ProtocolError(f"event fields must be equal-length lists: {error}") from error
    # Ints past int64 arrive as float or object arrays: t cannot wrap either.
    if fields.ndim != 2 or (fields.dtype.kind != "i" and fields.size):
        raise ProtocolError("event fields must be flat lists of integers")
    packet = np.empty(fields.shape[1], dtype=EVENT_DTYPE)
    if not len(packet):
        return packet
    # Positional axis: on a 16-event batch the keyword form costs more than the reduction.
    low, high = fields.min(1).tolist(), fields.max(1).tolist()
    (x_min, y_min, _, p_min), (x_max, y_max, _, p_max) = low, high
    width, height = min(width, _COORDINATE_END), min(height, _COORDINATE_END)
    if x_min < 0 or x_max >= width or y_min < 0 or y_max >= height:
        raise ProtocolError(f"events outside the {width}x{height} sensor: "
                            f"x in [{x_min}, {x_max}], y in [{y_min}, {y_max}]")
    if p_min < -1 or p_max > 1 or np.count_nonzero(fields[3]) != len(packet):
        raise ProtocolError("polarity values must be +1 (ON) or -1 (OFF)")
    packet["x"], packet["y"], packet["t"], packet["p"] = fields[0], fields[1], fields[2], fields[3]
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
    try:
        width = int(message.get("width", 240))
        height = int(message.get("height", 180))
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"hello width/height must be integers: {error}") from error
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

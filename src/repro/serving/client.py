"""Sensor-side client for the tracking server.

:class:`SensorClient` is a thin synchronous wrapper around one TCP
connection: it performs the ``hello``/``welcome`` handshake, sends event
batches as binary ``events`` frames (protocol version 2), and collects the
asynchronously arriving ``frame`` messages on a background reader thread
(so a fast sender can never deadlock against a server blocked on a full
socket buffer).

:func:`stream_recording` is the convenience used by the demo, tests and CI
smoke job: replay one :class:`~repro.events.stream.EventStream` as
timestamped batches — optionally paced at a multiple of sensor time — and return
the frames and the server's summary.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from typing import List, Optional, Tuple

import numpy as np

from repro.events.stream import EventStream, frame_boundaries
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    events_message,
    hello_message,
)


class SensorClient:
    """One sensor's connection to an :class:`~repro.serving.aioserver.AsyncTrackingServer`.

    Parameters
    ----------
    host, port:
        Server address.
    sensor_id:
        Identifier announced in the handshake; must be unique per server.
    width, height:
        Sensor resolution announced in the handshake.
    tracker:
        Optional tracker backend requested in the handshake (registry name,
        e.g. ``"kalman"``); ``None`` accepts the server's default.
    timeout_s:
        Socket and reply-wait timeout.
    """

    def __init__(
        self,
        host: str,
        port: int,
        sensor_id: str,
        width: int = 240,
        height: int = 180,
        tracker: Optional[str] = None,
        timeout_s: float = 30.0,
    ) -> None:
        self.sensor_id = sensor_id
        self.timeout_s = timeout_s
        self._socket = socket.create_connection((host, port), timeout=timeout_s)
        self._rfile = self._socket.makefile("rb")
        self._wfile = self._socket.makefile("wb")
        self.frames: List[dict] = []
        self._replies: "queue.Queue[dict]" = queue.Queue()
        self._reader = threading.Thread(
            target=self._read_loop, name=f"sensor-client-{sensor_id}", daemon=True
        )
        try:
            self._send(hello_message(sensor_id, width, height, tracker=tracker))
            self._reader.start()
            self.welcome = self._await_reply("welcome")
            version = self.welcome.get("version", 1)
            if version < PROTOCOL_VERSION:
                # An older server would misread the binary events frames.
                raise ProtocolError(
                    f"server speaks protocol version {version}; this client needs "
                    f"version {PROTOCOL_VERSION}"
                )
        except BaseException:
            # A refused handshake (duplicate id, unknown tracker, timeout)
            # must not leak the socket or leave the reader thread running.
            self.close()
            raise

    # -- wire helpers --------------------------------------------------------------------

    def _send(self, message: dict) -> None:
        self._wfile.write(encode_message(message))
        self._wfile.flush()

    def _read_loop(self) -> None:
        try:
            for line in self._rfile:
                message = decode_message(line)
                if message["type"] == "frame":
                    self.frames.append(message)
                else:
                    self._replies.put(message)
        except (OSError, ValueError):
            pass
        # Wake any reply waiter when the connection dies.
        self._replies.put({"type": "closed"})

    def _await_reply(self, expected: str) -> dict:
        while True:
            try:
                message = self._replies.get(timeout=self.timeout_s)
            except queue.Empty:
                raise TimeoutError(
                    f"no {expected!r} reply within {self.timeout_s:.0f}s"
                ) from None
            if message["type"] == expected:
                return message
            if message["type"] == "error":
                raise ProtocolError(message.get("message", "server error"))
            if message["type"] == "closed":
                raise ConnectionError("server closed the connection")
            # Unrelated reply (e.g. stats answered out of order): requeue is
            # unnecessary — replies are strictly request-ordered per client.

    # -- protocol operations -------------------------------------------------------------

    def send_events(self, events: np.ndarray) -> None:
        """Send one batch of events as a binary frame (any order within the reorder slack)."""
        self._send(events_message(events))

    def request_stats(self) -> dict:
        """Fetch the server's telemetry snapshot."""
        self._send({"type": "stats"})
        return self._await_reply("stats")["telemetry"]

    def request_metrics(self) -> str:
        """Fetch the server's metrics as Prometheus text exposition."""
        self._send({"type": "metrics"})
        return self._await_reply("metrics")["exposition"]

    def request_trace(self) -> Optional[dict]:
        """Fetch the server's Chrome trace (``None`` if not instrumented)."""
        self._send({"type": "trace"})
        return self._await_reply("trace")["trace"]

    def finish(self) -> dict:
        """Declare end of stream; returns the server's recording summary."""
        self._send({"type": "finish"})
        return self._await_reply("summary")["recording"]

    def close(self) -> None:
        """Close the connection and wait for the reader thread to see EOF."""
        try:
            self._socket.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        if self._reader.is_alive():
            self._reader.join(self.timeout_s)
        self._socket.close()

    def __enter__(self) -> "SensorClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _monitoring_request(host: str, port: int, kind: str, timeout_s: float) -> dict:
    """One-shot monitoring exchange: connect, ask, read one reply, hang up.

    No ``hello`` — the ``metrics``/``trace`` commands are exempt from the
    sensor handshake, so a scraper needs neither a sensor id nor a session.
    """
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        with sock.makefile("rwb") as handle:
            handle.write(encode_message({"type": kind}))
            handle.flush()
            line = handle.readline()
    if not line:
        raise ConnectionError("server closed the connection without replying")
    reply = decode_message(line)
    if reply["type"] == "error":
        raise ProtocolError(reply.get("message", "server error"))
    if reply["type"] != kind:
        raise ProtocolError(f"expected {kind!r} reply, got {reply['type']!r}")
    return reply


def scrape_metrics(host: str, port: int, timeout_s: float = 10.0) -> str:
    """Scrape a live server's Prometheus text exposition (no handshake).

    What a Prometheus exporter bridge or the CI obs-smoke job calls; pair
    with :func:`repro.obs.parse_prometheus_text` to consume the result.
    """
    return _monitoring_request(host, port, "metrics", timeout_s)["exposition"]


def fetch_trace(host: str, port: int, timeout_s: float = 10.0) -> Optional[dict]:
    """Fetch a live server's Chrome trace (``None`` if not instrumented)."""
    return _monitoring_request(host, port, "trace", timeout_s)["trace"]


def stream_recording(
    host: str,
    port: int,
    sensor_id: str,
    stream: EventStream,
    batch_duration_us: int = 16_500,
    speed: Optional[float] = None,
    tracker: Optional[str] = None,
) -> Tuple[List[dict], dict]:
    """Replay one recording to the server as timestamped batches.

    Parameters
    ----------
    host, port, sensor_id:
        Connection parameters (see :class:`SensorClient`).
    stream:
        The recording to replay.
    batch_duration_us:
        Stream-time span of each batch; the default sends four batches per
        66 ms EBBI window, matching a sensor driver that drains its FIFO a
        few times per frame.
    speed:
        Replay speed factor for paced replay: ``1.0`` is sensor real time,
        ``2.0`` twice as fast, ``0.5`` half speed; ``None`` (the default)
        sends as fast as possible (tests, benchmarks).  Pacing is
        drift-corrected — each batch is released when its *stream-time*
        end is due on the wall clock, so slow sends do not accumulate lag
        the way per-batch sleeps would.
    tracker:
        Optional tracker backend requested for this sensor (see
        :class:`SensorClient`).

    Returns
    -------
    (frames, summary)
        The ``frame`` messages received and the final recording summary.
    """
    if batch_duration_us <= 0:
        raise ValueError(f"batch_duration_us must be positive, got {batch_duration_us}")
    if speed is not None and speed <= 0:
        raise ValueError(f"speed must be positive, got {speed}")
    with SensorClient(
        host,
        port,
        sensor_id,
        width=stream.width,
        height=stream.height,
        tracker=tracker,
    ) as client:
        events = stream.events
        if len(events):
            # Batch edges stay on the absolute batch_duration_us grid, but
            # start at the first event's window so a recording with a large
            # epoch offset does not produce millions of empty leading batches.
            grid_start = (int(events["t"][0]) // batch_duration_us) * batch_duration_us
            edges, splits = frame_boundaries(
                events["t"], batch_duration_us, grid_start, int(events["t"][-1]) + 1
            )
            started_wall = time.monotonic()
            # Pace relative to the first event, not t = 0: recorded files
            # carry arbitrary epoch offsets (a jAER timestamp an hour into
            # the sensor's uptime must not stall the replay for an hour).
            t0_stream = int(events["t"][0])
            for i in range(len(edges) - 1):
                batch = events[splits[i] : splits[i + 1]]
                if len(batch) == 0:
                    continue
                if speed is not None:
                    due = (int(edges[i + 1]) - t0_stream) * 1e-6 / speed
                    delay = due - (time.monotonic() - started_wall)
                    if delay > 0:
                        time.sleep(delay)
                client.send_events(batch)
        summary = client.finish()
        return list(client.frames), summary

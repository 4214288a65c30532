"""Threaded JSONL-over-TCP tracking server.

One TCP connection = one live sensor.  The handler thread reads protocol
lines (``hello``, then ``events`` batches, finally ``finish``) and feeds the
shared :class:`~repro.serving.hub.TrackingHub`.  Outbound traffic never
touches a hub pump thread directly: every connection owns a bounded send
queue drained by a dedicated writer thread, so a client that stops reading
its socket cannot wedge a hub shard — its ``frame`` pushes are shed once the
queue fills, while control replies (``welcome``/``summary``/``stats``/
``error``) wait for room.

On connection teardown (clean ``finish`` or an abrupt disconnect) the
sensor's session is flushed and deregistered from the hub, so sensor ids are
reusable and a long-running server does not accumulate dead sessions.

The server owns the hub: ``with TrackingServer() as server`` starts the hub
workers and the acceptor thread, and tears both down on exit.  Port 0
requests an ephemeral port (tests and the in-process demo use this).
"""

from __future__ import annotations

import queue
import socketserver
import threading
from typing import List, Optional, Tuple

from repro.core.pipeline import FrameResult
from repro.serving.hub import HubConfig, ShardDown, TrackingHub
from repro.serving.protocol import (
    ProtocolError,
    decode_message,
    encode_message,
    error_message,
    error_reply,
    frame_message,
    metrics_message,
    packet_from_events_message,
    parse_hello,
    stats_message,
    summary_message,
    trace_message,
    welcome_message,
)

#: Sentinel that shuts a connection's writer thread down.
_WRITER_STOP = object()


class _SensorConnectionHandler(socketserver.StreamRequestHandler):
    """Speaks the JSONL protocol with one sensor client."""

    server: "_TcpServer"

    #: Outbound messages buffered per connection before frames are shed.
    SEND_QUEUE_CAPACITY = 512
    #: How long a control reply waits for queue room before giving up.
    CONTROL_SEND_TIMEOUT_S = 10.0

    def setup(self) -> None:
        super().setup()
        self.sensor_id: Optional[str] = None
        self.width = 240
        self.height = 180
        self._send_queue: "queue.Queue" = queue.Queue(maxsize=self.SEND_QUEUE_CAPACITY)
        self._writer = threading.Thread(
            target=self._writer_loop, name="sensor-connection-writer", daemon=True
        )
        self._writer.start()

    def handle(self) -> None:
        hub = self.server.hub
        try:
            for raw_line in self.rfile:
                try:
                    message = decode_message(raw_line)
                except ProtocolError as error:
                    self._send(error_message(str(error)))
                    continue
                try:
                    if not self._dispatch(hub, message):
                        return
                except (ProtocolError, ShardDown, KeyError) as error:
                    self._send(error_reply(error, self.sensor_id))
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass
        finally:
            self._teardown(hub)

    def _teardown(self, hub: TrackingHub) -> None:
        """Flush + deregister the sensor and stop the writer thread."""
        if self.sensor_id is not None:
            try:
                # Idempotent: if the client already sent finish this just
                # returns the cached summary without double-counting.
                hub.close_sensor(self.sensor_id, timeout=60.0)
            except Exception:
                pass
            hub.remove_sensor(self.sensor_id)
            self.sensor_id = None
        self._send_queue.put(_WRITER_STOP)
        self._writer.join(timeout=5.0)

    def _dispatch(self, hub: TrackingHub, message: dict) -> bool:
        """Handle one message; return False to end the connection."""
        kind = message["type"]
        if kind == "hello":
            return self._on_hello(hub, message)
        # Monitoring commands are exempt from the hello handshake: a
        # scraper is not a sensor and must not have to register as one.
        if kind == "metrics":
            self._send(metrics_message(hub.metrics_text()))
            return True
        if kind == "trace":
            self._send(trace_message(hub.chrome_trace()))
            return True
        if self.sensor_id is None:
            raise ProtocolError("first message must be 'hello'")
        if kind == "events":
            hub.submit(self.sensor_id, packet_from_events_message(message, self.width, self.height))
            return True
        if kind == "stats":
            self._send(stats_message(hub.telemetry_dict()))
            return True
        if kind == "finish":
            result = hub.close_sensor(self.sensor_id)
            self._send(summary_message(result))
            return True
        raise ProtocolError(f"unknown message type {kind!r}")

    def _on_hello(self, hub: TrackingHub, message: dict) -> bool:
        if self.sensor_id is not None:
            raise ProtocolError("duplicate hello on this connection")
        sensor_id, (self.width, self.height), pipeline_config = parse_hello(
            message, hub.config.pipeline_config
        )
        try:
            hub.register(sensor_id, config=pipeline_config, on_frames=self._on_frames)
        except ValueError as error:
            self._send(error_message(str(error), sensor_id))
            return False
        self.sensor_id = sensor_id
        self._send(
            welcome_message(
                frame_duration_us=pipeline_config.frame_duration_us,
                reorder_slack_us=hub.config.reorder_slack_us,
                width=self.width,
                height=self.height,
                tracker=pipeline_config.tracker,
            )
        )
        return True

    def _on_frames(self, sensor_id: str, frames: List[FrameResult]) -> None:
        """Hub pump-thread callback: enqueue closed frames for the writer."""
        for frame in frames:
            self._send(frame_message(sensor_id, frame), drop_ok=True)

    # -- outbound path -------------------------------------------------------------------

    def _send(self, message: dict, drop_ok: bool = False) -> None:
        """Enqueue one outbound message.

        ``drop_ok`` marks shed-able traffic (frame pushes): when the client
        reads too slowly and the queue is full, the frame is dropped rather
        than blocking the producing hub worker.  Control replies wait up to
        ``CONTROL_SEND_TIMEOUT_S`` and are then dropped too — at that point
        the connection is beyond saving and teardown will reap it.
        """
        try:
            if drop_ok:
                self._send_queue.put_nowait(message)
            else:
                self._send_queue.put(message, timeout=self.CONTROL_SEND_TIMEOUT_S)
        except queue.Full:
            pass

    def _writer_loop(self) -> None:
        """Single writer: drains the send queue onto the socket in order."""
        client_gone = False
        while True:
            message = self._send_queue.get()
            if message is _WRITER_STOP:
                return
            if client_gone:
                continue  # keep draining so producers never block
            try:
                self.wfile.write(encode_message(message))
                self.wfile.flush()
            except (OSError, ValueError):
                client_gone = True


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], hub: TrackingHub) -> None:
        super().__init__(address, _SensorConnectionHandler)
        self.hub = hub


class TrackingServer:
    """Lifecycle wrapper tying a TCP acceptor to a :class:`TrackingHub`.

    Parameters
    ----------
    host, port:
        Bind address; port 0 picks an ephemeral port (see :attr:`address`).
    hub_config:
        Configuration for the owned hub (ignored when ``hub`` is given).
    hub:
        An already-constructed hub to front — a
        :class:`~repro.serving.hub.TrackingHub` or a
        :class:`~repro.serving.process_hub.ProcessTrackingHub`.  The server
        owns its lifecycle either way.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        hub_config: Optional[HubConfig] = None,
        hub=None,
    ) -> None:
        self.hub = hub if hub is not None else TrackingHub(hub_config)
        self._tcp = _TcpServer((host, port), self.hub)
        self._acceptor: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)``."""
        return self._tcp.server_address[:2]

    def start(self) -> "TrackingServer":
        """Start the hub and the acceptor thread (idempotent)."""
        if self._acceptor is None:
            self.hub.start()
            self._acceptor = threading.Thread(
                target=self._tcp.serve_forever,
                kwargs={"poll_interval": 0.05},
                name="tracking-server-acceptor",
                daemon=True,
            )
            self._acceptor.start()
        return self

    def stop(self) -> None:
        """Stop accepting, close the socket, drain and stop the hub."""
        if self._acceptor is not None:
            self._tcp.shutdown()
            self._acceptor.join()
            self._acceptor = None
        self._tcp.server_close()
        self.hub.stop()

    def serve_forever(self) -> None:
        """Blocking variant for ``python -m repro.serving --serve``."""
        self.hub.start()
        try:
            self._tcp.serve_forever(poll_interval=0.2)
        finally:
            self._tcp.server_close()
            self.hub.stop()

    def __enter__(self) -> "TrackingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

"""Asyncio TCP front door for the tracking hubs.

One TCP connection is one live sensor (or a monitoring scraper), served by
a reader coroutine and a writer task on one event loop: it speaks
:mod:`~repro.serving.protocol` (``hello``, then ``events`` batches,
finally ``finish``) and feeds the shared hub.  Accepting sensor number 500
adds a coroutine and a bounded send queue, not OS threads, and a stalled
client parks a coroutine rather than blocking a stack.

The event-loop thread must never block, which dictates the three seams:

* **ingest** goes through :meth:`hub.try_submit`, which refuses instead of
  parking when the shard is saturated; under the ``"block"`` policy the
  handler then backs off with ``await asyncio.sleep``, applying
  backpressure to this sensor's TCP stream while other connections keep
  flowing.  Under ``"drop"`` the refusal is final and counted.  Rebalance
  evaluation never runs on the submit path either — the hub hands it to a
  dedicated rebalancer thread, so a submit can at worst briefly contend a
  ring lock, never wait out a migration.
* **slow calls** — ``close_sensor`` flushes, ``metrics`` scrapes the shard
  workers — run in the default executor via :func:`asyncio.to_thread`.
* **frame pushes** arrive on the hub's pump threads; the callback hops
  them onto the loop with ``call_soon_threadsafe`` into the connection's
  bounded queue, shedding frames when the client reads too slowly (control
  replies instead wait for room).  A dedicated writer task per connection
  drains the queue onto the socket in order.

A line, and an ``events`` frame's records (``count × 13`` bytes, read with
one ``readexactly`` after the header line), may each be as long as the ring
they feed (``HubConfig.ring_capacity_bytes``, 1 MiB by default).  A longer
line or attachment gets an ``error`` reply naming the limit, as does a
``count`` that is not a non-negative integer, and the connection then ends
through the normal teardown, since the framing is lost.  The records are
read before the message is dispatched, so every other refusal (events
before ``hello`` or after ``finish``, bad values, a batch that can never
fit one ring record) is an ``error`` reply on a connection that stays
usable.  Each connection buffers up to twice the limit of unread input
before its reads pause.

On teardown (clean ``finish`` or an abrupt disconnect) the sensor's session
is flushed and deregistered from the hub, so sensor ids are reusable and a
long-running server does not accumulate dead sessions.

The server owns the hub (either worker vehicle: pass
``hub=ProcessTrackingHub(...)``) and drives the loop on a background
thread, so its lifecycle API stays synchronous: ``with
AsyncTrackingServer() as server`` starts the hub and the loop, and tears
both down on exit.  Port 0 requests an ephemeral port.
"""

from __future__ import annotations

import asyncio
import threading
from typing import List, Optional, Tuple

from repro.core.pipeline import FrameResult
from repro.serving.hub import HubConfig, ShardDown, TrackingHub
from repro.serving.protocol import (
    RECORD_BYTES,
    FramingError,
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

#: Outbound messages buffered per connection before frame pushes are shed.
SEND_QUEUE_CAPACITY = 512

#: Sentinel that ends a connection's writer task.
_WRITER_STOP = object()

#: try_submit backoff bounds (seconds) under the ``"block"`` policy.
_BACKOFF_MIN_S = 1e-4
_BACKOFF_MAX_S = 1e-2


class _Connection:
    """Per-connection protocol state (one live sensor, or a monitor)."""

    def __init__(self, server: "AsyncTrackingServer", writer: asyncio.StreamWriter):
        self.server = server
        self.hub = server.hub
        self.loop = asyncio.get_running_loop()
        self.sensor_id: Optional[str] = None
        self.width = 240
        self.height = 180
        self.summary: Optional[dict] = None  # the reply to finish, once sent
        self.send_queue: "asyncio.Queue" = asyncio.Queue(maxsize=SEND_QUEUE_CAPACITY)
        self._raw_writer = writer
        self.writer_task = asyncio.ensure_future(self._writer_loop(writer))

    def abort(self) -> None:
        """Server-shutdown path: close the transport so the reader sees EOF."""
        try:
            self._raw_writer.close()
        except (ConnectionError, OSError, RuntimeError):
            pass

    # -- outbound ------------------------------------------------------------------------

    async def send(self, message: dict) -> None:
        """Queue a control reply, waiting for room if the queue is full."""
        await self.send_queue.put(message)

    def offer(self, message: dict) -> None:
        """Queue a shed-able frame push; drop it when the queue is full."""
        try:
            self.send_queue.put_nowait(message)
        except asyncio.QueueFull:
            pass

    def on_frames(self, sensor_id: str, frames: List[FrameResult]) -> None:
        """Hub pump-thread callback: hop frames onto the event loop."""
        for frame in frames:
            message = frame_message(sensor_id, frame)
            try:
                self.loop.call_soon_threadsafe(self.offer, message)
            except RuntimeError:
                return  # loop already closed; connection is being torn down

    async def _writer_loop(self, writer: asyncio.StreamWriter) -> None:
        client_gone = False
        while True:
            message = await self.send_queue.get()
            if message is _WRITER_STOP:
                break
            if client_gone:
                continue  # keep draining so senders never stall on STOP
            try:
                writer.write(encode_message(message))
                await writer.drain()
            except (ConnectionError, OSError):
                client_gone = True
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass

    # -- inbound -------------------------------------------------------------------------

    async def dispatch(self, message: dict) -> bool:
        """Handle one message; ``False`` ends the connection."""
        hub = self.hub
        kind = message["type"]
        if kind == "hello":
            return await self._on_hello(message)
        # Monitoring commands are exempt from the hello handshake: a
        # scraper is not a sensor and must not have to register as one.
        if kind == "metrics":
            text = await asyncio.to_thread(hub.metrics_text)
            await self.send(metrics_message(text))
            return True
        if kind == "trace":
            trace = await asyncio.to_thread(hub.chrome_trace)
            await self.send(trace_message(trace))
            return True
        if self.sensor_id is None:
            raise ProtocolError("first message must be 'hello'")
        if kind == "events":
            if self.summary is not None:
                raise ProtocolError(f"sensor {self.sensor_id!r} has finished; "
                                    "its events are refused")
            await self._ingest(packet_from_events_message(message, self.width, self.height))
            return True
        if kind == "stats":
            telemetry = await asyncio.to_thread(hub.telemetry_dict)
            await self.send(stats_message(telemetry))
            return True
        if kind == "finish":
            if self.summary is None:
                result = await asyncio.to_thread(hub.close_sensor, self.sensor_id)
                self.summary = summary_message(result)
            await self.send(self.summary)
            return True
        raise ProtocolError(f"unknown message type {kind!r}")

    async def _ingest(self, packet) -> None:
        hub = self.hub
        if hub.config.backpressure == "drop":
            # Non-blocking either way; a refused batch is counted as shed.
            hub.submit(self.sensor_id, packet)
            return
        delay = _BACKOFF_MIN_S
        while not hub.try_submit(self.sensor_id, packet):
            await asyncio.sleep(delay)
            delay = min(delay * 2, _BACKOFF_MAX_S)

    async def _on_hello(self, message: dict) -> bool:
        hub = self.hub
        if self.sensor_id is not None:
            raise ProtocolError("duplicate hello on this connection")
        sensor_id, (self.width, self.height), pipeline_config = parse_hello(
            message, hub.config.pipeline_config
        )
        try:
            # register blocks on the hub's control path (a ring put with a
            # long timeout) — keep it off the loop.
            await asyncio.to_thread(
                hub.register,
                sensor_id,
                config=pipeline_config,
                on_frames=self.on_frames,
            )
        except ValueError as error:
            await self.send(error_message(str(error), sensor_id))
            return False
        self.sensor_id = sensor_id
        await self.send(
            welcome_message(
                frame_duration_us=pipeline_config.frame_duration_us,
                reorder_slack_us=hub.config.reorder_slack_us,
                width=self.width,
                height=self.height,
                tracker=pipeline_config.tracker,
            )
        )
        return True

    # -- teardown ------------------------------------------------------------------------

    async def teardown(self) -> None:
        """Flush + deregister the sensor, then stop the writer task."""
        if self.sensor_id is not None:
            sensor_id, self.sensor_id = self.sensor_id, None
            try:
                await asyncio.to_thread(self.hub.close_sensor, sensor_id, 60.0)
            except Exception:
                pass
            self.hub.remove_sensor(sensor_id)
        await self.send_queue.put(_WRITER_STOP)
        try:
            await asyncio.wait_for(self.writer_task, timeout=5.0)
        except (asyncio.TimeoutError, asyncio.CancelledError):
            self.writer_task.cancel()


class AsyncTrackingServer:
    """Asyncio front door owning a tracking hub (thread or process vehicle).

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

    The event loop runs on a background thread; ``start``/``stop``/
    ``serve_forever`` and the context manager keep the calling thread
    synchronous.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        hub_config: Optional[HubConfig] = None,
        hub=None,
    ) -> None:
        self.hub = hub if hub is not None else TrackingHub(hub_config)
        self._host = host
        self._port = port
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._address: Optional[Tuple[str, int]] = None
        self._startup_error: Optional[BaseException] = None
        self._connections: set = set()

    @property
    def address(self) -> Tuple[str, int]:
        """The actually bound ``(host, port)``."""
        if self._address is None:
            raise RuntimeError("server is not started")
        return self._address

    # -- event-loop side -----------------------------------------------------------------

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        connection = _Connection(self, writer)
        self._connections.add(connection)
        limit = self.hub.config.ring_capacity_bytes
        try:
            while True:
                try:
                    raw_line = await reader.readline()
                    if not raw_line:
                        break
                    message = decode_message(raw_line)
                    if "count" in message:
                        size = message["count"] * RECORD_BYTES
                        if size > limit:
                            raise FramingError(
                                f"events frame of {size} bytes exceeds the {limit}-byte "
                                "limit; closing the connection")
                        message["records"] = await reader.readexactly(size)
                except (ConnectionError, OSError, asyncio.IncompleteReadError):
                    break
                except ProtocolError as error:
                    await connection.send(error_reply(error, connection.sensor_id))
                    if isinstance(error, FramingError):
                        break
                    continue
                except ValueError:  # a line over the limit: the framing is lost
                    await connection.send(error_message(
                        f"line exceeds the {limit}-byte limit; closing the connection",
                        connection.sensor_id,
                    ))
                    break
                try:
                    if not await connection.dispatch(message):
                        break
                except (ProtocolError, ShardDown, KeyError) as error:
                    await connection.send(error_reply(error, connection.sensor_id))
        finally:
            try:
                await connection.teardown()
            finally:
                self._connections.discard(connection)

    async def _main(self) -> None:
        self._stop_event = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle, self._host, self._port,
                limit=self.hub.config.ring_capacity_bytes,
            )
        except OSError as error:
            self._startup_error = error
            self._ready.set()
            return
        self._address = server.sockets[0].getsockname()[:2]
        self._ready.set()
        async with server:
            await self._stop_event.wait()
        # Drop live connections by closing their transports: each handler's
        # readline sees EOF and runs its normal teardown (flush + deregister)
        # rather than being cancelled mid-protocol.
        for connection in list(self._connections):
            connection.abort()
        deadline = 10.0
        while self._connections and deadline > 0:
            await asyncio.sleep(0.05)
            deadline -= 0.05

    def _run_loop(self) -> None:
        loop = asyncio.new_event_loop()
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        finally:
            # Let any straggler tasks unwind before closing the loop.
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> "AsyncTrackingServer":
        """Start the hub and the event-loop thread (idempotent)."""
        if self._thread is not None:
            return self
        self.hub.start()
        self._ready.clear()
        self._startup_error = None
        self._thread = threading.Thread(
            target=self._run_loop, name="tracking-aio-server", daemon=True
        )
        self._thread.start()
        self._ready.wait(timeout=10.0)
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            self._thread = None
            self.hub.stop()
            raise error
        return self

    def stop(self) -> None:
        """Stop accepting, close connections, drain and stop the hub."""
        if self._thread is not None:
            if self._loop is not None and self._stop_event is not None:
                try:
                    self._loop.call_soon_threadsafe(self._stop_event.set)
                except RuntimeError:
                    pass
            self._thread.join(timeout=10.0)
            self._thread = None
            self._loop = None
            self._address = None
        self.hub.stop()

    def serve_forever(self) -> None:
        """Blocking variant for ``python -m repro.serving --serve``."""
        self.start()
        try:
            while self._thread is not None and self._thread.is_alive():
                self._thread.join(timeout=1.0)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def __enter__(self) -> "AsyncTrackingServer":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

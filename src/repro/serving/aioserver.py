"""Asyncio TCP front door for the tracking hubs.

One TCP connection is one live sensor (or a monitoring scraper), served by
a reader coroutine and a writer task on one event loop: it speaks
:mod:`~repro.serving.protocol` (``hello``, then ``events`` batches,
finally ``finish``) and feeds the shared hub.  Accepting sensor number 500
adds a coroutine and a bounded send queue, not OS threads, and a stalled
client parks a coroutine rather than blocking a stack.

The reader coroutine handles a connection one socket read at a time.  It
reads up to :data:`READ_CHUNK` bytes into the connection's own buffer and
parses every complete message in it.  An unpaced sensor leaves hundreds
of small ``events`` frames in one read, and each run of consecutive frames
is joined into one packet, checked with one
:func:`~repro.serving.protocol.packet_from_events_message` call and
submitted with one :meth:`hub.try_submit`: one ring record, however many
frames it holds.  A run is submitted before any other message or
``error`` reply that follows it, so each sensor's order holds, and it is
split where it would outgrow one ring record.  A run that fails its
joined check is checked frame by frame: the good frames go in order, and
each bad one gets its own ``error`` reply.

The event-loop thread must never block, which dictates the three seams:

* **ingest** goes through :meth:`hub.try_submit`, which refuses instead of
  parking when the shard is saturated; under the ``"block"`` policy the
  handler then backs off with ``await asyncio.sleep`` and reads nothing
  more meanwhile, applying backpressure to this sensor's TCP stream while
  other connections keep flowing.  Under ``"drop"`` the refusal is final
  and counted, and a refused run is shed whole.  A submit can at worst
  briefly contend a ring lock, never wait out a migration.
* **slow calls** — ``close_sensor`` flushes, ``metrics`` scrapes the shard
  workers — run in the default executor via :func:`asyncio.to_thread`.
* **frame pushes** arrive on the hub's pump threads; the callback hops
  them onto the loop with ``call_soon_threadsafe`` into the connection's
  bounded queue, shedding frames when the client reads too slowly (control
  replies instead wait for room).  A dedicated writer task per connection
  drains the queue onto the socket in order.

A line, and an ``events`` frame's records (the ``count × 13`` bytes after
its header line), may each be as long as the ring they feed
(``HubConfig.ring_capacity_bytes``, 1 MiB by default).  A longer line or
attachment gets an ``error`` reply naming the limit, as does a ``count``
that is not a non-negative integer, and the connection then ends through
the normal teardown, since the framing is lost.  A message is handled only
once it is complete, records and all, so every other refusal (events
before ``hello`` or after ``finish``, bad values, a batch that can never
fit one ring record) is an ``error`` reply on a connection that stays
usable; EOF inside a message tears the connection down.  A connection
buffers at most twice the limit in its ``StreamReader`` before reading
from the socket pauses, plus, in its own buffer, one partial message and
one read.

On teardown (clean ``finish`` or an abrupt disconnect) the sensor's session
is flushed and deregistered from the hub, so sensor ids are reusable and a
long-running server does not accumulate dead sessions.  A ``hello`` for an
id whose old connection is still being torn down waits for that teardown
(up to its close timeout) and then registers; an id held by a live
connection is refused at once.  ``stop()`` aborts every connection: its
reader sees EOF, a run waiting in the ``"block"`` backoff is not
submitted, and its flush must end within the shutdown timeout, after
which a connection still open is named in a warning and cancelled.  The
hub stops only after the event-loop thread has ended.

The server owns the hub (either worker vehicle: pass
``hub=ProcessTrackingHub(...)``) and drives the loop on a background
thread, so its lifecycle API stays synchronous: ``with
AsyncTrackingServer() as server`` starts the hub and the loop, and tears
both down on exit.  Port 0 requests an ephemeral port.
"""

from __future__ import annotations

import asyncio
import logging
import threading
from typing import Dict, List, Optional, Tuple

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
from repro.serving.transport import RingFull, max_payload_bytes

logger = logging.getLogger(__name__)

#: Outbound messages buffered per connection before frame pushes are shed.
SEND_QUEUE_CAPACITY = 512

#: Bytes a connection's reader takes from its ``StreamReader`` at a time.
READ_CHUNK = 1 << 16

#: Sentinel that ends a connection's writer task.
_WRITER_STOP = object()

#: try_submit backoff bounds (seconds) under the ``"block"`` policy.
_BACKOFF_MIN_S = 1e-4
_BACKOFF_MAX_S = 1e-2

#: How long a teardown waits for its sensor's flush, and so how long a
#: reconnecting sensor's ``hello`` waits for that teardown.
_CLOSE_TIMEOUT_S = 60.0

#: How long ``stop()`` waits for aborted connections to end; it also bounds
#: their flushes, which hold a ring lock that ``hub.stop()`` needs.
_SHUTDOWN_TIMEOUT_S = 10.0


class _Aborted(Exception):
    """The server is stopping: a backoff ends and its run is not submitted."""


def _parse(buffer: bytearray, limit: int) -> Tuple[list, int]:
    """The complete messages at the start of ``buffer``, and the bytes they take.

    A plain binary frame, ``{"type":"events","count":N}`` and its records,
    becomes its records alone (a ``bytearray``); any other message with a
    ``count`` gets them as ``message["records"]``.  A line that does not
    decode becomes its :class:`ProtocolError`, in its place.  A
    :class:`FramingError` (a bad ``count``, or a line or frame over
    ``limit``) ends the list: nothing after it can be framed.
    """
    messages, pos = [], 0
    while True:
        end = buffer.find(b"\n", pos, pos + limit + 1)
        if end < 0:
            if len(buffer) - pos > limit:
                messages.append(FramingError(
                    f"line exceeds the {limit}-byte limit; closing the connection"))
            return messages, pos
        try:
            message = decode_message(buffer[pos:end])
        except FramingError as error:
            messages.append(error)
            return messages, pos
        except ProtocolError as error:
            messages.append(error)
            pos = end + 1
            continue
        if "count" in message:
            size = message["count"] * RECORD_BYTES
            if size > limit:
                messages.append(FramingError(
                    f"events frame of {size} bytes exceeds the {limit}-byte limit; "
                    "closing the connection"))
                return messages, pos
            if end + 1 + size > len(buffer):
                return messages, pos  # its records are still to come
            records = buffer[end + 1:end + 1 + size]
            end += size
            if len(message) == 2 and message["type"] == "events":
                message = records
            else:
                message["records"] = records
        messages.append(message)
        pos = end + 1


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
        self.deadline: Optional[float] = None  # loop time to end by, once aborted
        self.max_run_bytes = max_payload_bytes(self.hub.config.ring_capacity_bytes)
        self.send_queue: "asyncio.Queue" = asyncio.Queue(maxsize=SEND_QUEUE_CAPACITY)
        self._raw_writer = writer
        self.writer_task = asyncio.ensure_future(self._writer_loop(writer))

    def abort(self, deadline: float) -> None:
        """Server-shutdown path: close the transport so the reader sees EOF,
        end any backoff, and bound the teardown's flush by ``deadline``."""
        self.deadline = deadline
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

    async def serve(self, reader: asyncio.StreamReader) -> None:
        """Handle the connection's input, one read at a time, until it ends."""
        limit = self.hub.config.ring_capacity_bytes
        buffer = bytearray()
        while True:
            try:
                data = await reader.read(READ_CHUNK)
            except (ConnectionError, OSError):
                return
            if not data:
                return  # EOF, perhaps inside a message: the teardown follows
            buffer += data
            messages, consumed = _parse(buffer, limit)
            del buffer[:consumed]
            try:
                if not await self.handle(messages):
                    return
            except _Aborted:
                return

    async def handle(self, messages: list) -> bool:
        """Handle one read's messages in order; ``False`` ends the connection.

        Consecutive plain ``events`` frames of a registered, unfinished
        sensor form a run, submitted before whatever follows it.
        """
        run: List[bytearray] = []
        run_bytes = 0
        for message in messages:
            if type(message) is bytearray and self.sensor_id is not None and self.summary is None:
                if run and run_bytes + len(message) > self.max_run_bytes:
                    await self._submit_run(run)
                    run, run_bytes = [], 0
                run.append(message)
                run_bytes += len(message)
                continue
            if run:
                await self._submit_run(run)
                run, run_bytes = [], 0
            if isinstance(message, ProtocolError):
                await self.send(error_reply(message, self.sensor_id))
                if isinstance(message, FramingError):
                    return False
                continue
            if type(message) is bytearray:  # events before hello or after finish
                message = {"type": "events", "count": len(message) // RECORD_BYTES,
                           "records": message}
            try:
                if not await self.dispatch(message):
                    return False
            except (ProtocolError, ShardDown, KeyError) as error:
                await self.send(error_reply(error, self.sensor_id))
        if run:
            await self._submit_run(run)
        return True

    async def _submit_run(self, run: List[bytearray]) -> None:
        """Check a run of frames' records as one packet, and submit it.

        A run that fails the check is retried frame by frame, so the good
        frames go in order and each bad one gets its own ``error`` reply.
        A run the hub cannot take (its shard is down, its sensor is gone, or
        a single frame can never fit one ring record) gets one ``error``
        reply per frame.
        """
        records = b"".join(run)
        message = {"type": "events", "count": len(records) // RECORD_BYTES, "records": records}
        try:
            packet = packet_from_events_message(message, self.width, self.height)
        except ProtocolError as error:
            if len(run) == 1:
                await self.send(error_reply(error, self.sensor_id))
                return
            for frame in run:
                await self._submit_run([frame])
            return
        try:
            await self._ingest(packet)
        except (ProtocolError, ShardDown, KeyError) as error:
            reply = error_reply(error, self.sensor_id)
            for _ in run:
                await self.send(reply)

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
            if self.deadline is not None:
                raise _Aborted
            delay = min(delay * 2, _BACKOFF_MAX_S)

    async def _on_hello(self, message: dict) -> bool:
        hub = self.hub
        if self.sensor_id is not None:
            raise ProtocolError("duplicate hello on this connection")
        sensor_id, (self.width, self.height), pipeline_config = parse_hello(
            message, hub.config.pipeline_config
        )
        closing = self.server._closing.get(sensor_id)
        if closing is not None:
            # The id's previous connection is still flushing; if the wait
            # runs out, register's "already registered" error stands.
            try:
                await asyncio.wait_for(closing.wait(), _CLOSE_TIMEOUT_S)
            except asyncio.TimeoutError:
                pass
        try:
            # register blocks on the hub's control path (a ring put with a
            # long timeout) — keep it off the loop.
            await asyncio.to_thread(
                hub.register,
                sensor_id,
                config=pipeline_config,
                on_frames=self.on_frames,
            )
        except (ValueError, RingFull) as error:
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
        sensor_id = self.sensor_id
        if sensor_id is not None:
            self.server._closing[sensor_id] = asyncio.Event()
            timeout = _CLOSE_TIMEOUT_S
            if self.deadline is not None:
                timeout = max(0.0, self.deadline - self.loop.time())
            try:
                await asyncio.to_thread(self.hub.close_sensor, sensor_id, timeout)
            except Exception:
                pass
            finally:
                self.hub.remove_sensor(sensor_id)
                self.server._closing.pop(sensor_id).set()
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
        # Sensor id -> set once its old connection's teardown is done.  Only
        # the event-loop thread touches it.
        self._closing: Dict[str, asyncio.Event] = {}

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
        try:
            await connection.serve(reader)
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
        await self._stop_event.wait()
        server.close()
        # Drop live connections by closing their transports: each handler's
        # read sees EOF, or its backoff ends, and it runs its normal teardown
        # (flush + deregister) rather than being cancelled mid-protocol.
        loop = asyncio.get_running_loop()
        deadline = loop.time() + _SHUTDOWN_TIMEOUT_S
        for connection in list(self._connections):
            connection.abort(deadline)
        while self._connections and loop.time() < deadline:
            await asyncio.sleep(0.05)
        for connection in self._connections:
            logger.warning("connection of sensor %r did not end within %.0f s of stop(); "
                           "cancelling it", connection.sensor_id, _SHUTDOWN_TIMEOUT_S)

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
        """Stop accepting, close connections, drain and stop the hub.

        The hub stops only once the event-loop thread has ended, which
        :data:`_SHUTDOWN_TIMEOUT_S` bounds: a connection still open then is
        named in a warning and cancelled.
        """
        if self._thread is not None:
            if self._loop is not None and self._stop_event is not None:
                try:
                    self._loop.call_soon_threadsafe(self._stop_event.set)
                except RuntimeError:
                    pass
            self._thread.join()
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

"""Shared-memory event transport between the hub and its shard workers.

The hub moves event batches to its shard workers (threads or forked
processes) through a single-producer / single-consumer ring buffer in POSIX
shared memory (:class:`multiprocessing.shared_memory.SharedMemory`): the
hub packs each batch's raw ``EVENT_DTYPE`` bytes into the ring with a small
record header, the worker drains **every** available record in one scan.
That bulk drain is the architectural point, not just a copy-avoidance
trick: a busy shard naturally finds a backlog of records per scan, and
handing the whole backlog to :meth:`~repro.serving.session.SensorSession.ingest_many`
amortises the per-batch Python overhead a queue-per-item design pays — see
``BENCH_serving_scale.json``.

Layout (offsets in bytes)::

    0    head      u64  — consumer read cursor (bytes, monotonically grows)
    64   tail      u64  — producer write cursor
    128  records_in  u64 — records ever enqueued   (producer-owned)
    192  records_out u64 — records ever dequeued   (consumer-owned)
    256  busy_ns   u64  — worker busy time (worker-owned stats slot)
    320  data[capacity]

Cursors sit on their own cache lines so producer and consumer stores do not
false-share.  Each record is ``<u32 len><u8 kind><u32 sensor_idx><f64
enqueued_at>`` followed by ``len`` payload bytes; a length of ``0xFFFFFFFF``
is a wrap marker (the rest of the ring up to the end is dead space and the
record restarts at offset 0).  Cursor *publication* is synchronised by one
shared :class:`multiprocessing.Lock`: plain byte stores into shared memory
(``struct.pack_into`` compiles to a memcpy) guarantee neither atomicity nor
cross-CPU ordering, so on a weakly-ordered machine (aarch64) the consumer
could otherwise observe a tail advance before the header/payload bytes it
publishes are visible.  The producer writes a record's bytes first and
stores the tail under the lock; the consumer loads the tail under the same
lock before touching the bytes — the release/acquire pairing of the lock
is what carries the payload across.  The lock is uncontended in steady
state (SPSC; it is held for two 8-byte stores) and replaces nothing on the
fast path: the producer still runs from its cached cursors and only takes
the lock once per record plus once per full-looking refresh.

``enqueued_at`` carries the producer's ``time.perf_counter()`` timestamp:
on Linux that is ``CLOCK_MONOTONIC``, which is comparable across processes,
so the worker's frame-latency histogram measures true queue+processing
delay on either worker vehicle.

:class:`PipeRing` is the plain-``multiprocessing.Pipe`` fallback for
environments without usable shared memory (``/dev/shm`` mounted ``noexec``
or absent); it exposes the same API, including the bulk drain and the
bounded non-blocking :meth:`~PipeRing.try_put`, at the cost of one kernel
round-trip per record.
"""

from __future__ import annotations

import select
import struct
import time
from typing import List, NamedTuple, Optional

_HEAD_OFF = 0
_TAIL_OFF = 64
_IN_OFF = 128
_OUT_OFF = 192
_BUSY_OFF = 256
_DATA_OFF = 320

_HDR = struct.Struct("<IBId")  # len, kind, sensor_idx, enqueued_at
_WRAP = 0xFFFFFFFF
_U64 = struct.Struct("<Q")

#: In-band record kinds.  Everything that must stay ordered with a sensor's
#: event batches travels through the ring; out-of-band control (metric
#: scrapes, migration envelopes) uses the worker's command pipe.
KIND_EVENTS = 0
KIND_REGISTER = 1
KIND_CLOSE = 2
KIND_MIGRATE_OUT = 3
KIND_MIGRATE_IN = 4
KIND_STOP = 5


#: Event transports understood by :func:`make_ring`.
TRANSPORTS = ("shm", "pipe")


def max_payload_bytes(capacity_bytes: int) -> int:
    """The largest record payload a ``capacity_bytes`` ring can ever hold.

    A record needs its header, plus one header of slack so a full ring's
    tail never catches its head (full vs empty ambiguity).
    """
    return capacity_bytes - 2 * _HDR.size


class Record(NamedTuple):
    """One dequeued transport record.

    A ``NamedTuple`` rather than a dataclass: the consumer creates one per
    drained record on the hot path, and tuple construction is several
    times cheaper.
    """

    kind: int
    sensor_idx: int
    enqueued_at: float
    payload: bytes


class RingFull(Exception):
    """Raised by :meth:`ShmRing.put` when the timeout elapses ring-full."""


class ShmRing:
    """SPSC byte ring in shared memory carrying event-batch records.

    Exactly one producer (the hub process) and one consumer (the shard
    worker) may use a ring; per-sensor batch ordering follows from that
    plus the hub's shard map.  The parent creates the ring before forking;
    the worker inherits the mapping (fork start method), so no name-based
    re-attach — and none of the resource-tracker double-unlink issues that
    come with it — is involved.
    """

    def __init__(self, capacity_bytes: int = 1 << 20, name: Optional[str] = None):
        from multiprocessing import shared_memory

        if capacity_bytes < 4096:
            raise ValueError(
                f"capacity_bytes must be >= 4096, got {capacity_bytes}"
            )
        self._capacity = int(capacity_bytes)
        self._max_payload = max_payload_bytes(self._capacity)
        # The cursor-publication lock (see the module docstring).  A fork
        # context so the worker inherits the same semaphore; platforms
        # without fork cannot run the process hub anyway, and make_ring
        # turns the ValueError into a PipeRing fallback.
        import multiprocessing

        self._lock = multiprocessing.get_context("fork").Lock()
        self._shm = shared_memory.SharedMemory(
            name=name, create=True, size=_DATA_OFF + self._capacity
        )
        self._buf = self._shm.buf
        for off in (_HEAD_OFF, _TAIL_OFF, _IN_OFF, _OUT_OFF, _BUSY_OFF):
            _U64.pack_into(self._buf, off, 0)
        # Producer-side cursor cache.  The producer is the only writer of
        # tail/records_in, so it can keep them in plain Python ints and
        # mirror each store to shared memory; the consumer's head cursor is
        # re-read only when the cached (conservative) snapshot says the
        # record might not fit.  This halves the struct round-trips on the
        # submit hot path.
        self._tail_cache = 0
        self._in_cache = 0
        self._head_cache = 0
        self._closed = False

    # -- cursor helpers ------------------------------------------------------------------

    def _read_u64(self, off: int) -> int:
        return _U64.unpack_from(self._buf, off)[0]

    def _write_u64(self, off: int, value: int) -> None:
        _U64.pack_into(self._buf, off, value)

    @property
    def capacity_bytes(self) -> int:
        """Usable data capacity of the ring."""
        return self._capacity

    def depth(self) -> int:
        """Records currently enqueued but not yet consumed.

        Readable from either side (the counters are read under the cursor
        lock, so an 8-byte value can never tear); this is what the hub
        exports as the ``repro_shard_queue_depth`` gauge and feeds to the
        rebalancer.
        """
        with self._lock:
            return max(0, self._read_u64(_IN_OFF) - self._read_u64(_OUT_OFF))

    def busy_seconds(self) -> float:
        """Worker-reported cumulative busy time (see :meth:`add_busy`)."""
        with self._lock:
            return self._read_u64(_BUSY_OFF) * 1e-9

    def add_busy(self, seconds: float) -> None:
        """Worker-side: accumulate busy time into the shared stats slot."""
        with self._lock:
            self._write_u64(
                _BUSY_OFF, self._read_u64(_BUSY_OFF) + int(seconds * 1e9)
            )

    # -- producer ------------------------------------------------------------------------

    def try_put(
        self,
        kind: int,
        sensor_idx: int,
        payload: bytes,
        enqueued_at: Optional[float] = None,
    ) -> bool:
        """Enqueue one record; ``False`` (without blocking) if it cannot fit."""
        need = _HDR.size + len(payload)
        if len(payload) > self._max_payload:
            raise ValueError(
                f"record of {need} bytes can never fit a "
                f"{self._capacity}-byte ring"
            )
        tail = self._tail_cache
        pos = tail % self._capacity
        tail_room = self._capacity - pos
        wrap = tail_room < need + _HDR.size
        # A wrap burns the rest of the ring (marker + dead space) and the
        # record must then also fit at the start without catching head.
        # Keep one header's worth of slack so tail never exactly catches
        # head with a full buffer (full vs empty ambiguity).
        required = tail_room + need if wrap else need + _HDR.size
        if self._capacity - (tail - self._head_cache) < required:
            # The conservative head snapshot says full — refresh it from
            # shared memory (the consumer may have drained meanwhile).
            # Under the lock: pairs with the consumer's locked head store,
            # so a freed region is fully copied out before we reuse it.
            with self._lock:
                self._head_cache = self._read_u64(_HEAD_OFF)
            if self._capacity - (tail - self._head_cache) < required:
                return False
        if enqueued_at is None:
            enqueued_at = time.perf_counter()
        if wrap:
            _HDR.pack_into(self._buf, _DATA_OFF + pos, _WRAP, 0, 0, 0.0)
            tail += tail_room
            pos = 0
        _HDR.pack_into(self._buf, _DATA_OFF + pos, len(payload), kind, sensor_idx, enqueued_at)
        if payload:
            start = _DATA_OFF + pos + _HDR.size
            self._buf[start : start + len(payload)] = payload
        self._tail_cache = tail + need
        self._in_cache += 1
        # Publication barrier: the record's bytes above must be visible
        # before the consumer can observe this tail advance.
        with self._lock:
            self._write_u64(_TAIL_OFF, self._tail_cache)
            self._write_u64(_IN_OFF, self._in_cache)
        return True

    def put(
        self,
        kind: int,
        sensor_idx: int,
        payload: bytes,
        timeout: Optional[float] = None,
    ) -> None:
        """Blocking :meth:`try_put` with exponential backoff.

        Raises :class:`RingFull` if ``timeout`` elapses — the producer-side
        backpressure of the ``"block"`` policy.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        delay = 20e-6
        while not self.try_put(kind, sensor_idx, payload):
            if deadline is not None and time.perf_counter() >= deadline:
                raise RingFull(
                    f"ring full ({self.depth()} records) after {timeout}s"
                )
            time.sleep(delay)
            delay = min(delay * 2, 2e-3)

    # -- consumer ------------------------------------------------------------------------

    def get_available(self, max_records: int = 0) -> List[Record]:
        """Dequeue every record currently in the ring (the bulk drain).

        ``max_records`` bounds one drain (0 = unbounded) so a worker under
        storm conditions still interleaves command-pipe polls.  Payload
        bytes are copied out before the head cursor advances, so the
        producer can never overwrite a record the consumer still holds.
        (They stay ``bytes`` on purpose: the shard worker joins a whole
        coalesced group and decodes it with a *single* ``frombuffer`` —
        per-record numpy wrappers cost more than the raw byte copies.)
        """
        head = self._read_u64(_HEAD_OFF)
        # Acquiring the lock pairs with the producer's locked tail store:
        # every record byte published before this tail value is visible.
        with self._lock:
            tail = self._read_u64(_TAIL_OFF)
        records: List[Record] = []
        while head < tail:
            if max_records and len(records) >= max_records:
                break
            pos = head % self._capacity
            length, kind, sensor_idx, enqueued_at = _HDR.unpack_from(
                self._buf, _DATA_OFF + pos
            )
            if length == _WRAP:
                head += self._capacity - pos
                continue
            start = _DATA_OFF + pos + _HDR.size
            payload = bytes(self._buf[start : start + length])
            records.append(Record(kind, sensor_idx, enqueued_at, payload))
            head += _HDR.size + length
        if records:
            with self._lock:
                self._write_u64(_HEAD_OFF, head)
                self._write_u64(
                    _OUT_OFF, self._read_u64(_OUT_OFF) + len(records)
                )
        elif head != self._read_u64(_HEAD_OFF):
            # Only wrap markers were consumed.
            with self._lock:
                self._write_u64(_HEAD_OFF, head)
        return records

    # -- lifecycle -----------------------------------------------------------------------

    def close(self, unlink: bool = False) -> None:
        """Release the mapping; ``unlink=True`` (creator only) removes it."""
        if self._closed:
            return
        self._closed = True
        self._buf = None
        self._shm.close()
        if unlink:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass


class PipeRing:
    """Same record API as :class:`ShmRing` over a ``multiprocessing.Pipe``.

    The fallback transport when shared memory is unavailable.  ``depth``
    and busy time are tracked through shared counters instead of header
    slots; a drain pulls everything the pipe currently holds, so the
    worker's coalescing fast path behaves identically.

    :meth:`try_put` keeps the ShmRing's non-blocking contract — and
    therefore the ``"drop"`` policy's shed semantics — by refusing when
    the bookkept in-flight bytes exceed ``capacity_bytes`` *or* when the
    OS pipe buffer has no room (``Connection.send`` would otherwise park
    the caller behind a stalled worker).  One residual gap: a record
    larger than the free pipe-buffer space blocks in ``send`` until the
    consumer drains — unavoidable without reimplementing framing on a
    non-blocking fd, and only reachable when the worker has already
    wedged mid-record.
    """

    def __init__(self, context=None, capacity_bytes: int = 1 << 20) -> None:
        import multiprocessing

        ctx = context or multiprocessing.get_context("fork")
        self._capacity = int(capacity_bytes)
        self._rx, self._tx = ctx.Pipe(duplex=False)
        # Each counter is single-writer (producer: *_in, consumer: *_out).
        self._records_in = ctx.Value("Q", 0, lock=False)
        self._records_out = ctx.Value("Q", 0, lock=False)
        self._bytes_in = ctx.Value("Q", 0, lock=False)
        self._bytes_out = ctx.Value("Q", 0, lock=False)
        self._busy_ns = ctx.Value("Q", 0, lock=False)

    @property
    def capacity_bytes(self) -> int:
        return self._capacity

    def depth(self) -> int:
        return max(0, self._records_in.value - self._records_out.value)

    def busy_seconds(self) -> float:
        return self._busy_ns.value * 1e-9

    def add_busy(self, seconds: float) -> None:
        self._busy_ns.value += int(seconds * 1e9)

    def try_put(
        self,
        kind: int,
        sensor_idx: int,
        payload: bytes,
        enqueued_at: Optional[float] = None,
    ) -> bool:
        need = _HDR.size + len(payload)
        in_flight = max(0, self._bytes_in.value - self._bytes_out.value)
        # Refuse only when something is already queued: an oversized record
        # still passes through an idle ring (the pipe imposes no framing
        # limit, so unlike ShmRing it need not fit the buffer), keeping the
        # queue bounded by capacity + one record without ever wedging.
        if in_flight and in_flight + need > self._capacity:
            return False
        if not select.select([], [self._tx], [], 0)[1]:
            return False  # OS pipe buffer full — send would block
        if enqueued_at is None:
            enqueued_at = time.perf_counter()
        self._tx.send((kind, sensor_idx, enqueued_at, payload))
        self._records_in.value += 1
        self._bytes_in.value += need
        return True

    def put(
        self,
        kind: int,
        sensor_idx: int,
        payload: bytes,
        timeout: Optional[float] = None,
    ) -> None:
        """Blocking :meth:`try_put` with backoff; :class:`RingFull` on timeout."""
        deadline = None if timeout is None else time.perf_counter() + timeout
        delay = 20e-6
        while not self.try_put(kind, sensor_idx, payload):
            if deadline is not None and time.perf_counter() >= deadline:
                raise RingFull(
                    f"pipe ring full ({self.depth()} records) after {timeout}s"
                )
            time.sleep(delay)
            delay = min(delay * 2, 2e-3)

    def get_available(self, max_records: int = 0) -> List[Record]:
        records: List[Record] = []
        drained_bytes = 0
        while self._rx.poll(0):
            kind, sensor_idx, enqueued_at, payload = self._rx.recv()
            records.append(Record(kind, sensor_idx, enqueued_at, payload))
            drained_bytes += _HDR.size + len(payload)
            if max_records and len(records) >= max_records:
                break
        if records:
            self._records_out.value += len(records)
            self._bytes_out.value += drained_bytes
        return records

    def close(self, unlink: bool = False) -> None:
        self._rx.close()
        self._tx.close()


def make_ring(transport: str = "shm", capacity_bytes: int = 1 << 20):
    """Build the configured transport, falling back to pipes when needed.

    ``transport`` is ``"shm"`` (shared memory; falls back to ``"pipe"``
    with a warning if the segment cannot be created) or ``"pipe"``.
    """
    if transport not in TRANSPORTS:
        raise ValueError(f"unknown transport {transport!r}")
    if transport == "pipe":
        return PipeRing(capacity_bytes=capacity_bytes)
    try:
        return ShmRing(capacity_bytes=capacity_bytes)
    except Exception:
        import logging

        logging.getLogger(__name__).warning(
            "shared memory unavailable; hub falling back to pipe transport"
        )
        return PipeRing(capacity_bytes=capacity_bytes)

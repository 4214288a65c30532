"""Shared-memory event transport between the hub and its shard workers.

The hub moves event batches to its shard workers (threads or forked
processes) through a single-producer / single-consumer ring buffer in POSIX
shared memory (:class:`multiprocessing.shared_memory.SharedMemory`): the
hub packs each batch's raw ``EVENT_DTYPE`` bytes into the ring with a small
record header, the worker drains **every** available record in one scan.
That bulk drain is the architectural point, not just a copy-avoidance
trick: a busy shard naturally finds a backlog of records per scan, and
handing each sensor's whole backlog to
:meth:`~repro.serving.session.SensorSession.ingest` as one joined packet
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

No parent-side wait outlives the worker.  A worker killed inside the lock
(a SIGKILL) leaves it held for good, so every wait on it polls in
:data:`LOCK_POLL_S` slices, and once the hub marks the ring abandoned
(:meth:`ShmRing.abandon`, the first thing it does when a worker ends
unasked) the wait raises :class:`ShardDown`; so does :meth:`ShmRing.put`'s
backoff loop on a full ring that nothing drains any more.
"""

from __future__ import annotations

import multiprocessing
import struct
import time
from multiprocessing import shared_memory
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

#: How long one wait on a ring's cursor lock lasts before it re-checks
#: whether the hub has abandoned the ring.
LOCK_POLL_S = 0.05


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


class ShardDown(RuntimeError):
    """The request touched a shard whose worker has died."""


class _CursorLock:
    """The ring's cursor-publication lock, with waits that end with the worker.

    ``with`` takes the wrapped lock in :data:`LOCK_POLL_S` slices and raises
    :class:`ShardDown` between slices once :attr:`abandoned` is set.  The
    flag is parent-side: a forked worker keeps its own copy, unset.
    """

    __slots__ = ("_lock", "abandoned")

    def __init__(self, lock) -> None:
        self._lock = lock
        self.abandoned = False

    def __enter__(self) -> None:
        while not self._lock.acquire(timeout=LOCK_POLL_S):
            if self.abandoned:
                raise ShardDown("the ring's shard worker is down")

    def __exit__(self, *exc_info) -> None:
        self._lock.release()


class ShmRing:
    """SPSC byte ring in shared memory carrying event-batch records.

    Exactly one producer (the hub process) and one consumer (the shard
    worker) may use a ring; per-sensor batch ordering follows from that
    plus the hub's shard map.  The parent creates the ring before forking;
    the worker inherits the mapping (fork start method), so no name-based
    re-attach — and none of the resource-tracker double-unlink issues that
    come with it — is involved.
    """

    def __init__(self, capacity_bytes: int = 1 << 20):
        if capacity_bytes < 4096:
            raise ValueError(
                f"capacity_bytes must be >= 4096, got {capacity_bytes}"
            )
        self._capacity = int(capacity_bytes)
        self._max_payload = max_payload_bytes(self._capacity)
        # The cursor-publication lock (see the module docstring).  A fork
        # context so the worker inherits the same semaphore; platforms
        # without fork cannot run the process hub anyway.
        self._lock = _CursorLock(multiprocessing.get_context("fork").Lock())
        self._shm = shared_memory.SharedMemory(create=True, size=_DATA_OFF + self._capacity)
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
        exports as the ``repro_shard_queue_depth`` gauge.
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

    def abandon(self) -> None:
        """Parent-side: the worker is gone, so end every wait on this ring.

        Later lock waits and :meth:`put` backoffs raise :class:`ShardDown`
        instead of waiting on a lock or a drain that may never come.
        """
        self._lock.abandoned = True

    # -- producer ------------------------------------------------------------------------

    def try_put(
        self,
        kind: int,
        sensor_idx: int,
        payload: bytes,
        enqueued_at: Optional[float] = None,
    ) -> bool:
        """Enqueue one record; ``False`` (without blocking) if it cannot fit.

        A record that does not fit before the ring's end waits for the rest
        of the ring to be free.  The wrap marker is then published on its
        own, and the record goes to offset 0 as soon as it fits there: at
        once, or on a retry after the consumer has passed the marker.
        """
        need = _HDR.size + len(payload)
        if len(payload) > self._max_payload:
            raise ValueError(
                f"record of {need} bytes can never fit a "
                f"{self._capacity}-byte ring"
            )
        pos = self._tail_cache % self._capacity
        tail_room = self._capacity - pos
        # A record must leave room for a wrap marker's header after it.
        if tail_room < need + _HDR.size:
            # The marker burns the rest of the ring as dead space.
            if not self._has_room(tail_room):
                return False
            _HDR.pack_into(self._buf, _DATA_OFF + pos, _WRAP, 0, 0, 0.0)
            self._tail_cache += tail_room
            self._publish()
            pos = 0
        # Keep one header's worth of slack so tail never exactly catches
        # head with a full buffer (full vs empty ambiguity).
        if not self._has_room(need + _HDR.size):
            return False
        if enqueued_at is None:
            enqueued_at = time.perf_counter()
        _HDR.pack_into(self._buf, _DATA_OFF + pos, len(payload), kind, sensor_idx, enqueued_at)
        if payload:
            start = _DATA_OFF + pos + _HDR.size
            self._buf[start : start + len(payload)] = payload
        self._tail_cache += need
        self._in_cache += 1
        self._publish()
        return True

    def _has_room(self, required: int) -> bool:
        """Whether ``required`` bytes past the tail are free of unread data."""
        if self._capacity - (self._tail_cache - self._head_cache) >= required:
            return True
        # The conservative head snapshot says full — refresh it from shared
        # memory (the consumer may have drained meanwhile).  Under the lock:
        # pairs with the consumer's locked head store, so a freed region is
        # fully copied out before we reuse it.
        with self._lock:
            self._head_cache = self._read_u64(_HEAD_OFF)
        return self._capacity - (self._tail_cache - self._head_cache) >= required

    def _publish(self) -> None:
        """Store the cached tail and record count to shared memory.

        The publication barrier: every byte written before this call is
        visible to the consumer before it can observe the tail advance.
        """
        with self._lock:
            self._write_u64(_TAIL_OFF, self._tail_cache)
            self._write_u64(_IN_OFF, self._in_cache)

    def put(
        self,
        kind: int,
        sensor_idx: int,
        payload: bytes,
        timeout: Optional[float] = None,
    ) -> None:
        """Blocking :meth:`try_put` with exponential backoff.

        Raises :class:`RingFull` if ``timeout`` elapses — the producer-side
        backpressure of the ``"block"`` policy — and :class:`ShardDown` once
        the ring is abandoned.
        """
        deadline = None if timeout is None else time.perf_counter() + timeout
        delay = 20e-6
        while not self.try_put(kind, sensor_idx, payload):
            if self._lock.abandoned:
                raise ShardDown("the ring's shard worker is down")
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

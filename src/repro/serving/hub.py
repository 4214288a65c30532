"""The tracking hub: many live sensors, one worker per shard.

Each registered sensor is assigned — by a stable hash of its id — to
exactly one shard, and each shard is one worker running the loop of
:mod:`repro.serving.shard`, fed through one bounded shared-memory ring
(:class:`~repro.serving.transport.ShmRing`).  That gives per-sensor
ordering for free, recording-level parallelism across shards, and bounded
memory via ``ring_capacity_bytes`` with an explicit backpressure policy
when a ring fills: ``"block"`` (lossless, slows producers — the default
for replay/backfill) or ``"drop"`` (sheds the newest batch and counts it
in telemetry — what a live deployment does when a sensor storms).

:class:`TrackingHub` runs each worker loop on a ``threading.Thread``;
:class:`~repro.serving.process_hub.ProcessTrackingHub` forks a process
instead and is otherwise this same code.  Records that must stay ordered
with a sensor's events (register, close, migrate out/in) ride the ring
in-band; scrapes, trace dumps, migration envelopes and pause/resume use a
command pipe per shard; frames and replies come back on a result pipe per
shard, drained by a pump thread that also runs the ``on_frames``
callbacks.  :attr:`TrackingHub.telemetry` counts the ingest side (batches,
events, drops, queue depth); each worker counts the processing side in
its own registry, and :meth:`TrackingHub.merged_metrics` merges them.

A worker that ends without being stopped takes its shard down: pending
requests on it fail at once with :class:`ShardDown`, later submits and
closes for its sensors raise the same, scrapes skip it, and
``repro_shard_worker_up`` reads 0.  Its ring is abandoned first, so a
submit parked on the full ring, or on a cursor lock the worker died
holding, raises :class:`ShardDown` too.
"""

from __future__ import annotations

import itertools
import logging
import pickle
import threading
import time
import zlib
from dataclasses import dataclass, field
from multiprocessing import Pipe
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.core.config import EbbiotConfig
from repro.core.pipeline import FrameResult
from repro.events.types import normalize_packet
from repro.obs.metrics import MetricsRegistry
from repro.runtime.aggregate import BatchResult, RecordingResult
from repro.serving.protocol import ProtocolError
from repro.serving.rebalance import (
    Move,
    RebalancePolicy,
    ShardStats,
    plan_rebalance,
)
from repro.serving.shard import shard_worker_main
from repro.serving.telemetry import TelemetryRegistry
from repro.serving.transport import (
    KIND_CLOSE,
    KIND_EVENTS,
    KIND_MIGRATE_IN,
    KIND_MIGRATE_OUT,
    KIND_REGISTER,
    KIND_STOP,
    RingFull,
    ShardDown,
    ShmRing,
    max_payload_bytes,
)

logger = logging.getLogger(__name__)

#: Backpressure policies understood by :class:`HubConfig`.
BACKPRESSURE_POLICIES = ("block", "drop")

FramesCallback = Callable[[str, List[FrameResult]], None]

#: Accepted batches between refreshes of a sensor's queue-depth gauge.
#: The gauge is a scrape-time approximation; reading the ring counters and
#: taking the gauge lock on *every* submit measurably taxes the hot path.
_DEPTH_GAUGE_STRIDE = 32


@dataclass
class HubConfig:
    """Configuration of a :class:`TrackingHub` (either worker vehicle).

    Parameters
    ----------
    num_workers:
        Worker shards.  Sensors are hashed across shards, so more workers
        than distinct sensors buys nothing.
    backpressure:
        ``"block"`` (default) or ``"drop"`` — see the module docstring.
    pipeline_config:
        Shared pipeline configuration for sensors that do not bring their
        own (per-sensor configs carry e.g. a site's region of exclusion).
    reorder_slack_us:
        Out-of-order arrival tolerance for every sensor's online framer.
    instrument:
        Give every session a per-sensor :class:`repro.obs.Instrumentation`:
        per-stage seconds appear in the ``metrics`` exposition and
        :meth:`TrackingHub.chrome_trace` returns a live flame graph.  Off
        by default — uninstrumented sessions run the untouched hot path.
    trace_sample_every:
        Trace every Nth frame window per sensor (1 = all); bounds trace
        growth on long-lived hubs without affecting the stage metrics.
    rebalance:
        Optional :class:`~repro.serving.rebalance.RebalancePolicy`.  When
        set, a rebalancer thread woken every ``rebalance_check_every``
        submitted batches migrates sessions off overloaded shards (invisible
        in the output).  ``None`` (default) keeps placement hash-based.
    rebalance_check_every:
        Submit-count stride between rebalancer wake-ups; keeps even the
        wake signal off the per-batch hot path.
    ring_capacity_bytes:
        Byte capacity of each shard's ring — what bounds in-flight data
        per shard; size it for the expected batch size × desired queue
        depth.  A batch too big for one ring record is refused with a
        :class:`~repro.serving.protocol.ProtocolError` on either vehicle.
    """

    num_workers: int = 4
    backpressure: str = "block"
    pipeline_config: EbbiotConfig = field(default_factory=EbbiotConfig)
    reorder_slack_us: int = 5_000
    instrument: bool = False
    trace_sample_every: int = 1
    rebalance: Optional[RebalancePolicy] = None
    rebalance_check_every: int = 64
    ring_capacity_bytes: int = 1 << 20

    def __post_init__(self) -> None:
        if self.trace_sample_every < 1:
            raise ValueError(
                f"trace_sample_every must be >= 1, got {self.trace_sample_every}"
            )
        if self.num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {self.num_workers}")
        if self.backpressure not in BACKPRESSURE_POLICIES:
            raise ValueError(
                f"backpressure must be one of {BACKPRESSURE_POLICIES}, "
                f"got {self.backpressure!r}"
            )
        if self.reorder_slack_us < 0:
            raise ValueError(
                f"reorder_slack_us must be non-negative, got {self.reorder_slack_us}"
            )
        if self.rebalance_check_every < 1:
            raise ValueError(
                f"rebalance_check_every must be >= 1, got {self.rebalance_check_every}"
            )
        if self.ring_capacity_bytes < 4096:
            raise ValueError(
                f"ring_capacity_bytes must be >= 4096, got {self.ring_capacity_bytes}"
            )


class _Waiter:
    """One in-flight request/response round trip with the workers of ``shards``."""

    __slots__ = ("done", "payload", "shards")

    def __init__(self, shards) -> None:
        self.done = threading.Event()
        self.payload = None
        self.shards = shards


class TrackingHub:
    """Shards live :class:`~repro.serving.session.SensorSession` objects
    across shard workers, each running on a worker thread.

    Subclasses change only the worker vehicle (:meth:`_start_worker` and
    :meth:`_join_worker`); see :class:`~repro.serving.process_hub.ProcessTrackingHub`.
    """

    def __init__(self, config: Optional[HubConfig] = None) -> None:
        self.config = config or HubConfig()
        self.telemetry = TelemetryRegistry()
        self._rings: list = []
        self._cmd_tx: list = []  # hub -> worker command pipes
        self._workers: list = []
        self._pumps: List[threading.Thread] = []
        self._ring_locks = [
            threading.Lock() for _ in range(self.config.num_workers)
        ]
        self._max_payload = max_payload_bytes(self.config.ring_capacity_bytes)
        self._map_lock = threading.Lock()
        self._shard_map: Dict[str, int] = {}
        # Submit-path fast route: sensor_id -> (shard, idx, telemetry
        # record, ring lock, ring, depth-gauge countdown).  Replaced (never
        # mutated) whenever the sensor's placement changes, and always
        # while both affected ring locks are held, so a submitter that
        # re-checks identity after acquiring the ring lock can trust it.
        self._routes: Dict[str, tuple] = {}
        self._callbacks: Dict[str, Optional[FramesCallback]] = {}
        self._next_idx = itertools.count()
        self._next_req = itertools.count(1)
        self._waiters: Dict[int, _Waiter] = {}
        self._waiters_lock = threading.Lock()
        self._down: set = set()  # shards whose worker died (under _waiters_lock)
        self._pending_migrations: Dict[int, int] = {}  # mig_id -> target shard
        self._closed_results: List[RecordingResult] = []
        self._started = False
        self._started_at = 0.0
        self._migrations = 0
        self._submits_until_rebalance = self.config.rebalance_check_every
        self._rebalance_lock = threading.Lock()
        self._rebalance_wake = threading.Event()
        self._rebalance_stopping = False
        self._rebalance_thread: Optional[threading.Thread] = None

    # -- worker vehicle ------------------------------------------------------------------

    def _start_worker(self, shard: int, ring, cmd_rx, res_tx):
        """Run one shard's worker loop on a thread; returns its handle.

        The thread shares the pipe ends with the hub; the worker closes its
        own ends when it exits.
        """
        worker = threading.Thread(
            target=shard_worker_main,
            args=(shard, ring, cmd_rx, res_tx, self.config),
            name=f"tracking-shard-{shard}",
            daemon=True,
        )
        worker.start()
        return worker

    def _join_worker(self, worker) -> None:
        worker.join(timeout=10.0)

    # -- lifecycle -----------------------------------------------------------------------

    def start(self) -> "TrackingHub":
        """Start the shard workers and their pump threads (idempotent).

        Every shard's ring is made before any worker starts.  Without
        usable shared memory this raises ``RuntimeError`` with nothing left
        running, and a later call may try again.
        """
        if self._started:
            return self
        try:
            for _ in range(self.config.num_workers):
                self._rings.append(ShmRing(self.config.ring_capacity_bytes))
        except OSError as error:
            for ring in self._rings:
                ring.close(unlink=True)
            self._rings.clear()
            raise RuntimeError(
                f"cannot create the shard rings in shared memory (/dev/shm): {error}"
            ) from error
        self._started = True
        self._started_at = time.perf_counter()
        with self._waiters_lock:
            self._down.clear()
        for shard, ring in enumerate(self._rings):
            cmd_rx, cmd_tx = Pipe(duplex=False)
            res_rx, res_tx = Pipe(duplex=False)
            self._cmd_tx.append(cmd_tx)
            self._workers.append(self._start_worker(shard, ring, cmd_rx, res_tx))
            pump = threading.Thread(
                target=self._pump_loop,
                args=(shard, res_rx),
                name=f"tracking-pump-{shard}",
                daemon=True,
            )
            pump.start()
            self._pumps.append(pump)
        if self.config.rebalance is not None:
            self._rebalance_stopping = False
            self._rebalance_wake.clear()
            self._rebalance_thread = threading.Thread(
                target=self._rebalance_loop,
                name="tracking-hub-rebalancer",
                daemon=True,
            )
            self._rebalance_thread.start()
        return self

    def stop(self) -> None:
        """Stop the workers after their rings drain (idempotent)."""
        if not self._started:
            return
        # Retire the rebalancer first so no migration markers are enqueued
        # behind a stop record (the workers would never reach them).
        if self._rebalance_thread is not None:
            self._rebalance_stopping = True
            self._rebalance_wake.set()
            self._rebalance_thread.join(timeout=90.0)
            self._rebalance_thread = None
        for shard, ring in enumerate(self._rings):
            if shard in self._down:
                continue  # nothing drains a dead shard's ring
            try:
                with self._ring_locks[shard]:
                    ring.put(KIND_STOP, 0, b"", timeout=10.0)
            except (RingFull, ShardDown, OSError):
                try:
                    self._cmd_tx[shard].send(("stop",))
                except OSError:
                    pass
        for worker in self._workers:
            self._join_worker(worker)
        for pump in self._pumps:
            pump.join(timeout=5.0)
        for tx in self._cmd_tx:
            tx.close()
        for ring in self._rings:
            ring.close(unlink=True)
        # The sessions died with the workers and routes hold refs to the
        # (now closed) rings: a restarted hub starts with no sensors.
        with self._map_lock:
            self._shard_map.clear()
            self._callbacks.clear()
            self._routes.clear()
        self._rings.clear()
        self._cmd_tx.clear()
        self._workers.clear()
        self._pumps.clear()
        self._started = False

    def __enter__(self) -> "TrackingHub":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError("hub is not started")

    # -- result pump ---------------------------------------------------------------------

    def _pump_loop(self, shard: int, res_rx) -> None:
        """Drain one shard's result pipe: frames → callbacks, replies → waiters."""
        reason = "worker exited without stopping"
        try:
            while True:
                try:
                    message = res_rx.recv()
                except (EOFError, OSError):
                    break
                kind = message[0]
                if kind == "frames":
                    _, sensor_id, frames = message
                    callback = self._callbacks.get(sensor_id)
                    if callback is not None:
                        try:
                            callback(sensor_id, frames)
                        except Exception:
                            logger.exception("on_frames callback of %r failed", sensor_id)
                elif kind == "migrated":
                    self._forward_envelope(*message[1:])
                elif kind == "stopped":
                    return
                elif kind == "fatal":
                    reason = message[2]
                    break
                else:  # a reply: (kind, req_id, ...)
                    self._resolve(message[1], message)
        finally:
            res_rx.close()
        self._shard_died(shard, reason)

    def _forward_envelope(self, mig_id: int, envelope, error) -> None:
        """Hand a migrate-out envelope to the target worker's command pipe."""
        with self._map_lock:
            target = self._pending_migrations.get(mig_id)
        if error is None and target is not None:
            try:
                self._cmd_tx[target].send(("envelope", mig_id, envelope))
                return
            except OSError:
                error = f"target shard {target} pipe closed"
        # Release the target worker's MIGRATE_IN barrier right away (it
        # would otherwise sit out its full timeout, stalling that shard),
        # then resolve the migrate waiter directly with the failure.
        if target is not None:
            try:
                self._cmd_tx[target].send(("abort", mig_id))
            except OSError:  # pragma: no cover - defensive
                pass
        self._resolve(mig_id, ("migrate_done", mig_id, error))

    def _shard_died(self, shard: int, reason: str) -> None:
        """Take a shard whose worker ended unasked out of service, failing fast."""
        logger.error("shard %d worker died: %s", shard, reason)
        # First end every wait on the ring: nothing drains it any more, and
        # the worker may have died holding its cursor lock.
        self._rings[shard].abandon()
        with self._waiters_lock:
            self._down.add(shard)
            doomed = [req for req, w in self._waiters.items() if shard in w.shards]
            waiters = [self._waiters.pop(req) for req in doomed]
        # Unroute the shard's sensors before anyone learns of the death, so
        # a caller woken below cannot submit into the dead ring.
        with self._map_lock:
            for sensor_id, assigned in self._shard_map.items():
                if assigned == shard:
                    self._routes.pop(sensor_id, None)
        for waiter in waiters:
            waiter.payload = ShardDown(f"shard {shard} worker is down: {reason}")
            waiter.done.set()

    def _check_up(self, shard: int) -> None:
        if shard in self._down:
            raise ShardDown(f"shard {shard} worker is down")

    def _resolve(self, req_id: int, payload) -> None:
        with self._waiters_lock:
            waiter = self._waiters.pop(req_id, None)
        if waiter is not None:
            waiter.payload = payload
            waiter.done.set()

    def _new_waiter(self, *shards: int) -> "tuple[int, _Waiter]":
        """Register a request on ``shards``; :class:`ShardDown` if one is down."""
        req_id = next(self._next_req)
        waiter = _Waiter(shards)
        with self._waiters_lock:
            for shard in shards:
                self._check_up(shard)
            self._waiters[req_id] = waiter
        return req_id, waiter

    def _await(self, req_id: int, waiter: _Waiter, timeout: Optional[float], what: str):
        if not waiter.done.wait(timeout):
            with self._waiters_lock:
                self._waiters.pop(req_id, None)
            raise TimeoutError(f"timed out waiting for {what}")
        if isinstance(waiter.payload, ShardDown):
            raise waiter.payload
        return waiter.payload

    def _send_command(self, shard: int, command: str) -> "tuple[int, _Waiter]":
        """Send one request to a shard worker; its reply resolves the waiter."""
        req_id, waiter = self._new_waiter(shard)
        self._cmd_tx[shard].send((command, req_id))
        return req_id, waiter

    # -- sensor management ---------------------------------------------------------------

    def register(
        self,
        sensor_id: str,
        config: Optional[EbbiotConfig] = None,
        on_frames: Optional[FramesCallback] = None,
        shard: Optional[int] = None,
    ) -> None:
        """Create the worker-side session for a new sensor (hub must be started).

        ``shard`` overrides the hash placement (used by tests and by
        restore-after-rebalance paths); the assignment may later change if
        a rebalance policy is active.  The session lives in its shard's
        worker and is not returned.
        """
        self._require_started()
        if shard is not None and not 0 <= shard < self.config.num_workers:
            raise ValueError(
                f"shard must be in [0, {self.config.num_workers}), got {shard}"
            )
        with self._map_lock:
            if sensor_id in self._shard_map:
                raise ValueError(f"sensor {sensor_id!r} is already registered")
            assigned = shard if shard is not None else self._hash_shard(sensor_id)
            self._check_up(assigned)
            idx = next(self._next_idx)
            self._shard_map[sensor_id] = assigned
            self._callbacks[sensor_id] = on_frames
            self._routes[sensor_id] = self._make_route(sensor_id, assigned, idx)
        payload = pickle.dumps(
            {
                "sensor_idx": idx,
                "sensor_id": sensor_id,
                "pipeline_config": config,
                "want_frames": on_frames is not None,
            }
        )
        try:
            with self._ring_locks[assigned]:
                self._rings[assigned].put(KIND_REGISTER, idx, payload, timeout=30.0)
        except Exception:
            # No worker holds a session for the id: free it for a retry.
            self.remove_sensor(sensor_id)
            raise
        tracker = (config or self.config.pipeline_config).tracker
        self.telemetry.sensor(sensor_id).set_tracker(tracker)

    def _make_route(self, sensor_id: str, shard: int, idx: int) -> tuple:
        """Build the submit fast-path tuple for one sensor placement.

        The countdown is a one-item list that concurrent submitters
        decrement without a lock — races only jitter *when* the approximate
        queue-depth gauge refreshes; the first accepted batch publishes one.
        """
        return (
            shard,
            idx,
            self.telemetry.sensor(sensor_id),
            self._ring_locks[shard],
            self._rings[shard],
            [1],
        )

    def remove_sensor(self, sensor_id: str) -> None:
        """Forget a sensor so its id can be reused (e.g. on reconnect).

        Call after :meth:`close_sensor`; telemetry and the closed summary
        are retained.  Servers call this on connection teardown.
        """
        with self._map_lock:
            self._shard_map.pop(sensor_id, None)
            self._callbacks.pop(sensor_id, None)
            self._routes.pop(sensor_id, None)

    def _hash_shard(self, sensor_id: str) -> int:
        return zlib.crc32(sensor_id.encode("utf-8")) % self.config.num_workers

    def shard_of(self, sensor_id: str) -> int:
        """The shard a sensor is currently assigned to.

        For a registered sensor this reflects migrations; for an unknown id
        it is the stable hash placement the sensor would initially get.
        """
        with self._map_lock:
            assigned = self._shard_map.get(sensor_id)
        if assigned is not None:
            return assigned
        return self._hash_shard(sensor_id)

    # -- ingestion -----------------------------------------------------------------------

    def submit(self, sensor_id: str, events: np.ndarray) -> bool:
        """Enqueue one event batch for a sensor.

        Returns ``True`` if the batch was accepted, ``False`` if it was shed
        by the ``"drop"`` backpressure policy (counted in telemetry).
        Raises :class:`~repro.serving.protocol.ProtocolError` for a batch
        that can never fit one ring record.
        """
        return self._submit(
            sensor_id, events, blocking=self.config.backpressure == "block"
        )

    def try_submit(self, sensor_id: str, events: np.ndarray) -> bool:
        """Non-blocking :meth:`submit` regardless of the backpressure policy.

        The asyncio front door uses this: an event-loop thread must never
        park on a full shard ring, so it attempts the enqueue and applies
        its own asynchronous backoff when this returns ``False``.  Unlike a
        ``"drop"``-policy :meth:`submit`, a refused batch is *not* counted
        as dropped — the caller still owns it and may retry.
        """
        return self._submit(sensor_id, events, blocking=False, count_refusals=False)

    def _lock_route(self, sensor_id: str) -> tuple:
        """The sensor's route, with its ring lock held, racing flips safely.

        A migration replaces the route tuple while holding both ring locks,
        so re-checking identity after acquiring the ring lock guarantees no
        record is enqueued on the source ring behind its ``MIGRATE_OUT``.
        """
        route = self._routes.get(sensor_id)
        while True:
            if route is None:
                raise self._unroutable(sensor_id)
            route[3].acquire()
            current = self._routes.get(sensor_id)
            if current is route:
                return route
            route[3].release()
            route = current

    def _unroutable(self, sensor_id: str) -> Exception:
        """Why a sensor has no route: it is unknown, or its shard is down."""
        with self._map_lock:
            shard = self._shard_map.get(sensor_id)
        if shard is not None and shard in self._down:
            return ShardDown(f"sensor {sensor_id!r} is on shard {shard}, whose worker is down")
        return KeyError(f"sensor {sensor_id!r} is not registered")

    def _submit(
        self,
        sensor_id: str,
        events: np.ndarray,
        blocking: bool,
        count_refusals: bool = True,
    ) -> bool:
        if not self._started:
            raise RuntimeError("hub is not started")
        events = normalize_packet(events)
        payload = events.tobytes()
        if len(payload) > self._max_payload:
            raise ProtocolError(
                f"a batch of {len(events)} events can never fit one record of the "
                f"{self.config.ring_capacity_bytes}-byte shard ring; send smaller batches"
            )
        _, idx, record, lock, ring, countdown = self._lock_route(sensor_id)
        try:
            if blocking:
                ring.put(KIND_EVENTS, idx, payload, timeout=None)
            elif not ring.try_put(KIND_EVENTS, idx, payload):
                if count_refusals:
                    record.record_drop(len(events))
                return False
        finally:
            lock.release()
        record.record_batch(len(events))
        countdown[0] -= 1
        if countdown[0] <= 0:
            countdown[0] = _DEPTH_GAUGE_STRIDE
            record.set_queue_depth(ring.depth())
        if self.config.rebalance is not None:
            self._submits_until_rebalance -= 1
            if self._submits_until_rebalance <= 0:
                self._submits_until_rebalance = self.config.rebalance_check_every
                # Signal the rebalancer thread rather than evaluating here:
                # a migration blocks on the worker hand-off, and submit may
                # run on threads that must not stall (the asyncio front
                # door's event loop).
                self._rebalance_wake.set()
        return True

    def close_sensor(
        self, sensor_id: str, timeout: Optional[float] = None
    ) -> RecordingResult:
        """Flush a sensor in ring order and return its summary.

        The close marker queues *behind* every batch submitted before this
        call; the worker flushes them, finishes the session, ships any
        remaining frames to the sensor's callback, and replies with the
        :class:`~repro.runtime.aggregate.RecordingResult`.  Closing twice
        returns the same summary without counting the sensor twice in
        :meth:`batch_result`.
        """
        self._require_started()
        shard, idx, _, lock, ring, _ = self._lock_route(sensor_id)
        try:
            req_id, waiter = self._new_waiter(shard)
            ring.put(KIND_CLOSE, idx, pickle.dumps((req_id,)), timeout=timeout)
        finally:
            lock.release()
        message = self._await(req_id, waiter, timeout, f"close of {sensor_id!r}")
        _, _, summary, already_finished, error = message
        if error is not None:
            raise RuntimeError(f"closing sensor {sensor_id!r} failed: {error}")
        if not already_finished:
            with self._map_lock:
                self._closed_results.append(summary)
        return summary

    # -- migration / rebalance -----------------------------------------------------------

    def migrate_sensor(
        self, sensor_id: str, target_shard: int, timeout: Optional[float] = 60.0
    ) -> bool:
        """Move a live sensor to another shard (drain → snapshot → restore).

        Both ring locks are held while the route flips and the two markers
        are enqueued, and every submit/close re-checks the route under its
        ring lock, so each of the sensor's records either precedes
        ``MIGRATE_OUT`` on the source ring or follows ``MIGRATE_IN`` on the
        target ring.  The source worker exports the session at its marker,
        the pump forwards the envelope, and the target worker restores it
        at its barrier: output is byte-identical to an unmigrated run, even
        with submits racing the move.  Returns ``False`` if the sensor was
        already on ``target_shard``.
        """
        self._require_started()
        if not 0 <= target_shard < self.config.num_workers:
            raise ValueError(
                f"target_shard must be in [0, {self.config.num_workers}), "
                f"got {target_shard}"
            )
        while True:
            route = self._routes.get(sensor_id)
            if route is None:
                raise self._unroutable(sensor_id)
            source, idx = route[0], route[1]
            if source == target_shard:
                return False
            first, second = sorted((source, target_shard))
            with self._ring_locks[first], self._ring_locks[second]:
                with self._map_lock:
                    if self._routes.get(sensor_id) is not route:
                        continue  # lost a race with another migration; retry
                    mig_id, waiter = self._new_waiter(source, target_shard)
                    self._pending_migrations[mig_id] = target_shard
                    want_frames = self._callbacks.get(sensor_id) is not None
                    self._shard_map[sensor_id] = target_shard
                    self._routes[sensor_id] = self._make_route(
                        sensor_id, target_shard, idx
                    )
                try:
                    self._rings[source].put(
                        KIND_MIGRATE_OUT, idx, pickle.dumps((mig_id,)), timeout=timeout
                    )
                    self._rings[target_shard].put(
                        KIND_MIGRATE_IN,
                        idx,
                        pickle.dumps((mig_id, sensor_id, want_frames)),
                        timeout=timeout,
                    )
                except (RingFull, ShardDown):
                    with self._map_lock:
                        self._shard_map[sensor_id] = source
                        self._routes[sensor_id] = self._make_route(
                            sensor_id, source, idx
                        )
                        self._pending_migrations.pop(mig_id, None)
                    raise
            break
        try:
            message = self._await(
                mig_id, waiter, timeout, f"migration of {sensor_id!r}"
            )
        finally:
            with self._map_lock:
                self._pending_migrations.pop(mig_id, None)
        error = message[2]
        if error is not None:
            raise RuntimeError(f"migrating sensor {sensor_id!r} failed: {error}")
        with self._map_lock:
            self._migrations += 1
        return True

    def shard_stats(self) -> List[ShardStats]:
        """Per-shard load: sensor count, ring depth, worker busy fraction.

        The busy fraction is cumulative time the shard's worker spent
        handling records divided by the hub's uptime — the long-run
        utilisation the ``repro_shard_busy_fraction`` gauge exports.  A
        dead shard reports zero depth and busy time and ``worker_up=False``
        (its ring is never touched again).
        """
        uptime = time.perf_counter() - self._started_at if self._started_at else 0.0
        with self._map_lock:
            per_shard = [0] * self.config.num_workers
            for shard in self._shard_map.values():
                per_shard[shard] += 1
        stats = []
        for shard in range(self.config.num_workers):
            up = self._started and shard not in self._down
            depth, busy = 0, 0.0
            if up:
                ring = self._rings[shard]
                try:
                    depth, busy = ring.depth(), ring.busy_seconds()
                except ShardDown:  # the worker died since the check above
                    up = False
            stats.append(
                ShardStats(
                    shard=shard,
                    num_sensors=per_shard[shard],
                    queue_depth=depth,
                    busy_fraction=min(1.0, busy / uptime) if uptime > 0 else 0.0,
                    worker_up=up,
                )
            )
        return stats

    def sensor_shards(self) -> Dict[str, int]:
        """Snapshot of the current sensor → shard assignment."""
        with self._map_lock:
            return dict(self._shard_map)

    @property
    def migrations_performed(self) -> int:
        """Completed sensor migrations (manual and rebalancer-initiated)."""
        return self._migrations

    def _rebalance_loop(self) -> None:
        """Dedicated rebalancer thread: evaluates off the submit path.

        Submits only set an Event, so a migration's hand-off wait is paid
        here, never by a submitter (such as the asyncio event loop).
        """
        while True:
            self._rebalance_wake.wait()
            self._rebalance_wake.clear()
            if self._rebalance_stopping:
                return
            try:
                self.maybe_rebalance()
            except Exception:  # pragma: no cover - defensive
                logger.exception("rebalance pass failed")

    def maybe_rebalance(self) -> List[Move]:
        """Apply the configured rebalance policy once; returns moves made.

        Safe to call from any thread; concurrent calls coalesce (only one
        evaluates, the rest return immediately with no moves).  Dead shards
        take no part in the plan.
        """
        policy = self.config.rebalance
        if policy is None:
            return []
        if not self._rebalance_lock.acquire(blocking=False):
            return []
        try:
            live = [stat for stat in self.shard_stats() if stat.worker_up]
            moves = plan_rebalance(live, self.sensor_shards(), policy)
            performed = []
            for move in moves:
                try:
                    if self.migrate_sensor(move.sensor_id, move.target):
                        performed.append(move)
                except (KeyError, ShardDown):
                    continue  # sensor removed or a shard died since the plan
            return performed
        finally:
            self._rebalance_lock.release()

    def batch_result(self) -> BatchResult:
        """Fleet summary over all sensors closed so far.

        Recordings are sorted by sensor id so the fleet table is
        deterministic regardless of which sensor finished first.
        """
        wall = time.perf_counter() - self._started_at if self._started_at else 0.0
        with self._map_lock:
            results = sorted(self._closed_results, key=lambda r: r.name)
        return BatchResult(recordings=results, wall_time_s=wall)

    # -- shard control and observability -------------------------------------------------

    def pause_shard(self, shard: int) -> None:
        """Stop a shard's worker draining its ring, once it acknowledges.

        The worker keeps answering commands while batches accumulate in its
        ring until :meth:`resume_shard` — a deterministic way to fill a
        ring for overload tests and fault injection.
        """
        self._await(*self._send_command(shard, "pause"), 10.0, f"pause of shard {shard}")

    def resume_shard(self, shard: int) -> None:
        """Undo :meth:`pause_shard` (acknowledged)."""
        self._await(*self._send_command(shard, "resume"), 10.0, f"resume of shard {shard}")

    def _collect(self, command: str, timeout: float = 10.0) -> List[tuple]:
        """One request/response round trip with every live shard worker."""
        pending = []
        for shard in range(self.config.num_workers):
            try:
                pending.append((*self._send_command(shard, command), shard))
            except (ShardDown, OSError):
                continue
        replies = []
        for req_id, waiter, shard in pending:
            try:
                message = self._await(
                    req_id, waiter, timeout, f"{command} from shard {shard}"
                )
            except (TimeoutError, ShardDown):
                continue
            replies.append((shard, message[2]))
        return replies

    def merged_metrics(self) -> MetricsRegistry:
        """Hub + all worker registries merged into one fresh registry.

        Counters add, gauges take the last writer, histogram buckets and
        windows concatenate — the exposition equals what one shared
        registry would have recorded.
        """
        merged = MetricsRegistry()
        merged.merge_state(self.telemetry.metrics.state_dict())
        if self._started:
            for _, state in self._collect("metrics"):
                merged.merge_state(state)
        return merged

    def telemetry_dict(self) -> dict:
        """JSON telemetry snapshot over the merged hub + worker registries.

        :attr:`telemetry` alone holds only the ingest-side counters, and a
        stopped hub's workers take theirs with them: scrape while running.
        """
        registry = TelemetryRegistry(metrics=self.merged_metrics())
        for sensor_id, ingest in self.telemetry.to_dict()["sensors"].items():
            registry.sensor(sensor_id).set_tracker(ingest["tracker"])
        return registry.to_dict()

    def metrics_text(self) -> str:
        """Prometheus exposition of the merged hub + worker registries.

        What the protocol's ``metrics`` command returns; the per-shard
        gauges are refreshed on every call, so a scrape sees current ring
        depths and which workers are up.
        """
        merged = self.merged_metrics()
        if self._started:
            TelemetryRegistry(metrics=merged).set_shard_stats(self.shard_stats())
        return merged.to_prometheus_text()

    def chrome_trace(self) -> Optional[dict]:
        """Merged Chrome trace of all shard workers (``None`` uninstrumented).

        Each worker gets its own ``tracking-shard-N`` track; worker tracer
        buffers are bounded.
        """
        if not self.config.instrument or not self._started:
            return None
        from repro.obs.trace import merge_chrome_traces

        tracks = [
            (f"tracking-shard-{shard}", events)
            for shard, events in self._collect("trace")
            if events is not None
        ]
        return merge_chrome_traces(tracks)

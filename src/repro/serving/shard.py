"""The shard worker: sessions + coalesced ingest behind a ring.

One worker owns every :class:`~repro.serving.session.SensorSession`
assigned to its shard.  It is the only worker loop of the serving layer:
:class:`~repro.serving.hub.TrackingHub` runs it on a thread and
:class:`~repro.serving.process_hub.ProcessTrackingHub` in a forked process,
over the same ring and pipes.  Its life is a single loop:

1. **bulk-drain** the shard's transport ring (all records currently
   available, bounded per cycle so command polls interleave);
2. walk the records *in order*, grouping each sensor's event batches and
   flushing each group as one joined packet through
   :meth:`~repro.serving.session.SensorSession.ingest` — the coalescing
   that amortises per-batch framing overhead under backlog;
3. answer out-of-band commands (metric scrapes, trace dumps, migration
   envelopes, pause/resume) from the hub's command pipe.

Control records that must stay ordered with a sensor's event stream —
register, close, migrate-out, migrate-in — travel **in-band** through the
ring; a sensor's pending event group is always flushed before its control
record is handled, so the worker observes exactly the submit order.

The worker keeps its own :class:`~repro.serving.telemetry.TelemetryRegistry`
for the processing-side counters (frames, tracks, latency, late events);
the hub owns the ingest-side ones (batches/events received, drops, queue
depth) and merges both on scrape via
:meth:`~repro.obs.MetricsRegistry.merge_state`.  Requests on the command
pipe are answered on the result pipe as ``(command, req_id, payload)``.
The module has no public API for direct use.
"""

from __future__ import annotations

import pickle
import time
from typing import Dict, List

import numpy as np

from repro.events.types import EVENT_DTYPE
from repro.serving.session import SensorSession
from repro.serving.telemetry import TelemetryRegistry
from repro.serving.transport import (
    KIND_CLOSE,
    KIND_EVENTS,
    KIND_MIGRATE_IN,
    KIND_MIGRATE_OUT,
    KIND_REGISTER,
    KIND_STOP,
    Record,
)

#: Upper bound on records taken per drain cycle, so a storming producer
#: cannot starve command handling (scrapes, migration envelopes).
MAX_RECORDS_PER_CYCLE = 4096

#: How long an idle worker parks on the command pipe before re-checking the
#: ring.  Small enough to keep worst-case idle-to-ingest latency well under
#: a frame window, large enough not to busy-spin.
IDLE_POLL_S = 0.002


class _Sensor:
    """One sensor's session and bookkeeping inside a shard worker.

    A close drops the session and keeps only its summary, which a repeated
    close returns: a long-running worker holds no dead sessions.
    """

    __slots__ = ("sensor_id", "session", "want_frames", "record", "last_late", "summary")

    def __init__(self, sensor_id: str, session: SensorSession, want_frames: bool,
                 record) -> None:
        self.sensor_id = sensor_id
        self.session = session  # None once closed
        self.want_frames = want_frames
        self.record = record  # the worker-side SensorTelemetry
        self.last_late = session.late_events
        self.summary = None  # the RecordingResult, once closed


class _ShardWorker:
    def __init__(self, shard_id, ring, cmd_rx, result_tx, config) -> None:
        self.shard_id = shard_id
        self.ring = ring
        self.cmd_rx = cmd_rx
        self.result_tx = result_tx
        self.config = config
        self.telemetry = TelemetryRegistry()
        self.tracer = None
        if config.instrument:
            from repro.obs import Tracer

            self.tracer = Tracer()
        self.sensors: Dict[int, _Sensor] = {}  # by the hub's sensor index
        self.envelopes: Dict[int, object] = {}
        self.running = True
        self.paused = False

    # -- helpers -------------------------------------------------------------------------

    def send(self, message: tuple) -> None:
        try:
            self.result_tx.send(message)
        except (BrokenPipeError, OSError):
            self.running = False

    def adopt(self, sensor_idx: int, sensor_id: str, session, want_frames) -> None:
        self.sensors[sensor_idx] = _Sensor(
            sensor_id, session, want_frames, self.telemetry.sensor(sensor_id)
        )

    def build_session(self, sensor_id: str, config) -> SensorSession:
        instrumentation = None
        if self.config.instrument:
            from repro.obs import Instrumentation

            instrumentation = Instrumentation(
                tracer=self.tracer,
                metrics=self.telemetry.metrics,
                labels={"sensor": sensor_id},
                sample_every=self.config.trace_sample_every,
            )
        return SensorSession(
            sensor_id,
            config=config or self.config.pipeline_config,
            reorder_slack_us=self.config.reorder_slack_us,
            instrumentation=instrumentation,
        )

    # -- event flushing ------------------------------------------------------------------

    def flush_events(self, sensor_idx: int, group: List[Record]) -> None:
        sensor = self.sensors.get(sensor_idx)
        # One byte join + one frombuffer for the whole coalesced group:
        # identical to np.concatenate of per-record decodes (raw
        # EVENT_DTYPE bytes are contiguous records), without paying numpy's
        # per-call overhead on every tiny batch.
        if len(group) == 1:
            raw = group[0].payload
        else:
            raw = b"".join(rec.payload for rec in group)
        packet = np.frombuffer(raw, dtype=EVENT_DTYPE)
        if sensor is None:
            self.telemetry.sensor(f"?{sensor_idx}").record_drop(len(packet))
            return
        session, record = sensor.session, sensor.record
        if session is None:  # closed
            record.record_drop(len(packet))
            return
        try:
            frames = session.ingest(packet)
        except Exception:
            # A poisoned group must not take down the shard's other
            # sensors; it is counted as one dropped batch.
            record.record_drop(len(packet))
            return
        late = session.late_events
        if frames or late != sensor.last_late:
            # Latency from the *earliest* enqueue in the group: the honest
            # (worst-case) figure when a backlog is coalesced.
            latency = time.perf_counter() - min(rec.enqueued_at for rec in group)
            record.record_frames(
                num_frames=len(frames),
                num_tracks=sum(len(f.tracks) for f in frames),
                latency_s=latency,
                late_events=late,
            )
            sensor.last_late = late
            if frames and sensor.want_frames:
                self.send(("frames", sensor.sensor_id, frames))

    # -- control records -----------------------------------------------------------------

    def handle_control(self, rec: Record) -> None:
        if rec.kind == KIND_REGISTER:
            info = pickle.loads(rec.payload)
            session = self.build_session(info["sensor_id"], info["pipeline_config"])
            self.adopt(info["sensor_idx"], info["sensor_id"], session, info["want_frames"])
        elif rec.kind == KIND_CLOSE:
            req_id, = pickle.loads(rec.payload)
            self.handle_close(rec.sensor_idx, req_id)
        elif rec.kind == KIND_MIGRATE_OUT:
            mig_id, = pickle.loads(rec.payload)
            self.handle_migrate_out(rec.sensor_idx, mig_id)
        elif rec.kind == KIND_MIGRATE_IN:
            mig_id, sensor_id, want_frames = pickle.loads(rec.payload)
            self.handle_migrate_in(rec.sensor_idx, mig_id, sensor_id, want_frames)
        elif rec.kind == KIND_STOP:
            self.running = False

    def handle_close(self, sensor_idx: int, req_id: int) -> None:
        sensor = self.sensors.get(sensor_idx)
        if sensor is None:
            self.send(("closed", req_id, None, True,
                       f"sensor index {sensor_idx} unknown to shard {self.shard_id}"))
            return
        session = sensor.session
        if session is None:
            self.send(("closed", req_id, sensor.summary, True, None))
            return
        started = time.perf_counter()
        try:
            frames = session.finish()
        except Exception as error:
            self.send(("closed", req_id, None, False, repr(error)))
            return
        sensor.record.record_frames(
            num_frames=len(frames),
            num_tracks=sum(len(f.tracks) for f in frames),
            latency_s=time.perf_counter() - started,
            late_events=session.late_events,
        )
        if frames and sensor.want_frames:
            self.send(("frames", sensor.sensor_id, frames))
        sensor.summary = session.summary()
        sensor.session = None
        self.send(("closed", req_id, sensor.summary, False, None))

    def handle_migrate_out(self, sensor_idx: int, mig_id: int) -> None:
        sensor = self.sensors.get(sensor_idx)
        if sensor is None:
            self.send(("migrated", mig_id, None,
                       f"sensor index {sensor_idx} unknown to shard {self.shard_id}"))
            return
        if sensor.session is None:
            self.send(("migrated", mig_id, None,
                       f"sensor {sensor.sensor_id!r} is closed; nothing to migrate"))
            return
        try:
            envelope = sensor.session.export_migration()
        except Exception as error:
            # Export failed: keep the session in place so the shard stays
            # consistent, and let the hub surface the error.
            self.send(("migrated", mig_id, None, repr(error)))
            return
        del self.sensors[sensor_idx]
        self.send(("migrated", mig_id, envelope, None))

    def handle_migrate_in(
        self, sensor_idx: int, mig_id: int, sensor_id: str, want_frames: bool
    ) -> None:
        """The barrier half: block until the envelope arrives, then restore.

        Batches behind this record in the ring wait here, so per-sensor
        order holds across the hand-off.  The wait services other commands
        (a scrape cannot deadlock a migration) and is bounded.
        """
        deadline = time.perf_counter() + 60.0
        while mig_id not in self.envelopes and self.running:
            if time.perf_counter() >= deadline:
                self.send(("migrate_done", mig_id,
                           f"timed out waiting for envelope {mig_id}"))
                return
            self.poll_commands(timeout=0.01)
        envelope = self.envelopes.pop(mig_id, None)
        if envelope is None:
            return
        try:
            session = self.build_session(sensor_id, envelope.pipeline_config)
            session.restore_migration(envelope)
        except Exception as error:
            self.send(("migrate_done", mig_id, repr(error)))
            return
        self.adopt(sensor_idx, sensor_id, session, want_frames)
        self.send(("migrate_done", mig_id, None))

    # -- command pipe --------------------------------------------------------------------

    def poll_commands(self, timeout: float = 0.0) -> None:
        try:
            while self.cmd_rx.poll(timeout):
                timeout = 0.0
                command = self.cmd_rx.recv()
                kind = command[0]
                if kind == "metrics":
                    self.send((kind, command[1], self.telemetry.metrics.state_dict()))
                elif kind == "trace":
                    events = self.tracer.events() if self.tracer else None
                    self.send((kind, command[1], events))
                elif kind in ("pause", "resume"):
                    self.paused = kind == "pause"
                    self.send((kind, command[1], None))
                elif kind == "envelope":
                    self.envelopes[command[1]] = command[2]
                elif kind == "abort":
                    # Failed migrate-out: release the MIGRATE_IN barrier
                    # without restoring anything.
                    self.envelopes[command[1]] = None
                elif kind == "stop":
                    self.running = False
        except (EOFError, OSError):
            self.running = False

    # -- main loop -----------------------------------------------------------------------

    def run(self) -> None:
        while self.running:
            # A paused worker keeps serving commands but leaves its ring
            # alone, so the ring fills deterministically.
            records = [] if self.paused else self.ring.get_available(
                max_records=MAX_RECORDS_PER_CYCLE
            )
            if not records:
                self.poll_commands(timeout=IDLE_POLL_S)
                continue
            started = time.perf_counter()
            # Group each sensor's event batches across the whole drain
            # cycle (one ingest per sensor per cycle).  Only
            # *per-sensor* order matters, so interleaved sensors coalesce
            # just as well as back-to-back runs; a sensor's own control
            # record still flushes its pending group first, and a STOP
            # flushes everyone (dict preserves first-seen order).
            pending: Dict[int, List[Record]] = {}
            for rec in records:
                if rec.kind == KIND_EVENTS:
                    group = pending.get(rec.sensor_idx)
                    if group is None:
                        pending[rec.sensor_idx] = [rec]
                    else:
                        group.append(rec)
                else:
                    if rec.kind == KIND_STOP:
                        for idx, group in pending.items():
                            self.flush_events(idx, group)
                        pending.clear()
                    else:
                        group = pending.pop(rec.sensor_idx, None)
                        if group is not None:
                            self.flush_events(rec.sensor_idx, group)
                    self.handle_control(rec)
                    if not self.running:
                        break
            if self.running:
                for idx, group in pending.items():
                    self.flush_events(idx, group)
            self.ring.add_busy(time.perf_counter() - started)
            self.poll_commands(timeout=0.0)
        self.send(("stopped", self.shard_id))


def shard_worker_main(shard_id, ring, cmd_rx, result_tx, config) -> None:
    """Entry point of one shard worker (thread target or forked process)."""
    worker = _ShardWorker(shard_id, ring, cmd_rx, result_tx, config)
    try:
        worker.run()
    except Exception as error:  # last-resort: tell the hub why we died
        worker.send(("fatal", shard_id, repr(error)))
    finally:
        # Closing our ends is what the hub's pump sees as EOF.
        result_tx.close()
        cmd_rx.close()

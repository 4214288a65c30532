"""Telemetry for the live serving layer, built on :mod:`repro.obs`.

Every sensor session tracked by a :class:`~repro.serving.hub.TrackingHub`
gets one :class:`SensorTelemetry` record: ingestion counters (events,
batches, drops), output counters (frames, track observations), a queue-depth
gauge and the ``repro_sensor_frame_latency_seconds`` histogram of per-frame
latencies, whose bounded window of recent samples gives the JSON
percentiles.  The whole registry exports two ways:

* :meth:`TelemetryRegistry.to_dict` — the JSON document
  (``python -m repro.serving --telemetry-json``) an operator dashboard or
  ``loadgen`` reads; its shape is stable across releases;
* :meth:`TelemetryRegistry.to_prometheus_text` — the same state as
  Prometheus text exposition (``repro_sensor_*`` metric families labelled
  by ``sensor``), which is what the serving protocol's ``metrics`` command
  returns.

Since the cut-over to :mod:`repro.obs`, each counter/gauge/histogram here
is a labelled child in a shared :class:`~repro.obs.MetricsRegistry`, so
anything else that writes into the same registry (the hub's per-stage
instrumentation, for example) appears in the same exposition for free.

Counters are updated from submitting and worker threads and read from
control threads; each record additionally guards its multi-field updates
with its own lock, so a snapshot taken mid-``record_frames`` never shows a
frame counted without its latency sample.  The hub keeps one registry for
the ingest side and each shard worker one for the processing side; they
meet in :meth:`~repro.serving.hub.TrackingHub.merged_metrics`.
"""

from __future__ import annotations

import threading
from typing import Dict, Optional

from repro.obs.metrics import MetricsRegistry

#: Latency histogram buckets (seconds) sized for per-frame serving latency:
#: sub-millisecond ingest steps up to multi-second stalls.
LATENCY_BUCKETS = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
)


class SensorTelemetry:
    """Lock-guarded telemetry record of one live sensor.

    Each numeric field is a labelled child metric in ``metrics`` (a shared
    :class:`~repro.obs.MetricsRegistry`; a private one is created when the
    record is built standalone), read back through properties so existing
    callers still see plain ints.
    """

    def __init__(
        self, sensor_id: str, metrics: Optional[MetricsRegistry] = None
    ) -> None:
        self.sensor_id = sensor_id
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self.tracker: Optional[str] = None
        labels = {"sensor": sensor_id}

        def counter(name: str, help: str):
            return self.metrics.counter(name, help, labelnames=("sensor",)).labels(
                **labels
            )

        def gauge(name: str, help: str):
            return self.metrics.gauge(name, help, labelnames=("sensor",)).labels(
                **labels
            )

        self._events_received = counter(
            "repro_sensor_events_received_total", "Events accepted from the sensor."
        )
        self._batches_received = counter(
            "repro_sensor_batches_received_total",
            "Ingest batches accepted: one per hub submit, which for a TCP sensor "
            "is one coalesced run of events frames.",
        )
        self._frames_emitted = counter(
            "repro_sensor_frames_emitted_total", "Frame windows closed and processed."
        )
        self._track_observations = counter(
            "repro_sensor_track_observations_total", "Track boxes reported."
        )
        self._dropped_batches = counter(
            "repro_sensor_dropped_batches_total",
            "Batches shed by backpressure or poisoned: one per hub submit, which for "
            "a TCP sensor is one coalesced run of events frames.",
        )
        self._dropped_events = counter(
            "repro_sensor_dropped_events_total", "Events in dropped batches."
        )
        self._late_events = gauge(
            "repro_sensor_late_events",
            "Events dropped for arriving after their window closed.",
        )
        self._queue_depth = gauge(
            "repro_sensor_queue_depth", "In-flight batches on the sensor's shard."
        )
        self.frame_latency = self.metrics.histogram(
            "repro_sensor_frame_latency_seconds",
            "Enqueue-to-frame-completion latency per closed frame.",
            labelnames=("sensor",),
            buckets=LATENCY_BUCKETS,
        ).labels(**labels)

    # -- updates -------------------------------------------------------------------------

    def record_batch(self, num_events: int) -> None:
        """Count one accepted ingest batch."""
        with self._lock:
            self._batches_received.inc()
            self._events_received.inc(num_events)

    def record_drop(self, num_events: int) -> None:
        """Count one batch rejected by the backpressure policy."""
        with self._lock:
            self._dropped_batches.inc()
            self._dropped_events.inc(num_events)

    def record_frames(
        self, num_frames: int, num_tracks: int, latency_s: float, late_events: int
    ) -> None:
        """Count the frames closed by one ingest step.

        ``latency_s`` is the enqueue-to-frame-completion wall time; it is
        recorded once per closed frame so the percentiles weight frames, not
        batches.  ``late_events`` is the framer's *running total* (set, not
        added).
        """
        with self._lock:
            self._frames_emitted.inc(num_frames)
            self._track_observations.inc(num_tracks)
            self._late_events.set(late_events)
            for _ in range(num_frames):
                self.frame_latency.observe(latency_s)

    def set_queue_depth(self, depth: int) -> None:
        """Update the queue-depth gauge."""
        with self._lock:
            self._queue_depth.set(depth)

    def set_tracker(self, tracker: str) -> None:
        """Tag the sensor with its tracker backend (set at registration)."""
        with self._lock:
            self.tracker = tracker

    # -- reads ---------------------------------------------------------------------------

    @property
    def events_received(self) -> int:
        return int(self._events_received.value)

    @property
    def batches_received(self) -> int:
        return int(self._batches_received.value)

    @property
    def frames_emitted(self) -> int:
        return int(self._frames_emitted.value)

    @property
    def track_observations(self) -> int:
        return int(self._track_observations.value)

    @property
    def late_events(self) -> int:
        return int(self._late_events.value)

    @property
    def dropped_batches(self) -> int:
        return int(self._dropped_batches.value)

    @property
    def dropped_events(self) -> int:
        return int(self._dropped_events.value)

    @property
    def queue_depth(self) -> int:
        return int(self._queue_depth.value)

    def to_dict(self) -> dict:
        """JSON-serialisable snapshot (key set stable across releases).

        ``frame_latency`` holds the lifetime sample count and mean plus the
        p50/p95/p99 of the histogram's retained window, in milliseconds.
        """
        latency = self.frame_latency
        with self._lock:
            return {
                "sensor_id": self.sensor_id,
                "tracker": self.tracker,
                "events_received": self.events_received,
                "batches_received": self.batches_received,
                "frames_emitted": self.frames_emitted,
                "track_observations": self.track_observations,
                "late_events": self.late_events,
                "dropped_batches": self.dropped_batches,
                "dropped_events": self.dropped_events,
                "queue_depth": self.queue_depth,
                "frame_latency": {
                    "count": latency.count,
                    "mean_ms": latency.mean * 1e3,
                    "p50_ms": latency.percentile(50) * 1e3,
                    "p95_ms": latency.percentile(95) * 1e3,
                    "p99_ms": latency.percentile(99) * 1e3,
                },
            }


class TelemetryRegistry:
    """All sensors' telemetry, exportable as JSON or Prometheus text.

    Owns one shared :class:`~repro.obs.MetricsRegistry` (``metrics``) that
    every sensor record writes into; other producers — e.g. the hub's
    pipeline-stage instrumentation — can register their own families in it
    and appear in the same exposition.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = threading.Lock()
        self._sensors: Dict[str, SensorTelemetry] = {}
        self.metrics = metrics if metrics is not None else MetricsRegistry()

    def sensor(self, sensor_id: str) -> SensorTelemetry:
        """Get (or lazily create) the record of one sensor."""
        with self._lock:
            record = self._sensors.get(sensor_id)
            if record is None:
                record = SensorTelemetry(sensor_id, metrics=self.metrics)
                self._sensors[sensor_id] = record
            return record

    def get(self, sensor_id: str) -> Optional[SensorTelemetry]:
        """The record of one sensor, or ``None`` if never seen."""
        with self._lock:
            return self._sensors.get(sensor_id)

    def __len__(self) -> int:
        with self._lock:
            return len(self._sensors)

    def set_shard_stats(self, stats) -> None:
        """Refresh the per-shard gauges from a hub load sample.

        Exports ``repro_shard_queue_depth``, ``repro_shard_sensors`` and
        ``repro_shard_busy_fraction`` — so a scrape shows how evenly the
        hash placement spreads the load — plus ``repro_shard_worker_up``
        (1 while the shard's worker runs, 0 once it died), each labelled by
        ``shard``.  The hub calls this right before exposition.
        """
        depth = self.metrics.gauge(
            "repro_shard_queue_depth",
            "Batches queued on the shard awaiting processing",
            labelnames=("shard",),
        )
        sensors = self.metrics.gauge(
            "repro_shard_sensors",
            "Sensors currently assigned to the shard",
            labelnames=("shard",),
        )
        busy = self.metrics.gauge(
            "repro_shard_busy_fraction",
            "Fraction of hub uptime the shard worker spent processing",
            labelnames=("shard",),
        )
        up = self.metrics.gauge(
            "repro_shard_worker_up",
            "1 while the shard's worker runs, 0 once it died",
            labelnames=("shard",),
        )
        for stat in stats:
            label = str(stat.shard)
            depth.labels(shard=label).set(float(stat.queue_depth))
            sensors.labels(shard=label).set(float(stat.num_sensors))
            busy.labels(shard=label).set(stat.busy_fraction)
            up.labels(shard=label).set(1.0 if stat.worker_up else 0.0)

    def to_prometheus_text(self) -> str:
        """The whole registry in Prometheus text exposition format."""
        return self.metrics.to_prometheus_text()

    def to_dict(self) -> dict:
        """Snapshot of every sensor plus fleet totals."""
        with self._lock:
            sensors = {sid: rec.to_dict() for sid, rec in self._sensors.items()}
        totals = {
            "num_sensors": len(sensors),
            "events_received": sum(s["events_received"] for s in sensors.values()),
            "frames_emitted": sum(s["frames_emitted"] for s in sensors.values()),
            "track_observations": sum(
                s["track_observations"] for s in sensors.values()
            ),
            "late_events": sum(s["late_events"] for s in sensors.values()),
            "dropped_batches": sum(s["dropped_batches"] for s in sensors.values()),
            "dropped_events": sum(s["dropped_events"] for s in sensors.values()),
        }
        sensors_by_tracker: Dict[str, int] = {}
        for record in sensors.values():
            if record["tracker"] is not None:
                sensors_by_tracker[record["tracker"]] = (
                    sensors_by_tracker.get(record["tracker"], 0) + 1
                )
        totals["sensors_by_tracker"] = sensors_by_tracker
        return {"sensors": sensors, "totals": totals}

"""Live multi-sensor serving layer.

Where :mod:`repro.runtime` replays *complete* recordings, this package is
the deployment mode the paper assumes: stationary sensors streaming events
into IoVT infrastructure, tracked online.

* :mod:`repro.serving.framer` — :class:`OnlineFramer` closes 66 ms EBBI
  windows from a live batch feed, tolerating bounded out-of-order arrival.
* :mod:`repro.serving.session` — :class:`SensorSession` wraps one
  incremental :class:`~repro.core.pipeline.EbbiotPipeline` per sensor with
  running statistics and one checkpoint, the migration envelope.
* :mod:`repro.serving.hub` — :class:`TrackingHub`, the one hub
  implementation: shards sessions across worker loops
  (:mod:`repro.serving.shard`) fed by bounded rings with explicit
  backpressure, run on worker threads.  A sensor's shard is the stable
  hash of its id, and only an explicit ``migrate_sensor`` moves it.
* :mod:`repro.serving.process_hub` — :class:`ProcessTrackingHub`, the same
  hub with each worker loop in a forked *process*, sidestepping the GIL
  for CPU-bound fleets.
* :mod:`repro.serving.transport` — the shared-memory event ring
  (:class:`ShmRing`) feeding those workers, on either vehicle; a host
  without usable shared memory gets a clear error at hub start.
* :mod:`repro.serving.telemetry` — per-sensor event rates, frame latency
  percentiles, queue depth, per-shard load gauges and drop counts,
  exportable as JSON or Prometheus text exposition (built on
  :mod:`repro.obs`).
* :mod:`repro.serving.protocol` / ``aioserver`` / ``client`` — the TCP
  wire protocol (JSON control lines; ``events`` batches as a header line
  plus raw ``EVENT_DTYPE`` records): :class:`AsyncTrackingServer` is the
  front door, serving every connection on one asyncio event loop.
* ``python -m repro.serving`` — live demo / standalone server on either
  worker vehicle; ``python -m repro.serving.loadgen`` replays fleets at
  N x speed and reports throughput, tail latency and SLO verdicts.
"""

from repro.serving.aioserver import AsyncTrackingServer
from repro.serving.client import (
    SensorClient,
    fetch_trace,
    scrape_metrics,
    stream_recording,
)
from repro.serving.framer import ClosedWindow, OnlineFramer
from repro.serving.hub import BACKPRESSURE_POLICIES, HubConfig, ShardStats, TrackingHub
from repro.serving.process_hub import ProcessTrackingHub
from repro.serving.protocol import (
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    metrics_message,
    trace_message,
)
from repro.serving.session import SensorSession
from repro.serving.telemetry import SensorTelemetry, TelemetryRegistry
from repro.serving.transport import RingFull, ShmRing

#: Loadgen names are resolved lazily so ``python -m repro.serving.loadgen``
#: does not import the module twice (runpy would warn about the package
#: __init__ having already pulled it into ``sys.modules``).
_LOADGEN_EXPORTS = frozenset(
    {
        "HUB_KINDS",
        "make_hub",
        "split_batches",
        "load_recordings",
        "build_workload",
        "run_load",
        "check_slos",
    }
)


def __getattr__(name):
    if name in _LOADGEN_EXPORTS:
        from repro.serving import loadgen

        return getattr(loadgen, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "OnlineFramer",
    "ClosedWindow",
    "SensorSession",
    "TrackingHub",
    "ProcessTrackingHub",
    "HubConfig",
    "BACKPRESSURE_POLICIES",
    "HUB_KINDS",
    "make_hub",
    "split_batches",
    "load_recordings",
    "build_workload",
    "run_load",
    "check_slos",
    "ShmRing",
    "RingFull",
    "ShardStats",
    "TelemetryRegistry",
    "SensorTelemetry",
    "AsyncTrackingServer",
    "SensorClient",
    "stream_recording",
    "scrape_metrics",
    "fetch_trace",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "encode_message",
    "decode_message",
    "metrics_message",
    "trace_message",
]

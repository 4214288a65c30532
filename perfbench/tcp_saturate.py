"""``tcp_saturate``: two sensor connections, unpaced, over loopback TCP.

A single-threaded client process drives two connections to
``AsyncTrackingServer`` fronting a 2-shard ``ProcessTrackingHub`` under the
``block`` policy.  Each connection plays sessions back to back: ``hello``,
a whole rendered recording as JSONL ``events`` lines in 500 us batches,
``finish``, then the closing ``summary``.  The client sends unpaced but
keeps at most :data:`WINDOW_US` of sensor time in flight past the last
frame it got back, so the loop is closed by the replies.  Batches are
encoded at set-up with the repository's own protocol encoders, so the
client spends its time on the socket, not on JSON.

The server process is the bottleneck: it runs a full core (the front door
decodes every batch under one GIL) while each shard worker is busy about a
tenth of the time.  A run sets the whole stack up
:data:`common.SETUP_REPEATS` times and measures a round on each, cut into
spans of :data:`SPAN_S`:

* ``events_per_s`` -- events acknowledged by a ``frame`` push (or a
  closing summary) within a span, over the span; the median over spans;
* ``frame_latency_p50_ms``/``_p99_ms`` -- from when the batch that let a
  window close left the client to when that window's ``frame`` push
  arrived; percentiles of all spans' samples.

With TCP flow control alone closing the loop, latency was set by how far
the kernel had grown the server's receive buffer (up to megabytes on
loopback) and swung by half between runs; the window bounds it.

The host is shared and its speed drifts by tens of percent over seconds,
so the client takes a :func:`common.codec_probe` every
:data:`PROBE_EVERY_S` while it drives the load, and each span's timings
are scaled by the median probe within it.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import selectors
import socket
import statistics
import time
import zlib
from dataclasses import dataclass
from typing import List

import numpy as np

import repro.serving.aioserver as aioserver
from common import (
    FRAME_US,
    REFERENCE_CODEC_PROBE_S,
    SETUP_REPEATS,
    ShardSampler,
    Spans,
    batches_of,
    codec_probe,
    observation_from_dict,
    observation_key,
    percentile,
    render_sites,
    replay,
    score,
    scores_agree,
    scrape,
    tile,
    timed_setup,
)
from layers import model_vs_measured, stage_metrics
from repro.core.config import EbbiotConfig
from repro.serving import protocol
from repro.serving.aioserver import AsyncTrackingServer
from repro.serving.framer import OnlineFramer
from repro.serving.hub import HubConfig
from repro.serving.process_hub import ProcessTrackingHub

CONNECTIONS = 2
SHARDS = 2
BATCH_US = 500

#: Sensor time a connection may send past the end of the last frame it
#: received: four EBBI windows keep the server busy across the round trip.
WINDOW_US = 4 * FRAME_US

#: Seconds per span: each round's timed part is cut into spans, each scaled
#: by the host probes taken within it, and the rate is the median over all
#: spans of a run.  A probe spike over-corrects the span it falls in; the
#: median over many spans leaves it out.
SPAN_S = 1.25

#: Seconds between two :func:`common.codec_probe` samples in the client.
PROBE_EVERY_S = 0.1

#: Bytes offered to one ``send`` call.
SEND_CHUNK = 1 << 16

_FINISH = protocol.encode_message({"type": "finish"})


@dataclass
class Payload:
    """One site's session, encoded at set-up."""

    name: str
    blob: bytes  # every events line of the recording, in order
    ends: np.ndarray  # byte offset in ``blob`` just past each batch
    reach: np.ndarray  # largest event time sent up to each batch
    times: np.ndarray  # event times, to count the events a frame covers

    @property
    def events(self) -> int:
        return len(self.times)


def _encode(site) -> Payload:
    lines, ends, reach, total = [], [], [], 0
    for _, batch in batches_of(site, BATCH_US):
        line = protocol.encode_message(protocol.events_message(batch))
        lines.append(line)
        total += len(line)
        ends.append(total)
        reach.append(int(batch["t"][-1]))
    return Payload(
        name=site.name,
        blob=b"".join(lines),
        ends=np.asarray(ends, dtype=np.int64),
        reach=np.maximum.accumulate(np.asarray(reach, dtype=np.int64)),
        times=np.asarray(site.stream.events["t"], dtype=np.int64),
    )


def sensor_id(name: str, connection: int, serial: int) -> str:
    """A fresh sensor id that the hub's hash placement puts on shard ``connection``.

    One sensor per shard keeps placement, and so the work of each shard
    worker, the same in every session and every run.
    """
    suffix = 0
    while True:
        candidate = f"{name}#{connection}-{serial:04d}.{suffix}"
        if zlib.crc32(candidate.encode("utf-8")) % SHARDS == connection % SHARDS:
            return candidate
        suffix += 1


# -- client process ----------------------------------------------------------------------


class _Session:
    """One sensor session on its own connection (non-blocking socket)."""

    def __init__(self, address, connection: int, payload: Payload, name: str,
                 keep_tracks: bool):
        self.connection = connection
        self.payload = payload
        self.sensor_id = name
        self.keep_tracks = keep_tracks
        self.sock = socket.create_connection(address)
        self.sock.setblocking(False)
        hello = protocol.encode_message(protocol.hello_message(name))
        self.out = [memoryview(hello), memoryview(payload.blob), memoryview(_FINISH)]
        self.part = 0
        self.pos = 0
        self.limit = self._limit(0)
        self.sent_blob = 0
        self.send_log: List[tuple] = []  # (time, blob bytes sent so far)
        self.inbox = bytearray()
        self.frames: List[tuple] = []  # (receive time, t_end_us)
        self.tracks: list = []
        self.errors = 0
        self.summary = None
        self.ended = None
        self.dropped = False

    @property
    def done(self) -> bool:
        return self.summary is not None or self.dropped

    def _limit(self, acked_us: int) -> int:
        """Bytes of the events blob the window lets out after ``acked_us``."""
        batches = int(np.searchsorted(self.payload.reach, acked_us + WINDOW_US, side="right"))
        return int(self.payload.ends[batches - 1]) if batches else 0

    @property
    def wants_write(self) -> bool:
        """Whether there is data the window lets out now."""
        if self.done or self.part >= len(self.out):
            return False
        return self.part != 1 or self.pos < self.limit

    def on_writable(self) -> None:
        """Send what both the socket and the window take."""
        while self.wants_write:
            view = self.out[self.part]
            end = min(self.pos + SEND_CHUNK, self.limit if self.part == 1 else len(view))
            try:
                sent = self.sock.send(view[self.pos:end])
            except BlockingIOError:
                return
            except OSError:
                self.dropped = True
                return
            self.pos += sent
            if self.part == 1:
                self.sent_blob += sent
                self.send_log.append((time.perf_counter(), self.sent_blob))
            if self.pos == len(view):
                self.part += 1
                self.pos = 0

    def on_readable(self) -> None:
        try:
            data = self.sock.recv(1 << 18)
        except BlockingIOError:
            return
        except OSError:
            data = b""
        if not data:
            self.dropped = self.summary is None
            return
        now = time.perf_counter()
        self.inbox += data
        lines = self.inbox.split(b"\n")
        self.inbox = bytearray(lines.pop())
        for line in lines:
            message = json.loads(line)
            kind = message["type"]
            if kind == "frame":
                self.frames.append((now, message["t_end_us"]))
                self.limit = self._limit(message["t_end_us"])
                if self.keep_tracks:
                    self.tracks.extend(message["tracks"])
            elif kind == "summary":
                self.summary = message["recording"]
                self.ended = now
            elif kind == "error":
                self.errors += 1

    def latencies_ms(self, slack_us: int) -> List[tuple]:
        """``(receive time, latency ms)`` of every frame closed by a live batch."""
        if not self.send_log:
            return []
        times = np.array([t for t, _ in self.send_log])
        sent = np.array([n for _, n in self.send_log], dtype=np.int64)
        out = []
        for received, t_end in self.frames:
            closing = int(np.searchsorted(self.payload.reach, t_end + slack_us))
            if closing >= len(self.payload.ends):
                continue  # closed by the flush on finish
            left = times[int(np.searchsorted(sent, self.payload.ends[closing]))]
            out.append((received, (received - left) * 1e3))
        return out

    def acks(self) -> List[tuple]:
        """``(receive time, events acknowledged so far)`` of every reply.

        A frame push acknowledges every event before its window's end; the
        closing summary acknowledges them all.
        """
        out = [(received, int(np.searchsorted(self.payload.times, t_end)))
               for received, t_end in self.frames]
        if self.ended is not None:
            out.append((self.ended, self.payload.events))
        return out

    def report(self, slack_us: int) -> dict:
        return {
            "connection": self.connection,
            "sensor_id": self.sensor_id,
            "site": self.payload.name,
            "events": self.payload.events,
            "batches": len(self.payload.ends),
            "summary": self.summary,
            "frames_received": len(self.frames),
            "latencies_ms": self.latencies_ms(slack_us),
            "acks": self.acks(),
            "tracks": self.tracks,
            "errors": self.errors,
            "dropped": self.dropped,
        }


def _drive(address, payloads, start_session, keep_tracks, clock, serials, probes) -> None:
    """Run sessions on every connection until ``start_session`` says stop.

    ``serials`` numbers each connection's sessions across calls, so no
    sensor id is reused while the server may still be tearing down its
    previous holder.  Every :data:`PROBE_EVERY_S` a ``(time, seconds)``
    host probe is appended to ``probes``.
    """
    selector = selectors.DefaultSelector()

    def open_session(index):
        name = sensor_id(payloads[index].name, index, serials[index])
        serials[index] += 1
        session = _Session(address, index, payloads[index], name, keep_tracks)
        selector.register(session.sock, selectors.EVENT_READ | selectors.EVENT_WRITE,
                          (index, session))

    for index in range(len(payloads)):
        open_session(index)
    next_probe = time.perf_counter()
    while selector.get_map():
        if time.perf_counter() >= next_probe:
            probes.append((time.perf_counter(), codec_probe()))
            next_probe = time.perf_counter() + PROBE_EVERY_S
        for key, mask in selector.select(timeout=PROBE_EVERY_S):
            index, session = key.data
            if mask & selectors.EVENT_WRITE:
                started = time.perf_counter()
                session.on_writable()
                clock["send_s"] += time.perf_counter() - started
            if mask & selectors.EVENT_READ:
                started = time.perf_counter()
                session.on_readable()
                clock["recv_s"] += time.perf_counter() - started
            if not session.done:
                # Level-triggered: ask for write readiness only while the
                # window has something to send, or select would spin.
                events = selectors.EVENT_READ
                if session.wants_write:
                    events |= selectors.EVENT_WRITE
                if events != key.events:
                    selector.modify(session.sock, events, key.data)
            else:
                selector.unregister(session.sock)
                session.sock.close()
                if start_session(session, index):
                    open_session(index)
    selector.close()


def _client_main(pipe, payloads, seconds, slack_us) -> None:
    """Client process: one warm-up session per connection, then the timed round."""
    address = pipe.recv()
    if address is None:
        return
    clock = {"send_s": 0.0, "recv_s": 0.0}
    serials = [0] * len(payloads)
    warmup, timed, probes = [], [], []

    def once(session, index):
        warmup.append(session.report(slack_us))
        return False

    began = time.perf_counter()
    _drive(address, payloads, once, True, clock, serials, probes)
    started = time.perf_counter()
    deadline = started + seconds

    def again(session, index):
        timed.append(session.report(slack_us))
        return time.perf_counter() < deadline

    _drive(address, payloads, again, False, clock, serials, probes)
    pipe.send({"warmup": warmup, "timed": timed, "began": began, "started": started,
               "deadline": deadline, "ended": time.perf_counter(), "probes": probes,
               **clock})


# -- server side -------------------------------------------------------------------------


@dataclass
class Fixture:
    sites: list
    payloads: List[Payload]
    server: AsyncTrackingServer
    hub: ProcessTrackingHub
    client: multiprocessing.Process
    pipe: object
    hub_started: float

    def close(self) -> None:
        try:
            self.pipe.send(None)
        except (OSError, ValueError):
            pass
        self.client.join(timeout=30.0)
        if self.client.is_alive():
            self.client.terminate()
            self.client.join(timeout=10.0)
        self.server.stop()


def _build(seed: int, seconds: float, instrument: bool) -> Fixture:
    rng = np.random.default_rng(seed)
    sites = [tile(site, 1, rng) for site in render_sites(CONNECTIONS)]
    payloads = [_encode(site) for site in sites]
    hub = ProcessTrackingHub(HubConfig(num_workers=SHARDS, backpressure="block",
                                       instrument=instrument))
    # Fork the client while this process still has a single thread.
    context = multiprocessing.get_context("fork")
    parent_end, child_end = context.Pipe()
    client = context.Process(
        target=_client_main,
        args=(child_end, payloads, seconds, hub.config.reorder_slack_us),
        name="perfbench-client", daemon=True,
    )
    client.start()
    child_end.close()
    server = AsyncTrackingServer(hub=hub)
    hub_started = time.perf_counter()
    fixture = Fixture(sites, payloads, server, hub, client, parent_end, hub_started)
    try:
        server.start()
    except BaseException:
        fixture.close()
        raise
    return fixture


def _cpu_s() -> float:
    times = os.times()
    return times.user + times.system


def _measure(fixture: Fixture, seconds: float, sampler: ShardSampler = None):
    """Hand the client the address, wait for its report, then tear down.

    While waiting, this process samples its own CPU time (it hosts the
    server), so the report carries the server's CPU share of the timed span.
    """
    try:
        fixture.pipe.send(fixture.server.address)
        deadline = time.perf_counter() + seconds + 150.0
        cpu = []
        while not fixture.pipe.poll(0.05):
            cpu.append((time.perf_counter(), _cpu_s()))
            if sampler is not None:
                sampler.sample()
            if time.perf_counter() > deadline or not fixture.client.is_alive():
                raise RuntimeError("the client process did not report")
        report = fixture.pipe.recv()
        scraped = scrape(fixture.hub) if sampler is not None else None
    finally:
        fixture.close()
    report["spans"] = _spans(report)
    inside = [(t, c) for t, c in cpu if report["started"] <= t <= report["deadline"]]
    report["server_cpu_fraction"] = (
        (inside[-1][1] - inside[0][1]) / (inside[-1][0] - inside[0][0])
        if len(inside) > 1 else 0.0
    )
    return report, scraped


def _acked(session, when: float) -> int:
    """Events of a session acknowledged by ``when``."""
    done = [events for at, events in session["acks"] if at <= when]
    return done[-1] if done else 0


def _spans(report) -> List[dict]:
    """The round's timed part cut into spans of about :data:`SPAN_S`.

    Each span has its host slowdown (median probe within it over the
    reference), its rate (events acknowledged within it, per reference
    second) and the latencies of the frames it received, scaled likewise.
    """
    started, deadline = report["started"], report["deadline"]
    count = max(1, round((deadline - started) / SPAN_S))
    edges = np.linspace(started, deadline, count + 1)
    spans = []
    for begin, end in zip(edges[:-1], edges[1:]):
        probes = [s for t, s in report["probes"] if begin <= t < end]
        slowdown = statistics.median(probes) / REFERENCE_CODEC_PROBE_S
        acked = sum(_acked(s, end) - _acked(s, begin) for s in report["timed"])
        spans.append({
            "slowdown": slowdown,
            "rate": slowdown * acked / (end - begin),
            "latencies_ms": [ms / slowdown for s in report["timed"]
                             for at, ms in s["latencies_ms"] if begin <= at < end],
        })
    return spans


def _check(report, references) -> int:
    """Failed operations: errors, drops, shed frames and replay mismatches."""
    failed = 0
    expected = {
        name: (len(site.stream), ref.num_frames, ref.total_track_observations())
        for name, (site, ref) in references.items()
    }
    for session in report["warmup"] + report["timed"]:
        failed += session["errors"] + int(session["dropped"])
        summary = session["summary"]
        if summary is None:
            continue
        failed += summary["num_frames"] - session["frames_received"]
        live = (summary["num_events"], summary["num_frames"], summary["num_track_observations"])
        failed += int(live != expected[session["site"]])
    return failed


def _check_served(report, references) -> int:
    """Warm-up sessions whose served tracks differ from replay, or score wrong."""
    failed = 0
    for session in report["warmup"]:
        site, reference = references[session["site"]]
        served = [observation_from_dict(track) for track in session["tracks"]]
        expected = reference.track_history.observations
        if [observation_key(o) for o in served] != [observation_key(o) for o in expected]:
            failed += 1
        elif not scores_agree(score(served, site.ground_truth), served, site.ground_truth):
            failed += 1
    return failed


def _attempted(sessions) -> int:
    """Batches, finishes and frame pushes of the given sessions."""
    return sum(s["batches"] + 1 + (s["summary"] or {}).get("num_frames", 0) for s in sessions)


def run(seed: int, seconds: float, trace: bool) -> dict:
    round_s = seconds / SETUP_REPEATS
    reports, setup_raw, setup_scaled = [], [], []
    for _ in range(SETUP_REPEATS):
        fixture, raw, scaled = timed_setup(lambda: _build(seed, round_s, instrument=False))
        setup_raw.append(raw)
        setup_scaled.append(scaled)
        reports.append(_measure(fixture, round_s)[0])
    # Every round replays the same seeded sites.
    references = {site.name: (site, replay(site, EbbiotConfig())) for site in fixture.sites}
    failed = sum(_check(r, references) + _check_served(r, references) for r in reports)
    sessions = [s for r in reports for s in r["warmup"] + r["timed"]]
    attempted = _attempted(sessions)
    shed = sum((s["summary"] or {}).get("num_frames", 0) - s["frames_received"]
               for s in sessions)
    spans = [span for r in reports for span in r["spans"]]
    latencies = [ms for span in spans for ms in span["latencies_ms"]]
    bytes_per_event = sum(len(p.blob) for p in fixture.payloads) / sum(
        p.events for p in fixture.payloads)
    lines = [
        f"tcp_saturate: {CONNECTIONS} connections, {SHARDS} shards, {BATCH_US} us JSONL "
        f"batches, {bytes_per_event:.1f} B/event on the wire",
        f"  {len(reports)} rounds of {round_s:.2f} s, each on a fresh hub, server and "
        f"client after one warm-up session per connection, in {len(spans)} spans",
        "  span rates (events/s): " + ", ".join(f"{s['rate']:.0f}" for s in spans),
        "  span host slowdowns (timings are scaled to the reference host): "
        + ", ".join(f"{s['slowdown']:.2f}" for s in spans),
        "  server process CPU per wall second in each round: "
        + ", ".join(f"{r['server_cpu_fraction']:.3f}" for r in reports),
        f"  error replies {sum(s['errors'] for s in sessions)}, dropped connections "
        f"{sum(s['dropped'] for s in sessions)}, frames shed {shed}; "
        f"failed {failed} of {attempted}",
        f"  setup repeats (s): {', '.join(f'{s:.3f}' for s in setup_raw)}",
    ]
    result = {
        "attempted": attempted,
        "failed": failed,
        "lines": lines,
        "metrics": {
            "setup_s": statistics.median(setup_scaled),
            "events_per_s": statistics.median(s["rate"] for s in spans),
            "frame_latency_p50_ms": percentile(latencies, 50),
            "frame_latency_p99_ms": percentile(latencies, 99),
        },
        "samples": {"frame_latency": len(latencies)},
    }
    if trace:
        result["layers"] = _traced(seed, round_s, result, bytes_per_event, lines)
    return result


class _SubmitTrace:
    """Spans around ``hub.try_submit``, plus refusals and backoff.

    Under the ``block`` policy the front door only calls ``try_submit``.
    Backoff is the time from a refused call to its next attempt for the
    same sensor: the front door's sleep.
    """

    def __init__(self, spans: Spans, hub) -> None:
        self.spans = spans
        self.refusals = 0
        self.backoff_s = 0.0
        self._refused_at = {}
        self._try_submit = hub.try_submit
        hub.try_submit = self.try_submit

    def try_submit(self, sensor_id, events):
        refused_at = self._refused_at.pop(sensor_id, None)
        if refused_at is not None:
            self.backoff_s += time.perf_counter() - refused_at
        with self.spans.span("hub.try_submit"):
            accepted = self._try_submit(sensor_id, events)
        if not accepted:
            self.refusals += 1
            self._refused_at[sensor_id] = time.perf_counter()
        return accepted


_PATCHED = ("decode_message", "packet_from_events_message", "frame_message", "encode_message")


def _traced(seed, round_s, untraced, bytes_per_event, lines) -> dict:
    """One more round, with spans around every call into the serving layers."""
    spans = Spans()
    originals = {name: getattr(aioserver, name) for name in _PATCHED}
    for name in _PATCHED:
        setattr(aioserver, name, spans.wrap(f"protocol.{name}", originals[name]))
    try:
        fixture = _build(seed, round_s, instrument=True)
        hub = fixture.hub
        submits = _SubmitTrace(spans, hub)
        register = hub.register

        def traced_register(sensor_id, config=None, on_frames=None, shard=None):
            if on_frames is not None:
                on_frames = spans.wrap("hub.on_frames", on_frames)
            return register(sensor_id, config=config, on_frames=on_frames, shard=shard)

        hub.register = traced_register
        sampler = ShardSampler(hub, fixture.hub_started)
        report, scraped = _measure(fixture, round_s, sampler)
    finally:
        for name, original in originals.items():
            setattr(aioserver, name, original)
    sessions = report["warmup"] + report["timed"]
    wall = report["ended"] - report["began"]
    spans.add("client.send", report["send_s"])
    spans.add("client.recv", report["recv_s"])

    framer_s = 0.0
    slack = hub.config.reorder_slack_us
    for site in fixture.sites:
        served = sum(1 for s in sessions if s["site"] == site.name)
        framer = OnlineFramer(EbbiotConfig().frame_duration_us, slack)
        started = time.perf_counter()
        for _, batch in batches_of(site, BATCH_US):
            framer.append(batch)
        framer.flush()
        framer_s += (time.perf_counter() - started) * served
    traced_rate = statistics.median(span["rate"] for span in report["spans"])
    untraced_rate = untraced["metrics"]["events_per_s"]
    frames = sum(s["summary"]["num_frames"] for s in sessions)
    layers = stage_metrics(scraped["stage_seconds"])
    layers.update({
        "client.send_s": report["send_s"],
        "client.recv_s": report["recv_s"],
        "protocol.decode_s": spans.self_s("protocol.decode_message")
        + spans.self_s("protocol.packet_from_events_message"),
        "protocol.encode_s": spans.self_s("protocol.frame_message")
        + spans.self_s("protocol.encode_message"),
        "protocol.bytes_per_event": bytes_per_event,
        "aioserver.cpu_fraction": report["server_cpu_fraction"],
        "aioserver.submit_refusals": float(submits.refusals),
        "aioserver.backoff_s": submits.backoff_s,
        "framer.append_s": framer_s,
        "hub.submit_s": spans.self_s("hub.try_submit"),
        "hub.on_frames_s": spans.self_s("hub.on_frames"),
        "hub.frame_latency_p50_ms": scraped["latency_p50_ms"],
        "shard.busy_fraction_max": sampler.busy_fraction_max,
        "shard.queue_depth_max": float(sampler.queue_depth_max),
        "shard.sensor_skew": sampler.sensor_skew,
        "rpn.proposals_per_frame": sum(s["summary"]["num_proposals"] for s in sessions) / frames,
        "trace.overhead_fraction": 1.0 - traced_rate / untraced_rate,
    })
    lines.append(f"  traced round: {len(sessions)} sessions in {wall:.3f} s, "
                 f"{traced_rate:.0f} events/s (untraced median {untraced_rate:.0f}); "
                 f"{submits.refusals} refused try_submits, {submits.backoff_s:.3f} s backoff")
    lines.append(f"  server process CPU {report['server_cpu_fraction']:.3f} of wall, busiest "
                 f"shard worker {sampler.busy_fraction_max:.3f} busy")
    lines.extend(spans.table(wall))
    lines.append(f"  framer.append (replayed standalone){framer_s:>10.3f} s")
    lines.append("  worker-side pipeline stages (merged scrape), share of one shard's wall:")
    for stage, seconds_ in sorted(scraped["stage_seconds"].items(), key=lambda kv: -kv[1]):
        lines.append(f"  pipeline.{stage:<20}{seconds_:>10.3f} s{seconds_ / (SHARDS * wall):>10.3f}")
    alpha = sum(s["summary"]["mean_active_pixel_fraction"] * s["summary"]["num_frames"]
                for s in sessions) / frames
    trackers = sum(s["summary"]["mean_active_trackers"] * s["summary"]["num_frames"]
                   for s in sessions) / frames
    lines.extend(model_vs_measured(scraped["stage_seconds"], alpha, trackers))
    return layers

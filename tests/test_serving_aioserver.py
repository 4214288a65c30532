"""Tests for the asyncio front door, fronting both hub flavours.

Every test here drives the server through the :mod:`repro.serving.client`
helpers or a raw socket, speaking the same protocol as production sensors;
``tests/test_serving_server.py`` covers the rest of its wire behaviour.
"""

from __future__ import annotations

import gc
import logging
import select
import socket
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pytest

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.obs import parse_prometheus_text, sample_value
from repro.serving import (
    HubConfig,
    ProtocolError,
    SensorClient,
    scrape_metrics,
    stream_recording,
)
from repro.serving.aioserver import _SHUTDOWN_TIMEOUT_S, AsyncTrackingServer
from repro.serving.hub import TrackingHub
from repro.serving.process_hub import ProcessTrackingHub
from repro.serving.protocol import (
    RECORD_BYTES,
    decode_message,
    encode_message,
    events_message,
    hello_message,
)
from repro.serving.transport import RingFull, max_payload_bytes
from test_serving_server import assert_bad_batches_refused, list_message
from test_serving_wire_golden import CLIENT_BYTES, SERVER_LINES, server_lines

HUBS = {"thread": TrackingHub, "process": ProcessTrackingHub}


def _moving_block_stream(seed: int, num_frames: int = 10) -> EventStream:
    rng = np.random.default_rng(seed)
    xs, ys, ts = [], [], []
    for frame_index in range(num_frames):
        x0 = 20 + 3 * frame_index
        t = frame_index * 66_000 + 10_000
        for dy in range(6):
            for dx in range(6):
                xs.append(x0 + dx)
                ys.append(70 + dy)
                ts.append(t + int(rng.integers(0, 40_000)))
    packet = make_packet(xs, ys, ts, [1] * len(xs))
    return EventStream(packet, 240, 180)


def _random_batch(size: int, seed: int = 0) -> np.ndarray:
    """``size`` events spread over one EBBI window of a 240x180 sensor."""
    rng = np.random.default_rng(seed)
    return make_packet(
        rng.integers(0, 240, size),
        rng.integers(0, 180, size),
        np.sort(rng.integers(0, 66_000, size)),
        rng.choice([-1, 1], size),
    )


class TestAsyncServer:
    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_round_trip_matches_batch_pipeline(self, kind):
        stream = _moving_block_stream(seed=1)
        expected = EbbiotPipeline(EbbiotConfig()).process_stream(stream)
        hub = HUBS[kind](HubConfig(num_workers=2))
        with AsyncTrackingServer(hub=hub) as server:
            host, port = server.address
            frames, summary = stream_recording(host, port, "cam", stream)
        assert summary["name"] == "cam"
        assert summary["num_events"] == len(stream)
        assert summary["num_frames"] == expected.num_frames
        assert len(frames) == expected.num_frames
        wire_tracks = [track for frame in frames for track in frame["tracks"]]
        assert len(wire_tracks) == expected.total_track_observations()
        for wire, obs in zip(wire_tracks, expected.track_history.observations):
            assert wire["track_id"] == obs.track_id
            assert wire["x"] == pytest.approx(obs.box.x)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_eight_concurrent_sensors(self, kind):
        streams = {f"cam-{i}": _moving_block_stream(seed=i) for i in range(8)}
        hub = HUBS[kind](HubConfig(num_workers=4))
        with AsyncTrackingServer(hub=hub) as server:
            host, port = server.address
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = {
                    sensor_id: pool.submit(
                        stream_recording, host, port, sensor_id, stream
                    )
                    for sensor_id, stream in streams.items()
                }
                outcomes = {sid: f.result(timeout=60) for sid, f in futures.items()}
            telemetry = server.hub.telemetry_dict()

        assert telemetry["totals"]["num_sensors"] == 8
        for sensor_id, stream in streams.items():
            frames, summary = outcomes[sensor_id]
            assert summary["name"] == sensor_id
            assert summary["num_events"] == len(stream)
            assert len(frames) == summary["num_frames"] > 0

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_metrics_scrape_over_the_wire(self, kind):
        stream = _moving_block_stream(seed=2)
        hub = HUBS[kind](HubConfig(num_workers=2))
        with AsyncTrackingServer(hub=hub) as server:
            host, port = server.address
            stream_recording(host, port, "cam", stream)
            samples = parse_prometheus_text(scrape_metrics(host, port))
        assert sample_value(
            samples, "repro_sensor_events_received_total", sensor="cam"
        ) == float(len(stream))
        for shard in ("0", "1"):
            assert (
                sample_value(samples, "repro_shard_sensors", shard=shard)
                is not None
            )

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_finish_after_hub_side_removal_replies_error(self, kind):
        hub = HUBS[kind](HubConfig(num_workers=1))
        with AsyncTrackingServer(hub=hub) as server:
            host, port = server.address
            with SensorClient(host, port, "cam") as client:
                # Race the connection: the hub forgets the sensor while the
                # client still believes it is live.  The server must answer
                # the stray finish with an error instead of dropping the
                # connection without a reply.
                server.hub.close_sensor("cam", timeout=60.0)
                server.hub.remove_sensor("cam")
                with pytest.raises(ProtocolError, match="not registered"):
                    client.finish()
                assert "repro_" in client.request_metrics()

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_bad_batches_get_error_replies_and_the_connection_survives(self, kind):
        hub = HUBS[kind](HubConfig(num_workers=1))
        with AsyncTrackingServer(hub=hub) as server:
            assert_bad_batches_refused(*server.address)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_line_over_64_kib_is_served(self, kind):
        """asyncio's default 64 KiB line limit does not apply: the limit is
        the hub's ring capacity (1 MiB by default)."""
        batch = _random_batch(6000)
        assert len(encode_message(events_message(batch))) > 1 << 16
        hub = HUBS[kind](HubConfig(num_workers=1))
        with AsyncTrackingServer(hub=hub) as server:
            with SensorClient(*server.address, "cam") as client:
                client.send_events(batch)
                assert client.finish()["num_events"] == len(batch)

    def test_line_over_the_limit_gets_error_then_eof(self, caplog):
        """A line longer than the ring is refused by name, the connection then
        closes cleanly, and the sensor id is free again."""
        batch = _random_batch(350)
        line = encode_message(events_message(batch))
        assert 4096 < len(line) < 8192
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub_config=config) as server:
                with socket.create_connection(server.address, timeout=30) as raw, \
                        raw.makefile("rwb") as wire:
                    wire.write(encode_message(hello_message("cam")))
                    wire.flush()
                    assert decode_message(wire.readline())["type"] == "welcome"
                    wire.write(line)
                    wire.flush()
                    reply = decode_message(wire.readline())
                    assert reply["type"] == "error"
                    assert "4096-byte limit" in reply["message"]
                    assert wire.readline() == b""
                with SensorClient(*server.address, "cam") as client:
                    client.send_events(batch[:10])
                    assert client.finish()["num_events"] == 10
        assert not [r for r in caplog.records if r.name == "asyncio"]

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_batch_too_big_for_one_ring_record_gets_error_reply(self, kind, caplog):
        """A frame's records may fit the line limit and still outgrow one ring
        record, which also holds the record header: the batch is refused by
        name and the connection lives on."""
        n = 313
        too_big = make_packet(np.arange(n) % 10, np.arange(n) // 10 % 10, [7] * n, [1] * n)
        assert max_payload_bytes(4096) < too_big.nbytes <= 4096
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub=HUBS[kind](config)) as server:
                with SensorClient(*server.address, "cam") as client:
                    client.send_events(too_big)
                    with pytest.raises(ProtocolError, match="can never fit"):
                        client.request_stats()  # the error reply comes first
                    client.send_events(too_big[:10])
                    assert client.finish()["num_events"] == 10
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_dead_shard_worker_turns_into_error_replies(self):
        import os
        import signal

        hub = ProcessTrackingHub(HubConfig(num_workers=1))
        with AsyncTrackingServer(hub=hub) as server:
            host, port = server.address
            with SensorClient(host, port, "cam") as client:
                os.kill(hub._workers[0].pid, signal.SIGKILL)
                with pytest.raises(ProtocolError, match="worker is down"):
                    client.finish()
                assert "repro_shard_worker_up" in client.request_metrics()

    def test_hello_whose_register_times_out_gets_error_reply(self, caplog, monkeypatch):
        """A register that times out on a full ring is refused by name instead
        of dropping the connection, and the sensor id stays free."""
        batch = _random_batch(100)

        def refuse(*args, **kwargs):
            raise RingFull("ring full (9 records) after 30.0s")

        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub_config=HubConfig(num_workers=1)) as server:
                monkeypatch.setattr(server.hub._rings[0], "put", refuse)
                with _raw_connection(server.address) as (send, reply):
                    send(hello_message("cam"))
                    refusal = reply()
                    assert refusal["type"] == "error"
                    assert "ring full" in refusal["message"]
                    assert reply() is None
                monkeypatch.undo()
                with SensorClient(*server.address, "cam") as client:
                    client.send_events(batch)
                    assert client.finish()["num_events"] == len(batch)
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_duplicate_sensor_id_rejected(self):
        with AsyncTrackingServer(hub_config=HubConfig(num_workers=1)) as server:
            host, port = server.address
            with SensorClient(host, port, "cam"):
                with pytest.raises(ProtocolError):
                    SensorClient(host, port, "cam")

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_reconnect_during_teardown_waits_for_it(self, kind):
        """A sensor that reconnects while its dropped connection is still being
        flushed is welcomed once that teardown ends, and the dropped
        connection's summary is kept."""
        batch = _random_batch(200)
        hub = HUBS[kind](HubConfig(num_workers=1))
        with AsyncTrackingServer(hub=hub) as server:
            with _raw_connection(server.address) as (send, reply):
                send(hello_message("cam"), events_message(batch), {"type": "stats"})
                assert reply()["type"] == "welcome"
                assert reply()["type"] == "stats"  # so the batch is submitted
                hub.pause_shard(0)
                depth = hub.shard_stats()[0].queue_depth
            # Dropped without finish: its teardown's close record now waits in
            # the paused ring, and the id is still registered.
            deadline = time.monotonic() + 10.0
            while hub.shard_stats()[0].queue_depth != depth + 1:
                assert time.monotonic() < deadline, "the teardown never reached the ring"
                time.sleep(0.005)
            with socket.create_connection(server.address, timeout=30) as raw, \
                    raw.makefile("rwb") as wire:
                try:
                    wire.write(encode_message(hello_message("cam")))
                    wire.flush()
                    select.select([raw], [], [], 0.5)  # time to read the hello
                finally:
                    hub.resume_shard(0)
                assert decode_message(wire.readline())["type"] == "welcome"
                recordings = hub.batch_result().recordings
        assert [(r.name, r.num_events) for r in recordings] == [("cam", len(batch))]

    def test_rejected_handshake_releases_socket_and_reader(self):
        with AsyncTrackingServer(hub_config=HubConfig(num_workers=1)) as server:
            host, port = server.address
            with SensorClient(host, port, "cam"):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always", ResourceWarning)
                    with pytest.raises(ProtocolError):
                        SensorClient(host, port, "cam")
                    gc.collect()
                readers = [t for t in threading.enumerate() if t.name == "sensor-client-cam"]
                # Only the accepted client's reader is left running.
                assert len(readers) == 1
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_hello_smaller_than_one_downsampling_block_gets_error_reply(self, caplog):
        """A 4x2 sensor cannot hold one 6x3 block: the hello is refused by
        name and the connection still accepts a valid hello."""
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub_config=HubConfig(num_workers=1)) as server:
                with socket.create_connection(server.address, timeout=30) as raw, \
                        raw.makefile("rwb") as wire:
                    wire.write(encode_message(hello_message("cam", width=4, height=2)))
                    wire.flush()
                    reply = decode_message(wire.readline())
                    assert reply["type"] == "error"
                    assert "4x2" in reply["message"]
                    wire.write(encode_message(hello_message("cam")))
                    wire.flush()
                    assert decode_message(wire.readline())["type"] == "welcome"
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_stop_is_idempotent_and_port_reusable(self):
        server = AsyncTrackingServer(hub_config=HubConfig(num_workers=1))
        server.start()
        server.stop()
        server.stop()


@contextmanager
def _raw_connection(address):
    """``(send, reply)`` over a raw socket: ``send`` writes messages (dicts)
    and bytes as given, ``reply`` reads the next non-frame line (``None`` at
    EOF)."""
    with socket.create_connection(address, timeout=30) as raw, raw.makefile("rwb") as wire:

        def send(*parts) -> None:
            for part in parts:
                wire.write(part if isinstance(part, bytes) else encode_message(part))
            wire.flush()

        def reply():
            while True:
                line = wire.readline()
                if not line:
                    return None
                message = decode_message(line)
                if message["type"] != "frame":
                    return message

        yield send, reply


def _header(count) -> bytes:
    return b'{"type":"events","count":%s}\n' % str(count).encode()


class TestBinaryFrames:
    """The version-2 ``events`` frame at the door: a header line, then
    ``count`` raw EVENT_DTYPE records."""

    @pytest.mark.parametrize("count", ["-1", "true", "2.5", '"2"'])
    def test_bad_count_gets_error_then_eof(self, count, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub_config=HubConfig(num_workers=1)) as server:
                with _raw_connection(server.address) as (send, reply):
                    send(hello_message("cam"))
                    assert reply()["type"] == "welcome"
                    send(_header(count))
                    error = reply()
                    assert error["type"] == "error"
                    assert "count" in error["message"]
                    assert reply() is None
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_count_over_the_limit_gets_error_naming_it_then_eof(self, caplog):
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        count = 4096 // RECORD_BYTES + 1
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub_config=config) as server:
                with _raw_connection(server.address) as (send, reply):
                    send(hello_message("cam"))
                    assert reply()["type"] == "welcome"
                    send(_header(count))
                    error = reply()
                    assert error["type"] == "error"
                    assert "exceeds the 4096-byte limit" in error["message"]
                    assert reply() is None
                with SensorClient(*server.address, "cam") as client:
                    client.send_events(_random_batch(10))
                    assert client.finish()["num_events"] == 10
        assert not [r for r in caplog.records if r.name == "asyncio"]

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_batch_between_record_payload_and_limit_can_never_fit(self, kind, caplog):
        """``count × 13`` within the line limit but past the largest ring
        record is read whole, refused by name, and the connection lives on."""
        count = 4096 // RECORD_BYTES
        assert max_payload_bytes(4096) < count * RECORD_BYTES <= 4096
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub=HUBS[kind](config)) as server:
                with SensorClient(*server.address, "cam") as client:
                    client.send_events(_random_batch(count))
                    with pytest.raises(ProtocolError, match="can never fit"):
                        client.request_stats()
                    client.send_events(_random_batch(10))
                    assert client.finish()["num_events"] == 10
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_binary_batch_before_hello_keeps_the_framing(self):
        batch = _random_batch(40)
        with AsyncTrackingServer(hub_config=HubConfig(num_workers=1)) as server:
            with _raw_connection(server.address) as (send, reply):
                send(events_message(batch))
                error = reply()
                assert error["type"] == "error" and "hello" in error["message"]
                send(hello_message("cam"), events_message(batch), {"type": "finish"})
                assert reply()["type"] == "welcome"
                assert reply()["recording"]["num_events"] == len(batch)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_events_after_finish_are_refused_and_finish_repeats(self, kind):
        """After ``finish`` a batch gets an ``error`` naming the sensor and is
        not submitted; ``stats``, ``metrics`` and a second ``finish`` (with
        the same summary) are still answered."""
        batch = make_packet([5, 6], [7, 8], [1_000, 2_000], [1, -1])
        with AsyncTrackingServer(hub=HUBS[kind](HubConfig(num_workers=1))) as server:
            with _raw_connection(server.address) as (send, reply):
                send(hello_message("cam"), events_message(batch), {"type": "finish"})
                assert reply()["type"] == "welcome"
                summary = reply()
                assert summary["recording"]["num_events"] == 2
                send(events_message(batch))
                error = reply()
                assert error["type"] == "error"
                assert error["sensor_id"] == "cam" and "'cam'" in error["message"]
                send({"type": "stats"})
                assert reply()["type"] == "stats"
                send({"type": "metrics"})
                assert reply()["type"] == "metrics"
                send({"type": "finish"})
                assert reply() == summary
            telemetry = server.hub.telemetry_dict()["sensors"]["cam"]
        assert telemetry["events_received"] == 2
        assert telemetry["dropped_batches"] == telemetry["dropped_events"] == 0

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_eof_mid_attachment_tears_the_connection_down(self, kind, caplog):
        batch = _random_batch(100)
        frame = encode_message(events_message(batch))
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub=HUBS[kind](HubConfig(num_workers=1))) as server:
                with socket.create_connection(server.address, timeout=30) as raw, \
                        raw.makefile("rwb") as wire:
                    wire.write(encode_message(hello_message("cam")))
                    wire.flush()
                    assert decode_message(wire.readline())["type"] == "welcome"
                    wire.write(frame[: len(frame) // 2])
                    wire.flush()
                    raw.shutdown(socket.SHUT_WR)  # EOF halfway through the records
                    assert wire.readline() == b""  # after the server's teardown
                with SensorClient(*server.address, "cam") as client:
                    client.send_events(batch)
                    assert client.finish()["num_events"] == len(batch)
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_list_line_over_the_limit_gets_error_then_eof(self, caplog):
        """A JSON line, such as a protocol-version-1 list of events, is
        bounded by the limit before it is parsed."""
        line = encode_message(list_message(_random_batch(500)))
        assert 4096 < len(line) < 8192
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub_config=config) as server:
                with _raw_connection(server.address) as (send, reply):
                    send(hello_message("cam"))
                    assert reply()["type"] == "welcome"
                    send(line)
                    error = reply()
                    assert error["type"] == "error"
                    assert "line exceeds the 4096-byte limit" in error["message"]
                    assert reply() is None
        assert not [r for r in caplog.records if r.name == "asyncio"]

    def test_events_line_without_count_gets_one_error(self):
        """An ``events`` message that is not a binary frame (a version-1 line
        of JSON lists) gets one ``error`` reply; the connection stays usable
        and submits nothing of it."""
        batch = _random_batch(20)
        with AsyncTrackingServer(hub_config=HubConfig(num_workers=1)) as server:
            with _raw_connection(server.address) as (send, reply):
                send(hello_message("cam"))
                assert reply()["type"] == "welcome"
                send(list_message(batch), events_message(batch), {"type": "stats"})
                error = reply()
                assert error["type"] == "error" and error["sensor_id"] == "cam"
                assert "must be a binary frame" in error["message"]
                assert reply()["type"] == "stats"
                send({"type": "finish"})
                assert reply()["recording"]["num_events"] == len(batch)

    def test_client_refuses_a_version_1_server(self):
        """A version-1 server would misread binary frames: the client says so
        and closes instead of sending any."""
        with socket.create_server(("127.0.0.1", 0)) as listener:

            def version_1_server():
                connection, _ = listener.accept()
                with connection, connection.makefile("rwb") as wire:
                    wire.readline()  # the hello
                    welcome = {"type": "welcome", "version": 1, "width": 240, "height": 180}
                    wire.write(encode_message(welcome))
                    wire.flush()
                    wire.read()  # until the client hangs up

            thread = threading.Thread(target=version_1_server, daemon=True)
            thread.start()
            with pytest.raises(ProtocolError, match="version 1.*version 2"):
                SensorClient(*listener.getsockname()[:2], "cam", timeout_s=10)
            thread.join(timeout=10)
            assert not thread.is_alive()


def _until(wire, kind: str) -> list:
    """Every message the server sends up to and including the next ``kind``."""
    messages = []
    while not messages or messages[-1]["type"] != kind:
        line = wire.readline()
        assert line, f"EOF before a {kind!r} reply"
        messages.append(decode_message(line))
    return messages


def _frames(stream: EventStream, count: int) -> bytes:
    """``stream`` as ``count`` binary ``events`` frames, back to back."""
    batches = np.array_split(stream.events, count)
    return b"".join(encode_message(events_message(batch)) for batch in batches)


def _replay(stream: EventStream) -> tuple:
    result = EbbiotPipeline(EbbiotConfig()).process_stream(stream)
    return len(stream), result.num_frames, result.total_track_observations()


def _counts(summary: dict) -> tuple:
    recording = summary["recording"]
    return (recording["num_events"], recording["num_frames"],
            recording["num_track_observations"])


class TestCoalescing:
    """The door parses each read whole and submits each run of frames once;
    the replies and outputs cannot tell how the bytes were cut or grouped."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_golden_session_cut_into_random_chunks(self, kind, seed):
        data = CLIENT_BYTES.read_bytes()
        rng = np.random.default_rng(seed)
        with AsyncTrackingServer(hub=HUBS[kind](HubConfig(num_workers=2))) as server:
            with socket.create_connection(server.address, timeout=30) as raw, \
                    raw.makefile("rb") as wire:
                raw.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                start = 0
                while start < len(data):
                    size = int(2 ** rng.uniform(0, 16))  # 1 byte to 64 KiB
                    raw.sendall(data[start:start + size])
                    start += size
                    time.sleep(0.001)  # so the door mostly reads each chunk alone
                received = b"".join(encode_message(m) for m in _until(wire, "summary"))
        assert server_lines(received) == SERVER_LINES.read_bytes().splitlines(keepends=True)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_one_bad_frame_in_a_run_gets_one_error(self, kind):
        """The bad frame is refused by name; the frames around it, sent in
        the same write, are all served."""
        stream = _moving_block_stream(seed=3, num_frames=20)
        batches = np.array_split(stream.events, 60)
        bad = make_packet([5, 300], [7, 8], [int(batches[30]["t"][0])] * 2, [1, 1])
        frames = [events_message(batch) for batch in batches]
        frames.insert(30, events_message(bad))
        session = [hello_message("cam"), *frames, {"type": "finish"}]
        with AsyncTrackingServer(hub=HUBS[kind](HubConfig(num_workers=1))) as server:
            with socket.create_connection(server.address, timeout=30) as raw, \
                    raw.makefile("rb") as wire:
                raw.sendall(b"".join(encode_message(message) for message in session))
                replies = _until(wire, "summary")
        errors = [reply for reply in replies if reply["type"] == "error"]
        assert len(errors) == 1
        assert "outside the 240x180 sensor" in errors[0]["message"]
        assert "x in [5, 300]" in errors[0]["message"]
        assert _counts(replies[-1]) == _replay(stream)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_runs_split_to_fit_the_ring_and_wait_out_a_paused_shard(self, kind):
        """A recording in one write holds runs of more than one ring record:
        each is split to fit.  With the shard paused, the door waits on a
        refused run and handles nothing after it; once resumed, nothing is
        lost."""
        stream = _moving_block_stream(seed=5, num_frames=30)
        assert stream.events.nbytes > 3 * max_payload_bytes(4096)
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with AsyncTrackingServer(hub=HUBS[kind](config)) as server:
            hub = server.hub
            with socket.create_connection(server.address, timeout=30) as raw, \
                    raw.makefile("rwb") as wire:
                wire.write(encode_message(hello_message("cam")))
                wire.flush()
                assert decode_message(wire.readline())["type"] == "welcome"
                hub.pause_shard(0)
                try:
                    wire.write(_frames(stream, 90) + encode_message({"type": "stats"}))
                    wire.flush()
                    # No frame can close and the stats request is not reached.
                    assert select.select([raw], [], [], 0.5)[0] == []
                finally:
                    hub.resume_shard(0)
                replies = _until(wire, "stats")
                wire.write(encode_message({"type": "finish"}))
                wire.flush()
                replies += _until(wire, "summary")
        assert not [reply for reply in replies if reply["type"] == "error"]
        assert _counts(replies[-1]) == _replay(stream)
        telemetry = next(r for r in replies if r["type"] == "stats")["telemetry"]["sensors"]["cam"]
        assert telemetry["batches_received"] < 90  # a batch is one run, not one frame

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_drop_policy_sheds_refused_runs_whole(self, kind):
        stream = _moving_block_stream(seed=6, num_frames=30)
        config = HubConfig(num_workers=1, backpressure="drop", ring_capacity_bytes=4096)
        with AsyncTrackingServer(hub=HUBS[kind](config)) as server:
            hub = server.hub
            with socket.create_connection(server.address, timeout=30) as raw, \
                    raw.makefile("rwb") as wire:
                wire.write(encode_message(hello_message("cam")))
                wire.flush()
                assert decode_message(wire.readline())["type"] == "welcome"
                hub.pause_shard(0)
                try:
                    wire.write(_frames(stream, 90) + encode_message({"type": "stats"}))
                    wire.flush()
                    replies = _until(wire, "stats")
                finally:
                    hub.resume_shard(0)
                wire.write(encode_message({"type": "finish"}))
                wire.flush()
                replies += _until(wire, "summary")
        assert not [reply for reply in replies if reply["type"] == "error"]
        telemetry = next(r for r in replies if r["type"] == "stats")["telemetry"]["sensors"]["cam"]
        assert telemetry["dropped_events"] > 0
        assert telemetry["events_received"] + telemetry["dropped_events"] == len(stream)
        assert replies[-1]["recording"]["num_events"] == telemetry["events_received"]


class TestShutdown:
    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_stop_ends_a_connection_parked_in_backoff(self, kind, caplog):
        """``stop()`` with a run parked in the ``"block"`` backoff on a full
        ring: the abort ends the backoff, that run is not submitted, the
        teardown flushes what was, and the hub stops only after the loop
        thread has ended, within the shutdown deadline."""
        stream = _moving_block_stream(seed=7, num_frames=30)
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        server = AsyncTrackingServer(hub=HUBS[kind](config)).start()
        hub, loop_thread = server.hub, server._thread
        try_submit, close_sensor, hub_stop = hub.try_submit, hub.close_sensor, hub.stop
        refused, closing = threading.Event(), threading.Event()
        submitted, loop_alive_at_hub_stop = [], []

        def watched_try_submit(sensor_id, events):
            accepted = try_submit(sensor_id, events)
            if accepted:
                submitted.append(len(events))
            else:
                refused.set()
            return accepted

        def watched_close_sensor(*args):
            closing.set()
            return close_sensor(*args)

        def watched_stop():
            loop_alive_at_hub_stop.append(loop_thread.is_alive())
            hub_stop()

        hub.try_submit, hub.close_sensor, hub.stop = (
            watched_try_submit, watched_close_sensor, watched_stop)
        stopper = threading.Thread(target=server.stop)
        try:
            with caplog.at_level(logging.WARNING), \
                    socket.create_connection(server.address, timeout=30) as raw, \
                    raw.makefile("rwb") as wire:
                wire.write(encode_message(hello_message("cam")))
                wire.flush()
                assert decode_message(wire.readline())["type"] == "welcome"
                hub.pause_shard(0)
                try:
                    wire.write(_frames(stream, 90))
                    wire.flush()
                    assert refused.wait(10.0), "the ring never refused a run"
                    started = time.monotonic()
                    stopper.start()
                    assert closing.wait(5.0), "the teardown never reached close_sensor"
                finally:
                    hub.resume_shard(0)
        finally:
            if stopper.ident is None:
                server.stop()
            else:
                stopper.join(timeout=60.0)
        elapsed = time.monotonic() - started
        assert not stopper.is_alive(), "stop() did not return"
        assert elapsed < _SHUTDOWN_TIMEOUT_S
        assert loop_alive_at_hub_stop[0] is False
        assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
        [recording] = hub.batch_result().recordings
        assert recording.num_events == sum(submitted) < len(stream)


class TestServingCliMatrix:
    @pytest.mark.parametrize(
        "extra",
        [
            ["--hub", "process"],
            ["--hub", "thread"],
        ],
    )
    def test_demo_runs_on_hub_and_front_door(self, extra, capsys):
        from repro.serving.__main__ import main

        exit_code = main(
            ["--sensors", "2", "--duration", "0.4", "--batch-us", "33000"] + extra
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "telemetry:" in captured.out

    def test_cli_rejects_bad_ring_size(self, capsys):
        from repro.serving.__main__ import main

        assert main(["--ring-kib", "0"]) == 2

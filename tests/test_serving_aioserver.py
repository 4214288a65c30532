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
from repro.serving.aioserver import AsyncTrackingServer
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
        """A line under the limit can carry more events than one ring record
        holds (an event takes as little as 8 bytes of JSON but always 13 ring
        bytes): the batch is refused by name and the connection lives on."""
        n = 400
        too_big = make_packet(np.arange(n) % 10, np.arange(n) // 10 % 10, [7] * n, [1] * n)
        lines = list_message(too_big)
        assert len(encode_message(lines)) < 4096 < too_big.nbytes
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with AsyncTrackingServer(hub=HUBS[kind](config)) as server:
                with SensorClient(*server.address, "cam") as client:
                    client._send(lines)
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
        """A hand-written client's JSON-list line is still bounded by the limit."""
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

"""Tests for the asyncio JSONL front door, fronting both hub flavours.

Every test here drives the server through the :mod:`repro.serving.client`
helpers or a raw socket, speaking the same protocol as production sensors;
``tests/test_serving_server.py`` covers the rest of its wire behaviour.
"""

from __future__ import annotations

import logging
import socket
from concurrent.futures import ThreadPoolExecutor

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
    decode_message,
    encode_message,
    events_message,
    hello_message,
)
from test_serving_server import assert_bad_batches_refused

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
        assert len(encode_message(events_message(too_big))) < 4096 < too_big.nbytes
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

    def test_duplicate_sensor_id_rejected(self):
        with AsyncTrackingServer(hub_config=HubConfig(num_workers=1)) as server:
            host, port = server.address
            with SensorClient(host, port, "cam"):
                with pytest.raises(ProtocolError):
                    SensorClient(host, port, "cam")

    def test_stop_is_idempotent_and_port_reusable(self):
        server = AsyncTrackingServer(hub_config=HubConfig(num_workers=1))
        server.start()
        server.stop()
        server.stop()


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

"""End-to-end tests of the TCP server (JSON control lines, binary ``events``
frames), the client and the serving CLI."""

from __future__ import annotations

import json
import socket

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import EbbiotConfig, EbbiotPipeline
from repro.events.stream import EventStream
from repro.events.types import EVENT_DTYPE, make_packet, validate_packet
from repro.serving import (
    AsyncTrackingServer,
    HubConfig,
    ProtocolError,
    SensorClient,
    decode_message,
    encode_message,
    stream_recording,
)
from repro.serving.protocol import (
    RECORD_BYTES,
    FramingError,
    events_message,
    hello_message,
    packet_from_events_message,
    parse_hello,
)


def _one_event_frame(x: int = 1, y: int = 1, p: int = 1) -> dict:
    """A binary ``events`` frame of one record holding these raw values."""
    packet = np.zeros(1, dtype=EVENT_DTYPE)
    packet["x"], packet["y"], packet["t"], packet["p"] = x, y, 1_000, p
    return events_message(packet)


#: Binary ``events`` frames the decoder must refuse on a 240x180 sensor.
BAD_EVENTS = {
    "x_past_width": _one_event_frame(x=240),
    "x_int16_min": _one_event_frame(x=-32768),  # 32768 through the unsigned view
    "y_past_height": _one_event_frame(y=180),
    "y_negative": _one_event_frame(y=-1),
    "p_zero": _one_event_frame(p=0),
    "p_two": _one_event_frame(p=2),
}


def list_message(events: np.ndarray) -> dict:
    """One batch as a protocol-version-1 ``events`` line of parallel lists,
    which is not a binary frame and is refused."""
    return {"type": "events", **{field: events[field].tolist() for field in "xytp"}}


def assert_bad_batches_refused(host: str, port: int) -> None:
    """Every BAD_EVENTS frame gets an ``error`` reply, and the connection then
    still accepts a valid batch (the ``stats`` reply follows with no second
    error, and ``finish`` counts exactly the valid events)."""
    valid = make_packet([5, 6], [7, 8], [1_000, 2_000], [1, -1])
    with socket.create_connection((host, port), timeout=30) as raw, raw.makefile("rwb") as wire:

        def exchange(*messages: dict) -> dict:
            wire.write(b"".join(encode_message(message) for message in messages))
            wire.flush()
            return decode_message(wire.readline())

        assert exchange(hello_message("cam"))["type"] == "welcome"
        for name, bad in BAD_EVENTS.items():
            reply = exchange(bad, events_message(valid), {"type": "stats"})
            assert reply["type"] == "error", name
            assert decode_message(wire.readline())["type"] == "stats", name
        reply = exchange({"type": "finish"})
        while reply["type"] == "frame":
            reply = decode_message(wire.readline())
        assert reply["type"] == "summary"
        assert reply["recording"]["num_events"] == len(BAD_EVENTS) * len(valid)


@st.composite
def _valid_batches(draw):
    """(width, height, x, y, t, p) of a batch every check accepts."""
    width, height = draw(st.integers(1, 1 << 15)), draw(st.integers(1, 1 << 15))
    size = draw(st.integers(0, 64))

    def column(values):
        return draw(st.lists(values, min_size=size, max_size=size))

    x, y = column(st.integers(0, width - 1)), column(st.integers(0, height - 1))
    t = column(st.integers(-(2**63), 2**63 - 1))
    return width, height, x, y, t, column(st.sampled_from([-1, 1]))


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


class TestProtocol:
    def test_message_round_trip(self):
        message = {"type": "hello", "sensor_id": "a"}
        assert decode_message(encode_message(message)) == message

    def test_events_round_trip(self):
        packet = _moving_block_stream(0).events[:100]
        decoded = packet_from_events_message(events_message(packet), 240, 180)
        assert np.array_equal(decoded, packet)

    def test_decode_rejects_junk(self):
        with pytest.raises(ProtocolError):
            decode_message(b"not json\n")
        with pytest.raises(ProtocolError):
            decode_message(b"[1, 2]\n")
        with pytest.raises(ProtocolError):
            decode_message(b"\n")

    def test_events_message_requires_fields(self):
        for message in ({"type": "events", "x": [1]},
                        list_message(make_packet([1], [2], [3], [1]))):
            with pytest.raises(ProtocolError, match="must be a binary frame"):
                packet_from_events_message(message, 240, 180)

    @pytest.mark.parametrize("name", sorted(BAD_EVENTS))
    def test_events_decode_refuses_bad_payloads(self, name):
        frame = encode_message(BAD_EVENTS[name])
        with pytest.raises(ProtocolError):
            packet_from_events_message(decode_message(frame), 240, 180)

    def test_events_decode_refuses_coordinates_past_int16(self):
        # A hello may declare more than 32768 columns, but EVENT_DTYPE's
        # int16 cannot hold such an x: the record's x of -1 must not read as
        # the valid column 65535.
        frame = encode_message(_one_event_frame(x=-1))
        with pytest.raises(ProtocolError, match="outside"):
            packet_from_events_message(decode_message(frame), 70_000, 180)

    @settings(max_examples=200, deadline=None)
    @given(_valid_batches())
    def test_events_decode_matches_make_packet(self, batch):
        width, height, x, y, t, p = batch
        expected = make_packet(x, y, t, p)
        validate_packet(expected, width, height)
        line = encode_message(events_message(expected))
        decoded = packet_from_events_message(decode_message(line), width, height)
        assert decoded.dtype == EVENT_DTYPE
        assert decoded.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_valid_batches())
    def test_binary_frame_round_trip_matches_make_packet(self, batch):
        width, height, x, y, t, p = batch
        expected = make_packet(x, y, t, p)
        message = events_message(expected)
        frame = encode_message(message)
        header = b'{"type":"events","count":%d}\n' % len(expected)
        assert frame == header + expected.tobytes()
        assert decode_message(frame) == message
        decoded = packet_from_events_message(decode_message(frame), width, height)
        assert decoded.dtype == EVENT_DTYPE
        assert decoded.tobytes() == expected.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(_valid_batches(), st.sampled_from("xyp"), st.data())
    def test_binary_frame_refuses_any_field_out_of_range(self, batch, field, data):
        width, height, x, y, t, p = batch
        packet = make_packet(x, y, t, p) if x else make_packet([0], [0], [0], [1])
        low, high = np.iinfo(EVENT_DTYPE[field]).min, np.iinfo(EVENT_DTYPE[field]).max
        if field == "p":
            out_of_range = st.integers(low, high).filter(lambda value: value not in (-1, 1))
        else:
            # A negative coordinate, or one past the sensor that int16 holds.
            bound = width if field == "x" else height
            out_of_range = st.integers(low, -1)
            if bound <= high:
                out_of_range |= st.integers(bound, high)
        index = data.draw(st.integers(0, len(packet) - 1))
        packet[field][index] = data.draw(out_of_range)
        frame = encode_message(events_message(packet))
        with pytest.raises(ProtocolError):
            packet_from_events_message(decode_message(frame), width, height)

    def test_binary_frame_of_no_events_round_trips(self):
        message = events_message(make_packet([], [], [], []))
        assert encode_message(message) == b'{"type":"events","count":0}\n'
        assert decode_message(encode_message(message)) == message
        assert len(packet_from_events_message(message, 240, 180)) == 0

    @pytest.mark.parametrize("count", ["-1", "true", "2.0", '"2"'])
    def test_decode_refuses_a_count_that_is_not_a_non_negative_int(self, count):
        with pytest.raises(FramingError, match="count"):
            decode_message(b'{"type":"events","count":%s}\n' % count.encode())

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(
        st.sampled_from(["0}", "25}", "01}", "00}", "-1}", "-0}", "1.0}", "1e3}", " 1}",
                         "1 }", "+1}", "١}", "1_000}", f"{2**70}}}", "25", "", "}",
                         "25}}", "25} ", "25}\r"]),
        st.integers(-(2**80), 2**80).map("{}}}".format),
        st.text("0123456789+-.eE }١²", max_size=8),
        st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\n"), max_size=16),
    ))
    def test_header_fast_path_agrees_with_json_loads(self, suffix):
        """The header a client writes skips ``json.loads``; any header line
        decodes to what ``json.loads`` gives, or raises the same class."""

        def outcome(data):
            try:
                return repr(decode_message(data))
            except FramingError:
                return FramingError
            except ProtocolError:
                return ProtocolError

        line = '{"type":"events","count":' + suffix
        assert outcome(line.encode()) == outcome(line)  # a str line goes through json.loads

    def test_client_header_is_decoded_without_json_loads(self, monkeypatch):
        import repro.serving.protocol as protocol

        def refuse(*args, **kwargs):
            raise AssertionError("json.loads called")

        monkeypatch.setattr(protocol.json, "loads", refuse)
        header = encode_message(events_message(make_packet([1], [2], [3], [1])))[:-RECORD_BYTES]
        assert decode_message(header) == {"type": "events", "count": 1}

    def test_decode_refuses_records_that_do_not_match_the_count(self):
        frame = encode_message(events_message(make_packet([1, 2], [3, 4], [5, 6], [1, 1])))
        with pytest.raises(ProtocolError, match="not 2 records"):
            decode_message(frame[:-1])

    def test_events_message_with_both_count_and_lists_is_refused(self):
        message = events_message(make_packet([1], [2], [3], [1]))
        message.update(list_message(make_packet([1], [2], [3], [1])))
        with pytest.raises(ProtocolError, match="not both"):
            packet_from_events_message(message, 240, 180)

    @pytest.mark.parametrize("line", [
        b'{"type":"hello","sensor_id":"a","width":240.9,"height":180}',
        b'{"type":"hello","sensor_id":"a","width":"240","height":180}',
        b'{"type":"hello","sensor_id":"a","width":1e3,"height":180}',
        b'{"type":"hello","sensor_id":"a","width":240,"height":true}',
    ], ids=["float", "string", "exponent", "bool"])
    def test_hello_refuses_geometry_that_is_not_a_json_integer(self, line):
        field = "height" if b"true" in line else "width"
        with pytest.raises(ProtocolError, match=f"hello {field} must be a JSON integer"):
            parse_hello(decode_message(line), EbbiotConfig())

    def test_hello_message_shape(self):
        message = hello_message("cam", 240, 180)
        assert message["sensor_id"] == "cam"
        assert message["version"] >= 1


class TestTrackingServer:
    def test_single_sensor_round_trip_matches_batch(self):
        stream = _moving_block_stream(seed=1)
        expected = EbbiotPipeline(EbbiotConfig()).process_stream(stream)
        with AsyncTrackingServer() as server:
            host, port = server.address
            frames, summary = stream_recording(host, port, "cam", stream)
        assert summary["name"] == "cam"
        assert summary["num_events"] == len(stream)
        assert summary["num_frames"] == expected.num_frames
        assert len(frames) == expected.num_frames
        # Track observations on the wire match the batch pipeline's.
        wire_tracks = [track for frame in frames for track in frame["tracks"]]
        assert len(wire_tracks) == expected.total_track_observations()
        for wire, obs in zip(wire_tracks, expected.track_history.observations):
            assert wire["track_id"] == obs.track_id
            assert wire["x"] == pytest.approx(obs.box.x)

    def test_eight_concurrent_sensors(self):
        """The ISSUE acceptance criterion: >= 8 concurrent live sensors."""
        from concurrent.futures import ThreadPoolExecutor

        streams = {f"cam-{i}": _moving_block_stream(seed=i) for i in range(8)}
        with AsyncTrackingServer(hub_config=HubConfig(num_workers=4)) as server:
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
            assert sum(len(f["tracks"]) for f in frames) > 0

    def test_paced_replay_respects_speed_factor(self):
        """``speed=N`` releases batches on the recording's own clock / N."""
        import time

        stream = _moving_block_stream(seed=4, num_frames=8)  # ~0.5 s of stream time
        span_s = (stream.t_end + 1) * 1e-6
        with AsyncTrackingServer() as server:
            host, port = server.address
            started = time.monotonic()
            frames, summary = stream_recording(
                host, port, "fast", stream, speed=4.0
            )
            paced_s = time.monotonic() - started
        assert summary["num_events"] == len(stream)
        assert len(frames) == summary["num_frames"] > 0
        # The replay may not finish faster than stream time / speed (minus
        # one batch of slack for the final window's early release).
        assert paced_s >= span_s / 4.0 - 0.05

    def test_paced_replay_output_matches_unpaced(self):
        stream = _moving_block_stream(seed=5, num_frames=4)
        with AsyncTrackingServer() as server:
            host, port = server.address
            paced_frames, paced = stream_recording(
                host, port, "paced", stream, speed=50.0
            )
            plain_frames, plain = stream_recording(
                host, port, "plain", stream
            )
        assert paced["num_frames"] == plain["num_frames"]
        assert [f["tracks"] for f in paced_frames] == [
            f["tracks"] for f in plain_frames
        ]

    def test_paced_replay_ignores_epoch_offset(self):
        """Pacing is relative to the first event: a recording whose
        timestamps start an hour into sensor uptime must not stall."""
        import time

        from repro.events.types import make_packet

        base = _moving_block_stream(seed=7, num_frames=3)
        # Enough to separate fixed from broken: absolute-time pacing would
        # sleep offset/speed = 7.5 s; kept moderate because the server
        # still frames the (empty) epoch gap on the align-to-zero grid.
        offset_us = 60_000_000
        shifted = EventStream(
            make_packet(
                base.events["x"],
                base.events["y"],
                base.events["t"] + offset_us,
                base.events["p"],
            ),
            240,
            180,
        )
        with AsyncTrackingServer() as server:
            host, port = server.address
            started = time.monotonic()
            frames, summary = stream_recording(
                host, port, "late-epoch", shifted, speed=8.0
            )
            elapsed = time.monotonic() - started
        assert summary["num_events"] == len(shifted)
        # Framing follows the batch path's align-to-zero grid, so the epoch
        # gap yields empty windows (shed-able under backpressure) — but
        # frames must flow and none of the real events may be lost.
        assert 0 < len(frames) <= summary["num_frames"]
        # Absolute-time pacing would sleep offset/speed = 7.5 s here.
        assert elapsed < 4.0

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError, match="speed must be positive"):
            stream_recording("localhost", 1, "x", _moving_block_stream(6), speed=0.0)

    def test_realtime_flag_paces_at_sensor_speed(self):
        import time

        stream = _moving_block_stream(seed=8, num_frames=3)  # ~0.2 s span
        span_s = (stream.t_end + 1) * 1e-6
        with AsyncTrackingServer() as server:
            host, port = server.address
            started = time.monotonic()
            _, summary = stream_recording(host, port, "rt", stream, speed=1.0)
            elapsed = time.monotonic() - started
        assert summary["num_events"] == len(stream)
        # speed=1.0 is sensor real time, not full-speed replay.
        assert elapsed >= span_s - 0.05

    def test_duplicate_sensor_id_rejected(self):
        stream = _moving_block_stream(seed=2)
        with AsyncTrackingServer() as server:
            host, port = server.address
            with SensorClient(host, port, "cam") as first:
                first.send_events(stream.events[:100])
                with pytest.raises((ProtocolError, ConnectionError)):
                    SensorClient(host, port, "cam")
                first.finish()

    def test_stats_request(self):
        stream = _moving_block_stream(seed=3)
        with AsyncTrackingServer() as server:
            host, port = server.address
            with SensorClient(host, port, "cam") as client:
                client.send_events(stream.events)
                telemetry = client.request_stats()
                assert "cam" in telemetry["sensors"]
                client.finish()

    def test_events_before_hello_rejected(self):
        import socket

        with AsyncTrackingServer() as server:
            host, port = server.address
            with socket.create_connection((host, port), timeout=10) as raw:
                raw.sendall(encode_message(events_message(make_packet([], [], [], []))))
                reply = decode_message(raw.makefile("rb").readline())
                assert reply["type"] == "error"
                assert "hello" in reply["message"]

    def test_finish_after_hub_side_removal_replies_error(self):
        with AsyncTrackingServer() as server:
            host, port = server.address
            with SensorClient(host, port, "cam") as client:
                # The hub forgets the sensor while the client still believes
                # it is live; the stray finish must get an error reply, not
                # a silently dropped connection.
                server.hub.close_sensor("cam", timeout=60.0)
                server.hub.remove_sensor("cam")
                with pytest.raises(ProtocolError, match="not registered"):
                    client.finish()
                assert "repro_" in client.request_metrics()

    def test_bad_batches_get_error_replies_and_the_connection_survives(self):
        with AsyncTrackingServer() as server:
            assert_bad_batches_refused(*server.address)

    def test_out_of_bounds_events_reported_as_error(self):
        with AsyncTrackingServer() as server:
            host, port = server.address
            client = SensorClient(host, port, "cam", width=240, height=180)
            bad = make_packet([1000], [10], [5_000], [1])
            client.send_events(bad)
            with pytest.raises(ProtocolError):
                client.request_stats()  # the error reply arrives first
            client.close()


class TestServingCli:
    def test_demo_runs_end_to_end(self, tmp_path, capsys):
        from repro.serving.__main__ import main

        json_path = tmp_path / "fleet.json"
        telemetry_path = tmp_path / "telemetry.json"
        exit_code = main(
            [
                "--sensors",
                "2",
                "--duration",
                "1",
                "--json",
                str(json_path),
                "--telemetry-json",
                str(telemetry_path),
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "fleet:" in captured.out
        payload = json.loads(json_path.read_text())
        assert payload["fleet"]["num_recordings"] == 2
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["totals"]["num_sensors"] == 2
        assert telemetry["totals"]["frames_emitted"] > 0

    def test_cli_rejects_bad_arguments(self, capsys):
        from repro.serving.__main__ import main

        assert main(["--sensors", "0"]) == 2
        assert main(["--duration", "0"]) == 2
        assert main(["--workers", "0"]) == 2


class TestNonDefaultResolution:
    def test_hello_resolution_configures_pipeline(self):
        """A DAVIS346-like sensor must get frames, not silent drops."""
        rng = np.random.default_rng(0)
        xs, ys, ts = [], [], []
        for frame_index in range(8):
            x0 = 280 + 3 * frame_index  # beyond 240: needs the wide config
            t = frame_index * 66_000 + 10_000
            for dy in range(6):
                for dx in range(6):
                    xs.append(x0 + dx)
                    ys.append(200 + dy)  # beyond 180 too
                    ts.append(t + int(rng.integers(0, 40_000)))
        stream = EventStream(make_packet(xs, ys, ts, [1] * len(xs)), 346, 260)

        with AsyncTrackingServer() as server:
            host, port = server.address
            frames, summary = stream_recording(host, port, "davis346", stream)
        assert summary["num_events"] == len(stream)
        assert summary["num_frames"] == len(frames) > 0
        assert sum(len(f["tracks"]) for f in frames) > 0

    def test_disconnect_without_finish_frees_sensor_id(self):
        stream = _moving_block_stream(seed=9)
        with AsyncTrackingServer() as server:
            host, port = server.address
            client = SensorClient(host, port, "cam")
            client.send_events(stream.events)
            client.close()  # abrupt disconnect, no finish
            # Teardown flushes and deregisters; the id becomes reusable.
            import time

            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    frames, summary = stream_recording(host, port, "cam", stream)
                    break
                except (ProtocolError, ConnectionError):
                    time.sleep(0.1)
            else:
                raise AssertionError("sensor id was never freed after disconnect")
            assert summary["num_frames"] > 0


class TestBackendSelection:
    def test_hello_tracker_selects_backend(self):
        """A sensor requesting "kalman" gets the EBBI+KF pipeline end to end."""
        stream = _moving_block_stream(seed=11)
        expected = EbbiotPipeline(EbbiotConfig(tracker="kalman")).process_stream(stream)
        with AsyncTrackingServer() as server:
            host, port = server.address
            with SensorClient(host, port, "cam", tracker="kalman") as client:
                assert client.welcome["tracker"] == "kalman"
                client.send_events(stream.events)
                summary = client.finish()
            telemetry = server.hub.telemetry_dict()
        assert summary["tracker"] == "kalman"
        assert summary["num_frames"] == expected.num_frames
        assert summary["num_track_observations"] == expected.total_track_observations()
        assert telemetry["sensors"]["cam"]["tracker"] == "kalman"
        assert telemetry["totals"]["sensors_by_tracker"] == {"kalman": 1}

    def test_hello_without_tracker_uses_server_default(self):
        stream = _moving_block_stream(seed=12)
        hub_config = HubConfig(pipeline_config=EbbiotConfig(tracker="ebms"))
        with AsyncTrackingServer(hub_config=hub_config) as server:
            host, port = server.address
            with SensorClient(host, port, "cam") as client:
                assert client.welcome["tracker"] == "ebms"
                client.send_events(stream.events)
                summary = client.finish()
        assert summary["tracker"] == "ebms"

    def test_hello_unknown_tracker_rejected(self):
        with AsyncTrackingServer() as server:
            host, port = server.address
            with pytest.raises((ProtocolError, ConnectionError, TimeoutError)):
                SensorClient(host, port, "cam", tracker="made-up")

    def test_mixed_backend_demo_cli(self, tmp_path, capsys):
        from repro.serving.__main__ import main

        json_path = tmp_path / "fleet.json"
        telemetry_path = tmp_path / "telemetry.json"
        exit_code = main(
            [
                "--sensors",
                "2",
                "--duration",
                "1",
                "--tracker",
                "overlap,kalman",
                # --output is the runtime-CLI-parity alias for --json.
                "--output",
                str(json_path),
                "--telemetry-json",
                str(telemetry_path),
            ]
        )
        assert exit_code == 0
        payload = json.loads(json_path.read_text())
        assert sorted(payload["fleet"]["trackers"]) == ["kalman", "overlap"]
        assert set(payload["by_tracker"]) == {"kalman", "overlap"}
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["totals"]["sensors_by_tracker"] == {"overlap": 1, "kalman": 1}

    def test_cli_rejects_unknown_tracker(self, capsys):
        from repro.serving.__main__ import main

        assert main(["--tracker", "made-up"]) == 2
        assert "unknown tracker backend" in capsys.readouterr().err

"""Golden wire transcript of one sensor session, pinned byte for byte.

One fixed recording (two blocks crossing a 240x180 sensor, built by
arithmetic alone) is replayed with :func:`stream_recording` through a TCP
relay that records both directions in front of :class:`AsyncTrackingServer`.
Against the files in ``tests/golden/`` it pins:

* ``wire_v2_client.bin`` -- every byte the client sends: ``hello``, each
  binary ``events`` frame, ``finish``;
* ``wire_v2_server.jsonl`` -- every line the server sends back: ``welcome``
  and each ``frame`` byte for byte, then the ``summary`` with its
  wall-clock fields left out.

The same batches sent as protocol-version-1 JSON-list lines over a raw
socket must get the identical server lines, so a hand-written legacy
client gets the same answers.

After a deliberate wire change, rewrite the files with
``PYTHONPATH=src python tests/test_serving_wire_golden.py`` and review the
diff.
"""

from __future__ import annotations

import json
import socket
import threading
from pathlib import Path
from typing import List

import numpy as np
import pytest

from repro.events.stream import EventStream
from repro.events.types import EVENT_DTYPE, make_packet
from repro.serving import AsyncTrackingServer, HubConfig, stream_recording
from repro.serving.hub import TrackingHub
from repro.serving.process_hub import ProcessTrackingHub
from repro.serving.protocol import decode_message, encode_message

GOLDEN = Path(__file__).parent / "golden"
CLIENT_BYTES = GOLDEN / "wire_v2_client.bin"
SERVER_LINES = GOLDEN / "wire_v2_server.jsonl"

#: Summary fields measured on the wall clock, left out of the pin.
WALL_CLOCK = ("wall_time_s", "events_per_second", "realtime_factor")

HUBS = {"thread": TrackingHub, "process": ProcessTrackingHub}


def golden_recording() -> EventStream:
    """Two 6x6 blocks crossing in opposite directions over 12 EBBI windows.

    Times and polarities come from arithmetic alone, so the recording is
    the same on every platform and NumPy version.
    """
    xs, ys, ts, ps = [], [], [], []
    for frame in range(12):
        for block, (x0, y0, step) in enumerate(((20, 70, 4), (200, 120, -5))):
            for cell in range(36):
                dy, dx = divmod(cell, 6)
                xs.append(x0 + step * frame + dx)
                ys.append(y0 + dy)
                ts.append(frame * 66_000 + 2_000 + (cell * 7_919 + block * 3_001) % 60_000)
                ps.append(1 if (dx + dy + block) % 2 else -1)
    return EventStream(make_packet(xs, ys, ts, ps), 240, 180)


class _Tap:
    """A one-connection TCP relay that records the bytes in each direction."""

    def __init__(self, upstream) -> None:
        self._listener = socket.create_server(("127.0.0.1", 0))
        self.address = self._listener.getsockname()[:2]
        self.sent = bytearray()  # client -> server
        self.received = bytearray()  # server -> client
        self._thread = threading.Thread(target=self._relay, args=(upstream,), daemon=True)
        self._thread.start()

    def _relay(self, upstream) -> None:
        with self._listener:
            client, _ = self._listener.accept()
        with client, socket.create_connection(upstream) as server:
            pumps = [
                threading.Thread(target=_pump, args=(client, server, self.sent)),
                threading.Thread(target=_pump, args=(server, client, self.received)),
            ]
            for pump in pumps:
                pump.start()
            for pump in pumps:
                pump.join()

    def join(self) -> None:
        self._thread.join(timeout=30)
        assert not self._thread.is_alive(), "the relay did not see both ends close"


def _pump(source: socket.socket, sink: socket.socket, log: bytearray) -> None:
    while True:
        data = source.recv(1 << 16)
        if not data:
            break
        log += data
        try:
            sink.sendall(data)
        except OSError:
            pass
    try:
        sink.shutdown(socket.SHUT_WR)
    except OSError:
        pass


def client_messages(data: bytes) -> List[dict]:
    """Split a client byte stream into its messages (binary frames whole)."""
    messages, start = [], 0
    while start < len(data):
        end = data.index(b"\n", start) + 1
        header = decode_message(data[start:end])
        if "count" in header:
            end += header["count"] * EVENT_DTYPE.itemsize
        messages.append(decode_message(data[start:end]))
        start = end
    return messages


def server_lines(data: bytes) -> List[bytes]:
    """The server's lines, the summary's wall-clock fields left out."""
    lines = data.splitlines(keepends=True)
    summary = decode_message(lines[-1])
    assert summary["type"] == "summary", summary
    for field in WALL_CLOCK:
        del summary["recording"][field]
    return lines[:-1] + [encode_message(summary)]


def v1_lines(messages: List[dict]) -> bytes:
    """The same session as protocol-version-1 lines: events as JSON lists."""
    out = []
    for message in messages:
        if message["type"] == "hello":
            message = dict(message, version=1)
        elif message["type"] == "events":
            packet = np.frombuffer(message["records"], dtype=EVENT_DTYPE)
            message = {"type": "events", **{f: packet[f].tolist() for f in "xytp"}}
        out.append(encode_message(message))
    return b"".join(out)


def capture(server: AsyncTrackingServer, sensor_id: str = "golden-cam"):
    """Replay the recording through a tap; return ``(client bytes, server lines)``."""
    tap = _Tap(server.address)
    stream_recording(*tap.address, sensor_id, golden_recording())
    tap.join()
    return bytes(tap.sent), server_lines(bytes(tap.received))


@pytest.mark.parametrize("kind", sorted(HUBS))
def test_wire_transcript_matches_golden(kind):
    golden = SERVER_LINES.read_bytes().splitlines(keepends=True)
    # The pin is small and covers what it means to: both blocks are tracked.
    assert CLIENT_BYTES.stat().st_size + SERVER_LINES.stat().st_size < 64 << 10
    frames = [json.loads(line) for line in golden if b'"type":"frame"' in line]
    assert len({track["track_id"] for frame in frames for track in frame["tracks"]}) == 2
    with AsyncTrackingServer(hub=HUBS[kind](HubConfig(num_workers=2))) as server:
        sent, received = capture(server)
    assert sent == CLIENT_BYTES.read_bytes()
    assert received == golden


@pytest.mark.parametrize("kind", sorted(HUBS))
def test_v1_json_lists_get_the_same_replies(kind):
    messages = client_messages(CLIENT_BYTES.read_bytes())
    assert [m["type"] for m in messages[:2]] == ["hello", "events"]
    assert messages[-1] == {"type": "finish"}
    assert sum(m.get("count", 0) for m in messages) == len(golden_recording())
    with AsyncTrackingServer(hub=HUBS[kind](HubConfig(num_workers=2))) as server:
        with socket.create_connection(server.address, timeout=30) as raw:
            raw.sendall(v1_lines(messages))
            with raw.makefile("rb") as wire:
                lines = []
                while not lines or decode_message(lines[-1])["type"] != "summary":
                    lines.append(wire.readline())
    assert server_lines(b"".join(lines)) == SERVER_LINES.read_bytes().splitlines(keepends=True)


if __name__ == "__main__":
    with AsyncTrackingServer(hub_config=HubConfig(num_workers=2)) as golden_server:
        client_bytes, lines = capture(golden_server)
    GOLDEN.mkdir(exist_ok=True)
    CLIENT_BYTES.write_bytes(client_bytes)
    SERVER_LINES.write_bytes(b"".join(lines))
    print(f"wrote {CLIENT_BYTES} ({len(client_bytes)} B) and {SERVER_LINES} ({len(lines)} lines)")

"""Tests for the shared-memory event ring."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.events.types import EVENT_DTYPE, make_packet
from repro.serving.transport import (
    KIND_CLOSE,
    KIND_EVENTS,
    KIND_REGISTER,
    Record,
    RingFull,
    ShmRing,
    max_payload_bytes,
)


def _payload(num_events: int, seed: int = 0) -> bytes:
    rng = np.random.default_rng(seed)
    packet = make_packet(
        rng.integers(0, 240, num_events),
        rng.integers(0, 180, num_events),
        np.sort(rng.integers(0, 1_000_000, num_events)),
        rng.choice([-1, 1], num_events),
    )
    return packet.tobytes()


@pytest.fixture
def ring():
    ring = ShmRing(capacity_bytes=4096)
    yield ring
    ring.close(unlink=True)


class TestRingRoundTrip:
    def test_records_round_trip_in_order(self, ring):
        payloads = [_payload(17, seed=i) for i in range(5)]
        for index, payload in enumerate(payloads):
            assert ring.try_put(KIND_EVENTS, index, payload)
        assert ring.depth() == 5
        records = ring.get_available()
        assert ring.depth() == 0
        assert [r.sensor_idx for r in records] == list(range(5))
        for record, payload in zip(records, payloads):
            assert record.kind == KIND_EVENTS
            assert record.payload == payload
            decoded = np.frombuffer(record.payload, dtype=EVENT_DTYPE)
            assert decoded.tobytes() == payload

    def test_control_records_carry_empty_payloads(self, ring):
        ring.try_put(KIND_REGISTER, 3, b"")
        ring.try_put(KIND_CLOSE, 3, b"")
        records = ring.get_available()
        assert [(r.kind, r.sensor_idx, r.payload) for r in records] == [
            (KIND_REGISTER, 3, b""),
            (KIND_CLOSE, 3, b""),
        ]

    def test_enqueued_at_preserved(self, ring):
        ring.try_put(KIND_EVENTS, 0, b"x" * 16, enqueued_at=123.5)
        (record,) = ring.get_available()
        assert record.enqueued_at == 123.5

    def test_max_records_bounds_one_drain(self, ring):
        for index in range(10):
            ring.try_put(KIND_EVENTS, index, b"ab")
        first = ring.get_available(max_records=4)
        assert [r.sensor_idx for r in first] == [0, 1, 2, 3]
        rest = ring.get_available()
        assert [r.sensor_idx for r in rest] == [4, 5, 6, 7, 8, 9]

    def test_busy_accounting(self, ring):
        ring.add_busy(0.25)
        ring.add_busy(0.5)
        assert ring.busy_seconds() == pytest.approx(0.75, abs=1e-6)


class TestShmRingEdges:
    def test_wraparound_preserves_payload_bytes(self):
        # Force many wraps: records of ~1/3 capacity cycled hundreds of
        # times, interleaving producer cursor-cache hits and refreshes.
        ring = ShmRing(capacity_bytes=4096)
        try:
            for round_index in range(300):
                payload = bytes([round_index % 256]) * (1100 + round_index % 7)
                assert ring.try_put(KIND_EVENTS, round_index % 17, payload)
                (record,) = ring.get_available()
                assert record.payload == payload
                assert record.sensor_idx == round_index % 17
        finally:
            ring.close(unlink=True)

    def test_record_over_half_the_ring_fits_once_the_wrap_is_passed(self):
        # After a drained 2000-byte record the tail stands at 2017: a
        # 3000-byte record fits neither before the ring's end nor, with the
        # rest of the ring, in one go.  The wrap marker goes out alone; once
        # the consumer has passed it, the record fits at offset 0.
        ring = ShmRing(capacity_bytes=4096)
        try:
            assert ring.try_put(KIND_EVENTS, 0, b"a" * 2000)
            assert len(ring.get_available()) == 1
            payload = bytes(range(256)) * 11 + b"b" * 184
            assert len(payload) == 3000
            assert not ring.try_put(KIND_EVENTS, 1, payload)
            assert ring.depth() == 0
            assert ring.get_available() == []
            assert ring.try_put(KIND_EVENTS, 1, payload)
            (record,) = ring.get_available()
            assert (record.sensor_idx, record.payload) == (1, payload)
        finally:
            ring.close(unlink=True)

    def test_records_of_any_size_pass_a_concurrent_consumer_intact(self):
        # Sizes up to one record's limit, about half of them over half the
        # ring, put with backoff while a consumer thread drains: each
        # record must arrive once, intact and in order.
        ring = ShmRing(capacity_bytes=4096)
        sizes = np.random.default_rng(1).integers(0, max_payload_bytes(4096) + 1, 300)
        payloads = [bytes([index % 256]) * int(size) for index, size in enumerate(sizes)]
        received = []

        def consume():
            while len(received) < len(payloads):
                records = ring.get_available()
                if not records:
                    time.sleep(0.0005)
                received.extend((r.sensor_idx, r.payload) for r in records)

        consumer = threading.Thread(target=consume, daemon=True)
        consumer.start()
        try:
            for index, payload in enumerate(payloads):
                ring.put(KIND_EVENTS, index, payload, timeout=5.0)
            consumer.join(timeout=5.0)
            assert not consumer.is_alive(), "the consumer never drained the ring"
        finally:
            ring.close(unlink=True)
        assert received == list(enumerate(payloads))

    def test_try_put_refuses_when_full_then_recovers(self):
        ring = ShmRing(capacity_bytes=4096)
        try:
            payload = b"z" * 1000
            accepted = 0
            while ring.try_put(KIND_EVENTS, 0, payload):
                accepted += 1
            assert accepted >= 3  # the ring held several records
            assert ring.depth() == accepted
            # Drain, then the producer (with its stale cached head) must
            # observe the freed space and accept again.
            assert len(ring.get_available()) == accepted
            assert ring.try_put(KIND_EVENTS, 0, payload)
        finally:
            ring.close(unlink=True)

    def test_put_raises_ring_full_on_timeout(self):
        ring = ShmRing(capacity_bytes=4096)
        try:
            while ring.try_put(KIND_EVENTS, 0, b"z" * 1000):
                pass
            with pytest.raises(RingFull):
                ring.put(KIND_EVENTS, 0, b"z" * 1000, timeout=0.05)
        finally:
            ring.close(unlink=True)

    def test_oversized_record_rejected_outright(self):
        ring = ShmRing(capacity_bytes=4096)
        try:
            with pytest.raises(ValueError):
                ring.try_put(KIND_EVENTS, 0, b"z" * 5000)
        finally:
            ring.close(unlink=True)

    def test_tiny_capacity_rejected(self):
        with pytest.raises(ValueError):
            ShmRing(capacity_bytes=128)

    def test_close_is_idempotent(self):
        ring = ShmRing(capacity_bytes=4096)
        ring.close(unlink=True)
        ring.close(unlink=True)


class TestRecord:
    def test_record_is_a_cheap_tuple(self):
        record = Record(KIND_EVENTS, 7, 1.0, b"abc")
        kind, sensor_idx, enqueued_at, payload = record
        assert (kind, sensor_idx, enqueued_at, payload) == (
            KIND_EVENTS,
            7,
            1.0,
            b"abc",
        )
        assert isinstance(record, tuple)

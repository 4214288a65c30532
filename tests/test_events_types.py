"""Tests for event packets."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.events.stream import EventStream
from repro.events.types import (
    EVENT_DTYPE,
    concatenate_packets,
    empty_packet,
    is_time_sorted,
    make_packet,
    sort_packet,
    validate_packet,
)


def tie_heavy_packets(low: int = -2):
    """Packets of 0 to 60 events on a 4x4 pixel patch over 4 timestamps.

    The ranges are so small that most events share their stamp, and many
    their stamp and pixel, with either polarity; ``low`` is the least
    coordinate and timestamp.
    """
    value = st.integers(low, low + 3)
    events = st.lists(st.tuples(value, value, value, st.sampled_from([1, -1])), max_size=60)
    return events.map(lambda rows: make_packet(*(zip(*rows) if rows else ([],) * 4)))


class TestMakePacket:
    def test_round_trip_fields(self):
        packet = make_packet([1, 2], [3, 4], [10, 20], [1, -1])
        assert packet.dtype == EVENT_DTYPE
        assert list(packet["x"]) == [1, 2]
        assert list(packet["y"]) == [3, 4]
        assert list(packet["t"]) == [10, 20]
        assert list(packet["p"]) == [1, -1]

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError, match="equal length"):
            make_packet([1, 2], [3], [10, 20], [1, -1])

    def test_invalid_polarity_raises(self):
        with pytest.raises(ValueError, match="polarity"):
            make_packet([1], [2], [3], [0])

    @pytest.mark.parametrize(
        "fields",
        [
            ([65546], [1], [10], [1]),  # int64 x would wrap to 10
            ([1], [-32769], [10], [1]),  # int64 y would wrap to 32767
            ([5.5], [1], [10], [1]),  # float x would truncate to 5
            ([1], [1], [2**63], [1]),  # uint64 t would wrap negative
            ([1], [1], [10.5], [1]),  # float t would truncate to 10
        ],
    )
    def test_values_that_do_not_survive_the_cast_raise(self, fields):
        with pytest.raises(ValueError, match="do not fit"):
            make_packet(*fields)

    def test_polarity_that_would_wrap_to_one_raises(self):
        # 257 casts to int8 as 1: the polarity check must see the source value.
        with pytest.raises(ValueError, match="polarity"):
            make_packet([1], [2], [3], [257])

    def test_safe_dtypes_and_exact_values_are_kept(self):
        packet = make_packet(
            np.array([0, 32767], dtype=np.int16),
            np.array([5.0, 6.0]),
            np.array([-(2**63), 2**63 - 1]),
            np.array([1, -1], dtype=np.int8),
        )
        assert packet["x"].tolist() == [0, 32767]
        assert packet["y"].tolist() == [5, 6]
        assert packet["t"].tolist() == [-(2**63), 2**63 - 1]
        assert packet["p"].tolist() == [1, -1]

    def test_empty_packet(self):
        packet = empty_packet()
        assert len(packet) == 0
        assert packet.dtype == EVENT_DTYPE


class TestConcatenateAndValidate:
    def test_concatenate_sorts_by_time(self):
        a = make_packet([1], [1], [200], [1])
        b = make_packet([2], [2], [100], [-1])
        merged = concatenate_packets([a, b])
        assert list(merged["t"]) == [100, 200]

    def test_concatenate_empty_list(self):
        assert len(concatenate_packets([])) == 0

    def test_concatenate_skips_empty_packets(self):
        a = make_packet([1], [1], [100], [1])
        merged = concatenate_packets([empty_packet(), a, empty_packet()])
        assert len(merged) == 1

    def test_validate_in_bounds(self):
        packet = make_packet([0, 239], [0, 179], [0, 1], [1, 1])
        validate_packet(packet, 240, 180)

    def test_validate_out_of_bounds_x(self):
        packet = make_packet([240], [0], [0], [1])
        with pytest.raises(ValueError, match="x coordinates"):
            validate_packet(packet, 240, 180)

    def test_validate_out_of_bounds_y(self):
        packet = make_packet([0], [180], [0], [1])
        with pytest.raises(ValueError, match="y coordinates"):
            validate_packet(packet, 240, 180)

    def test_is_time_sorted(self):
        assert is_time_sorted(make_packet([1, 2], [1, 2], [1, 2], [1, 1]))
        assert not is_time_sorted(make_packet([1, 2], [1, 2], [2, 1], [1, 1]))
        assert is_time_sorted(empty_packet())


class TestPacketProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 239),
                st.integers(0, 179),
                st.integers(0, 10**9),
                st.sampled_from([1, -1]),
            ),
            max_size=50,
        )
    )
    def test_concatenation_is_sorted_and_preserves_count(self, events):
        if events:
            xs, ys, ts, ps = zip(*events)
        else:
            xs, ys, ts, ps = [], [], [], []
        packet = make_packet(xs, ys, ts, ps)
        half = len(packet) // 2
        merged = concatenate_packets([packet[:half], packet[half:]])
        assert len(merged) == len(packet)
        assert is_time_sorted(merged)


class TestSortPacket:
    """``sort_packet`` gives the bytes of NumPy's structured sort on ``t``."""

    @settings(max_examples=300)
    @given(tie_heavy_packets())
    @example(empty_packet())
    @example(make_packet([3], [1], [7], [-1]))
    def test_same_bytes_as_structured_sort(self, packet):
        before = packet.tobytes()
        expected = packet.copy()
        expected.sort(order="t")
        result = sort_packet(packet)
        assert result.dtype == EVENT_DTYPE
        assert result.tobytes() == expected.tobytes()
        assert packet.tobytes() == before

    @settings(max_examples=300)
    @given(tie_heavy_packets(low=0), st.integers(0, 2**32 - 1))
    def test_reorders_like_fancy_indexing(self, packet, seed):
        """``EventStream`` and ``concatenate_packets`` keep their stable ``t`` order."""
        shuffled = packet[np.random.default_rng(seed).permutation(len(packet))]
        expected = shuffled[np.argsort(shuffled["t"], kind="stable")]
        assert EventStream(shuffled, 4, 4).events.tobytes() == expected.tobytes()
        half = len(shuffled) // 2
        merged = concatenate_packets([shuffled[:half], shuffled[half:]])
        assert merged.tobytes() == expected.tobytes()


@st.composite
def spread_packets(draw):
    """Packets of 0 to 80 events whose stamps span up to 2^62 us.

    Coordinates cover the whole int16 range, so their two widths take up
    to 32 bits and a stamp span past ~2^29 us leaves no room for one
    63-bit key: the lexsort takes over.
    """
    t_bits = draw(st.sampled_from([0, 3, 20, 40, 62]))
    t_low = draw(st.integers(-(2**62), 2**62 - 2**t_bits))
    xy = st.integers(-(2**15), 2**15 - 1)
    rows = draw(st.lists(
        st.tuples(xy, xy, st.integers(t_low, t_low + 2**t_bits), st.sampled_from([1, -1])),
        max_size=80,
    ))
    return make_packet(*(zip(*rows) if rows else ([],) * 4))


class TestSortPacketKey:
    """The packed-key sort against the four-column ``lexsort`` it replaces."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(tie_heavy_packets(), spread_packets()))
    # Packed widths 8 + 16 + 16 + 2: the int64 key with room to spare.
    @example(make_packet([-32768, 32767, 0, 0], [5, -32768, 32767, 5], [255, 0, 0, 255], [1, -1, 1, -1]))
    # A stamp span of 2^63: t alone needs 64 bits, so the lexsort must sort it.
    @example(make_packet([1, 0, 1, 0], [0, 0, 0, 0], [2**62, -(2**62), 0, 0], [1, 1, -1, 1]))
    def test_same_bytes_as_lexsort(self, packet):
        expected = np.take(
            packet, np.lexsort((packet["p"], packet["y"], packet["x"], packet["t"]))
        )
        assert sort_packet(packet).tobytes() == expected.tobytes()

    def test_wide_packets_fall_back_to_the_lexsort(self, monkeypatch):
        narrow = make_packet([2, 1], [0, 0], [5, 5], [1, 1])
        wide = make_packet([2, 1], [0, 0], [2**62, 0], [1, 1])  # 63 + 1 bits
        calls = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort", lambda keys: calls.append(1) or lexsort(keys))
        assert sort_packet(narrow)["x"].tolist() == [1, 2]
        assert calls == []
        assert sort_packet(wide)["t"].tolist() == [0, 2**62]
        assert calls == [1]


class TestNormalizePacket:
    def test_canonical_dtype_is_returned_unchanged(self):
        from repro.events.types import normalize_packet

        packet = make_packet([1], [2], [3], [1])
        assert normalize_packet(packet) is packet

    def test_reordered_fields_are_normalized(self):
        from repro.events.types import EVENT_DTYPE, normalize_packet

        reordered_dtype = np.dtype(
            [("t", np.int64), ("p", np.int8), ("x", np.int16), ("y", np.int16)]
        )
        reordered = np.zeros(2, dtype=reordered_dtype)
        reordered["x"] = [5, 6]
        reordered["y"] = [7, 8]
        reordered["t"] = [100, 200]
        reordered["p"] = [1, -1]
        normalized = normalize_packet(reordered)
        assert normalized.dtype == EVENT_DTYPE
        assert normalized["x"].tolist() == [5, 6]
        assert normalized["t"].tolist() == [100, 200]
        assert normalized["p"].tolist() == [1, -1]

    def test_wider_field_types_are_cast(self):
        from repro.events.types import EVENT_DTYPE, normalize_packet

        wide_dtype = np.dtype(
            [("x", np.int64), ("y", np.int64), ("t", np.int64), ("p", np.int64)]
        )
        wide = np.zeros(1, dtype=wide_dtype)
        wide["x"] = 12
        normalized = normalize_packet(wide)
        assert normalized.dtype == EVENT_DTYPE
        assert normalized["x"][0] == 12

    def test_missing_fields_rejected(self):
        from repro.events.types import normalize_packet

        bad = np.zeros(1, dtype=np.dtype([("x", np.int16), ("y", np.int16)]))
        with pytest.raises(TypeError):
            normalize_packet(bad)
        with pytest.raises(TypeError):
            normalize_packet(np.zeros(3))

    def test_overflowing_values_rejected_not_wrapped(self):
        from repro.events.types import normalize_packet

        wide = np.zeros(1, dtype=np.dtype(
            [("x", np.int64), ("y", np.int64), ("t", np.int64), ("p", np.int64)]
        ))
        wide["x"] = 65_546  # would silently wrap to 10 in int16
        with pytest.raises(ValueError):
            normalize_packet(wide)

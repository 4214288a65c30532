"""Tests for event stream IO."""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.events.io import (
    EVENT_FORMATS,
    load_events,
    load_events_aedat2,
    load_events_csv,
    load_events_npz,
    load_events_txt,
    save_events_aedat2,
    save_events_csv,
    save_events_npz,
    save_events_txt,
)
from repro.events.stream import EventStream
from repro.events.types import empty_packet, make_packet


def _load_without_warnings(load, path) -> EventStream:
    """``load(path)``, failing on any warning it raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load(path)


@pytest.fixture
def sample_stream() -> EventStream:
    packet = make_packet(
        [0, 10, 239, 100], [0, 20, 179, 90], [0, 1000, 2000, 3000], [1, -1, 1, -1]
    )
    return EventStream(packet, 240, 180)


class TestNpzRoundTrip:
    def test_round_trip(self, tmp_path, sample_stream):
        path = tmp_path / "events.npz"
        save_events_npz(path, sample_stream)
        loaded = load_events_npz(path)
        assert loaded.resolution == (240, 180)
        np.testing.assert_array_equal(loaded.events, sample_stream.events)

    def test_empty_stream_round_trip(self, tmp_path):
        path = tmp_path / "empty.npz"
        save_events_npz(path, EventStream(empty_packet(), 240, 180))
        loaded = load_events_npz(path)
        assert len(loaded) == 0

    def test_missing_keys_raises(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError, match="missing keys"):
            load_events_npz(path)


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, sample_stream):
        path = tmp_path / "events.csv"
        save_events_csv(path, sample_stream)
        loaded = load_events_csv(path)
        assert loaded.resolution == (240, 180)
        np.testing.assert_array_equal(loaded.events["x"], sample_stream.events["x"])
        np.testing.assert_array_equal(loaded.events["t"], sample_stream.events["t"])

    def test_explicit_resolution_overrides_header(self, tmp_path, sample_stream):
        path = tmp_path / "events.csv"
        save_events_csv(path, sample_stream)
        loaded = load_events_csv(path, width=480, height=360)
        assert loaded.resolution == (480, 360)

    def test_missing_header_requires_resolution(self, tmp_path):
        path = tmp_path / "noheader.csv"
        path.write_text("x,y,t,p\n1,2,3,1\n")
        with pytest.raises(ValueError, match="resolution"):
            load_events_csv(path)

    def test_negative_stamp_is_refused(self, tmp_path):
        path = tmp_path / "early.csv"
        path.write_text("# width=240 height=180\nx,y,t,p\n1,2,-3,1\n4,5,6,-1\n")
        with pytest.raises(ValueError, match=r"^1 event\(s\) stamped before t = 0"):
            load_events(path)

    def test_empty_csv_round_trip(self, tmp_path):
        path = tmp_path / "empty.csv"
        save_events_csv(path, EventStream(empty_packet(), 240, 180))
        assert len(_load_without_warnings(load_events_csv, path)) == 0
        # Blank and comment lines after the column names are not rows either.
        path.write_text(path.read_text() + "\n  # no events\n\n")
        assert len(_load_without_warnings(load_events_csv, path)) == 0


class TestSuffixNormalization:
    """Regression tests: NumPy appends ``.npz`` on save, so a suffix-less
    path used to save fine but fail every subsequent load."""

    def test_save_without_suffix_then_load_same_path(self, tmp_path, sample_stream):
        path = tmp_path / "events"  # no .npz
        save_events_npz(path, sample_stream)
        assert (tmp_path / "events.npz").exists()
        loaded = load_events_npz(path)  # the exact path the caller saved with
        np.testing.assert_array_equal(loaded.events, sample_stream.events)

    def test_save_without_suffix_then_load_with_suffix(self, tmp_path, sample_stream):
        save_events_npz(tmp_path / "events", sample_stream)
        loaded = load_events_npz(tmp_path / "events.npz")
        np.testing.assert_array_equal(loaded.events, sample_stream.events)

    def test_dotted_name_keeps_its_dots(self, tmp_path, sample_stream):
        path = tmp_path / "site.v2"  # suffix-like dot in the stem
        save_events_npz(path, sample_stream)
        assert (tmp_path / "site.v2.npz").exists()
        loaded = load_events_npz(path)
        np.testing.assert_array_equal(loaded.events, sample_stream.events)


class TestCsvHeaderDetection:
    """Regression tests: the loader hard-coded ``skiprows=2``, silently
    dropping the first event of files without the resolution comment."""

    def test_headerless_csv_keeps_first_row(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("5,6,100,1\n7,8,200,-1\n")
        loaded = load_events_csv(path, width=240, height=180)
        assert len(loaded) == 2
        assert int(loaded.events["x"][0]) == 5
        assert int(loaded.events["t"][0]) == 100

    def test_column_header_only_csv(self, tmp_path):
        path = tmp_path / "cols.csv"
        path.write_text("x,y,t,p\n5,6,100,1\n7,8,200,-1\n")
        loaded = load_events_csv(path, width=240, height=180)
        assert len(loaded) == 2
        assert int(loaded.events["x"][0]) == 5

    def test_crlf_csv(self, tmp_path, sample_stream):
        path = tmp_path / "crlf.csv"
        save_events_csv(path, sample_stream)
        path.write_bytes(path.read_text().replace("\n", "\r\n").encode())
        loaded = load_events_csv(path)
        assert loaded.resolution == (240, 180)
        np.testing.assert_array_equal(loaded.events, sample_stream.events)

    def test_malformed_rows_raise_instead_of_loading_empty(self, tmp_path):
        # Regression: non-integer rows must not be consumed as an
        # ever-longer "header" that silently yields an empty stream.
        path = tmp_path / "floats.csv"
        path.write_text("5.0,6.0,100,1\n7.0,8.0,200,-1\n")
        with pytest.raises(ValueError):
            load_events_csv(path, width=240, height=180)

    def test_coordinate_that_would_wrap_raises(self, tmp_path):
        # Regression: rows are read as int64 and were cast to int16 unchecked,
        # so x=65546 loaded as x=10 and passed the resolution check.
        path = tmp_path / "wrap.csv"
        path.write_text("65546,6,100,1\n")
        with pytest.raises(ValueError, match="do not fit"):
            load_events_csv(path, width=240, height=180)

    def test_resolution_comment_split_across_lines(self, tmp_path):
        path = tmp_path / "split.csv"
        path.write_text("# width=240\n# height=180\nx,y,t,p\n1,2,3,1\n")
        loaded = load_events_csv(path)
        assert loaded.resolution == (240, 180)
        assert len(loaded) == 1

    def test_extra_comment_lines(self, tmp_path):
        path = tmp_path / "comments.csv"
        path.write_text(
            "# exported by some tool\n# width=240 height=180\n# note\nx,y,t,p\n1,2,3,1\n"
        )
        loaded = load_events_csv(path)
        assert loaded.resolution == (240, 180)
        assert len(loaded) == 1

    def test_rows_after_comments_below_the_column_names_are_read(self, tmp_path):
        path = tmp_path / "notes.csv"
        path.write_text(
            "# width=240 height=180\nx,y,t,p\n# a note\n\n1,2,3,1 # first\n4,5,6,-1\n"
        )
        loaded = _load_without_warnings(load_events_csv, path)
        np.testing.assert_array_equal(
            loaded.events, make_packet([1, 4], [2, 5], [3, 6], [1, -1])
        )


class TestArchiveValidation:
    def test_unsupported_format_version(self, tmp_path, sample_stream):
        path = tmp_path / "future.npz"
        np.savez(
            path,
            x=sample_stream.events["x"],
            y=sample_stream.events["y"],
            t=sample_stream.events["t"],
            p=sample_stream.events["p"],
            width=np.int64(240),
            height=np.int64(180),
            format_version=np.int64(99),
        )
        with pytest.raises(ValueError, match="format_version 99"):
            load_events_npz(path)

    def test_error_names_the_file(self, tmp_path):
        path = tmp_path / "bogus.npz"
        np.savez(path, foo=np.arange(3))
        with pytest.raises(ValueError, match="bogus.npz"):
            load_events_npz(path)

    @pytest.mark.parametrize("key", ["x", "y", "t", "p", "width", "height"])
    def test_each_missing_key_is_named(self, tmp_path, sample_stream, key):
        path = tmp_path / "events.npz"
        save_events_npz(path, sample_stream)
        with np.load(path) as archive:
            data = {name: archive[name] for name in archive.files if name != key}
        np.savez(path, **data)
        with pytest.raises(ValueError, match=rf"events\.npz .*missing keys \['{key}'\]"):
            load_events_npz(path)


class TestAedat2RoundTrip:
    def test_round_trip(self, tmp_path, sample_stream):
        path = tmp_path / "events.aedat"
        save_events_aedat2(path, sample_stream)
        loaded = load_events_aedat2(path)
        assert loaded.resolution == (240, 180)
        np.testing.assert_array_equal(loaded.events, sample_stream.events)

    def test_polarity_survives(self, tmp_path):
        stream = EventStream(
            make_packet([1, 2, 3], [4, 5, 6], [10, 20, 30], [1, -1, 1]), 240, 180
        )
        path = tmp_path / "p.aedat"
        save_events_aedat2(path, stream)
        np.testing.assert_array_equal(
            load_events_aedat2(path).events["p"], [1, -1, 1]
        )

    def test_empty_stream_round_trip(self, tmp_path):
        path = tmp_path / "empty.aedat"
        save_events_aedat2(path, EventStream(empty_packet(), 240, 180))
        loaded = load_events_aedat2(path)
        assert len(loaded) == 0
        assert loaded.resolution == (240, 180)

    def test_missing_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.aedat"
        path.write_bytes(b"not an aedat file")
        with pytest.raises(ValueError, match="AER-DAT2.0"):
            load_events_aedat2(path)

    def test_truncated_payload_rejected(self, tmp_path, sample_stream):
        path = tmp_path / "trunc.aedat"
        save_events_aedat2(path, sample_stream)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_events_aedat2(path)

    def test_aps_words_are_skipped(self, tmp_path, sample_stream):
        path = tmp_path / "aps.aedat"
        save_events_aedat2(path, sample_stream)
        aps_word = np.asarray([1 << 31, 12345], dtype=">u4")  # bit 31 = non-DVS
        path.write_bytes(path.read_bytes() + aps_word.tobytes())
        loaded = load_events_aedat2(path)
        np.testing.assert_array_equal(loaded.events, sample_stream.events)

    def test_resolution_override(self, tmp_path, sample_stream):
        path = tmp_path / "events.aedat"
        save_events_aedat2(path, sample_stream)
        assert load_events_aedat2(path, width=480, height=360).resolution == (480, 360)

    def test_headers_without_resolution_default_to_davis240(self, tmp_path, sample_stream):
        path = tmp_path / "bare.aedat"
        save_events_aedat2(path, sample_stream)
        raw = path.read_bytes()
        head, _, tail = raw.partition(b"# width=240 height=180\r\n")
        path.write_bytes(head + tail)
        assert load_events_aedat2(path).resolution == (240, 180)

    def test_first_event_y_140_to_143_round_trips(self, tmp_path):
        # Regression: the address word of an event with y in [140, 143] has
        # high byte 0x23 ('#'); a naive header scan consumes the whole
        # payload as comment lines and silently returns an empty stream.
        for y in (140, 141, 142, 143):
            stream = EventStream(
                make_packet([10, 20], [y, 50], [5, 15], [1, -1]), 240, 180
            )
            path = tmp_path / f"hash-{y}.aedat"
            save_events_aedat2(path, stream)
            loaded = load_events_aedat2(path)
            np.testing.assert_array_equal(loaded.events, stream.events)

    def test_timestamps_must_fit_int32(self, tmp_path):
        # jAER decodes timestamps as signed int32; 2**31 is the first value
        # that would silently wrap negative there.
        stream = EventStream(make_packet([1], [1], [2**31], [1]), 240, 180)
        with pytest.raises(ValueError, match="int32"):
            save_events_aedat2(tmp_path / "big.aedat", stream)
        ok = EventStream(make_packet([1], [1], [2**31 - 1], [1]), 240, 180)
        save_events_aedat2(tmp_path / "ok.aedat", ok)
        assert int(load_events_aedat2(tmp_path / "ok.aedat").events["t"][0]) == 2**31 - 1

    def test_resolution_must_fit_address_map(self, tmp_path):
        stream = EventStream(empty_packet(), 2048, 180)
        with pytest.raises(ValueError, match="address map"):
            save_events_aedat2(tmp_path / "wide.aedat", stream)


class TestTxtRoundTrip:
    def test_round_trip(self, tmp_path, sample_stream):
        path = tmp_path / "events.txt"
        save_events_txt(path, sample_stream)
        loaded = load_events_txt(path)
        assert loaded.resolution == (240, 180)
        np.testing.assert_array_equal(loaded.events, sample_stream.events)

    def test_empty_round_trip(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_events_txt(path, EventStream(empty_packet(), 240, 180))
        assert len(_load_without_warnings(load_events_txt, path)) == 0

    def test_crlf_txt(self, tmp_path, sample_stream):
        path = tmp_path / "crlf.txt"
        save_events_txt(path, sample_stream)
        path.write_bytes(path.read_text().replace("\n", "\r\n").encode())
        np.testing.assert_array_equal(
            load_events_txt(path).events, sample_stream.events
        )

    def test_one_corrupt_resolution_value_keeps_the_other(self, tmp_path):
        path = tmp_path / "corrupt.txt"
        path.write_text("# width=128 height=12O\n100 1 2 1\n")  # height typo
        loaded = load_events_txt(path)
        assert loaded.resolution == (128, 180)  # width kept, height defaulted

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2 3\n")
        with pytest.raises(ValueError, match="4 columns"):
            load_events_txt(path)


class TestLoadEventsDispatcher:
    def test_dispatch_by_suffix(self, tmp_path, sample_stream):
        for name, fmt in EVENT_FORMATS.items():
            path = tmp_path / f"events{fmt.suffix}"
            fmt.save(path, sample_stream)
            loaded = load_events(path)
            np.testing.assert_array_equal(loaded.events, sample_stream.events, err_msg=name)

    def test_explicit_format_overrides_suffix(self, tmp_path, sample_stream):
        path = tmp_path / "events.dat"  # jAER's other aedat suffix
        save_events_aedat2(path, sample_stream)
        assert len(load_events(path)) == len(sample_stream)
        assert len(load_events(path, format="aedat2")) == len(sample_stream)

    def test_unknown_suffix_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="cannot infer"):
            load_events(tmp_path / "events.xyz")

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown event format"):
            load_events(tmp_path / "events.csv", format="bogus")


class TestEveryFormatRoundTrip:
    """What each registered format must carry through a save and a load."""

    @pytest.mark.parametrize("name", sorted(EVENT_FORMATS))
    def test_non_davis240_resolution_survives(self, tmp_path, name):
        # A DAVIS346 stream with events on its far corner: the resolution
        # header, not the DAVIS240 default, must decide the loaded size.
        stream = EventStream(make_packet([0, 345], [0, 259], [0, 10], [1, -1]), 346, 260)
        fmt = EVENT_FORMATS[name]
        path = tmp_path / f"events{fmt.suffix}"
        fmt.save(path, stream)
        loaded = load_events(path)
        assert loaded.resolution == (346, 260)
        np.testing.assert_array_equal(loaded.events, stream.events)

    @pytest.mark.parametrize("name", sorted(EVENT_FORMATS))
    def test_empty_stream_keeps_its_resolution(self, tmp_path, name):
        fmt = EVENT_FORMATS[name]
        path = tmp_path / f"empty{fmt.suffix}"
        fmt.save(path, EventStream(empty_packet(), 128, 128))
        loaded = _load_without_warnings(load_events, path)
        assert len(loaded) == 0
        assert loaded.resolution == (128, 128)

    @pytest.mark.parametrize("name", sorted(EVENT_FORMATS))
    def test_same_timestamp_burst_keeps_its_order(self, tmp_path, name):
        # Events sharing a timestamp, including repeats of one pixel with
        # both polarities: the file order is the only order they have.
        stream = EventStream(
            make_packet([5, 5, 9, 5, 2], [7, 7, 3, 7, 1], [40, 40, 40, 40, 41], [1, -1, -1, 1, 1]),
            240,
            180,
        )
        fmt = EVENT_FORMATS[name]
        path = tmp_path / f"burst{fmt.suffix}"
        fmt.save(path, stream)
        np.testing.assert_array_equal(load_events(path).events, stream.events)

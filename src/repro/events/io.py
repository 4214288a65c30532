"""Saving and loading event streams.

Four interchange formats are supported:

* **npz** — compressed NumPy archive; the native format of this library.
* **csv** — one event per line, ``x,y,t,p``; interoperable with text-based
  AER tooling.
* **aedat2** — jAER-style AEDAT 2.0 binary: ``#``-prefixed header lines
  followed by big-endian ``(address, timestamp)`` uint32 pairs with the
  DAVIS240 address map (the format the paper's recordings ship in).
* **txt** — jAER-style text: one ``t x y p`` line per event with ``p`` in
  ``{0, 1}``.

:data:`EVENT_FORMATS` maps format names to their reader/writer pair, and
:func:`load_events` dispatches on a file's suffix — that registry is what
the recorded-dataset layer (:mod:`repro.datasets.recorded`) builds on.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.events.stream import EventStream
from repro.events.types import empty_packet, make_packet

PathLike = Union[str, Path]

_FORMAT_VERSION = 1

#: AEDAT 2.0 magic header line (jAER writes it with a CRLF terminator).
AEDAT2_MAGIC = "#!AER-DAT2.0"

# DAVIS240 address map (jAER convention): y in bits 22-30, x in bits 12-21,
# polarity in bit 11; bit 31 flags non-DVS (APS / IMU) events.
_AEDAT2_Y_SHIFT = 22
_AEDAT2_X_SHIFT = 12
_AEDAT2_POLARITY_SHIFT = 11
_AEDAT2_X_MAX = 1 << 10
_AEDAT2_Y_MAX = 1 << 9
_AEDAT2_APS_MASK = np.uint32(1 << 31)


def _npz_path(path: PathLike) -> Path:
    """The path NumPy actually writes: ``np.savez`` appends ``.npz``.

    Normalising the suffix at both ends makes every save→load round trip
    succeed whether or not the caller spelled the suffix out.
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def _existing_npz_path(path: PathLike) -> Path:
    """Resolve a load path as saved: prefer the exact path, else ``+ .npz``."""
    path = Path(path)
    if path.exists():
        return path
    normalized = _npz_path(path)
    if normalized != path and normalized.exists():
        return normalized
    return path  # let np.load raise the usual FileNotFoundError


# -- npz ---------------------------------------------------------------------------------


def save_events_npz(path: PathLike, stream: EventStream) -> None:
    """Save an event stream to a compressed ``.npz`` archive.

    The suffix is normalised (``np.savez`` appends ``.npz`` regardless), so
    ``save_events_npz("a") ; load_events_npz("a")`` round-trips.
    """
    np.savez_compressed(
        _npz_path(path),
        x=stream.events["x"],
        y=stream.events["y"],
        t=stream.events["t"],
        p=stream.events["p"],
        width=np.int64(stream.width),
        height=np.int64(stream.height),
        format_version=np.int64(_FORMAT_VERSION),
    )


def load_events_npz(path: PathLike) -> EventStream:
    """Load an event stream saved by :func:`save_events_npz`.

    Raises
    ------
    ValueError
        Naming the file and what is wrong: missing keys, or a
        ``format_version`` this library does not understand.  Malformed
        archives must never surface as raw :class:`KeyError` — the dataset
        layer hits files written by other tools constantly.
    """
    path = _existing_npz_path(path)
    with np.load(path, allow_pickle=False) as archive:
        missing = sorted({"x", "y", "t", "p", "width", "height"} - set(archive.files))
        if missing:
            raise ValueError(f"{path} is not a valid event archive: missing keys {missing}")
        if "format_version" in archive.files:
            version = int(archive["format_version"])
            if not 1 <= version <= _FORMAT_VERSION:
                raise ValueError(
                    f"{path}: unsupported event format_version {version} "
                    f"(this library reads versions 1..{_FORMAT_VERSION})"
                )
        events = make_packet(archive["x"], archive["y"], archive["t"], archive["p"])
        return EventStream(events, int(archive["width"]), int(archive["height"]))


# -- csv ---------------------------------------------------------------------------------


def save_events_csv(path: PathLike, stream: EventStream) -> None:
    """Save an event stream to a CSV file with header ``x,y,t,p``."""
    path = Path(path)
    header = f"# width={stream.width} height={stream.height}\nx,y,t,p"
    data = np.column_stack(
        [stream.events["x"], stream.events["y"], stream.events["t"], stream.events["p"]]
    )
    np.savetxt(path, data, fmt="%d", delimiter=",", header=header, comments="")


def _parse_resolution_comment(line: str) -> tuple:
    """``(width, height)`` from a ``# width=.. height=..`` comment.

    Each dimension parses independently — one corrupt value must not
    discard the other (a wrong ``None`` can silently become the DAVIS240
    default in the formats that carry no other resolution record).
    """
    parts = dict(
        token.split("=", 1) for token in line.lstrip("# ").split() if "=" in token
    )

    def parse(key: str) -> Optional[int]:
        try:
            return int(parts[key]) or None
        except (KeyError, ValueError):
            return None

    return parse("width"), parse("height")


def _scan_csv_header(path: Path) -> tuple:
    """``(num_header_lines, width, height, has_data)`` of a CSV event file.

    Header lines are ``#`` comments, blank lines, and at most one
    ``x,y,t,p`` column-name line; the count is whatever the file actually
    contains (hard-coding it silently dropped the first event of headerless
    files).  Scanning stops at the first data-or-garbage line so a
    malformed file fails loudly in ``loadtxt`` instead of being consumed
    as an ever-longer "header".  ``has_data`` is false when no line after
    the header is a row for ``loadtxt``.
    """
    skip = 0
    width = height = None
    with open(path, newline="") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                skip += 1
                continue
            if stripped.startswith("#"):
                file_width, file_height = _parse_resolution_comment(stripped)
                if width is None:
                    width = file_width
                if height is None:
                    height = file_height
                skip += 1
                continue
            try:
                int(stripped.split(",", 1)[0])
            except ValueError:
                skip += 1  # the one allowed column-name header line
                # loadtxt reads a row from any line with text before a '#'.
                return skip, width, height, any(rest.split("#", 1)[0].strip() for rest in handle)
            return skip, width, height, True  # a data row (or malformed content for loadtxt)
    return skip, width, height, False


def load_events_csv(
    path: PathLike, width: Optional[int] = None, height: Optional[int] = None
) -> EventStream:
    """Load an event stream from CSV written by :func:`save_events_csv`.

    The sensor resolution is read from the ``# width=.. height=..`` comment
    line when present; explicit ``width``/``height`` arguments override it.
    Files without the comment line and/or the ``x,y,t,p`` column header load
    correctly — the header length is detected, not assumed.
    """
    path = Path(path)
    skip, file_width, file_height, has_data = _scan_csv_header(path)
    width = width if width is not None else file_width
    height = height if height is not None else file_height
    if width is None or height is None:
        raise ValueError(
            f"{path} has no resolution header; pass width= and height= explicitly"
        )
    if not has_data:  # loadtxt would warn that the file holds no rows
        return EventStream(empty_packet(), width, height)
    data = np.loadtxt(path, dtype=np.int64, delimiter=",", skiprows=skip, ndmin=2)
    return EventStream(make_packet(data[:, 0], data[:, 1], data[:, 2], data[:, 3]), width, height)


# -- AEDAT 2.0 binary --------------------------------------------------------------------


def save_events_aedat2(path: PathLike, stream: EventStream) -> None:
    """Save an event stream as a jAER-style AEDAT 2.0 binary file.

    ``#``-prefixed CRLF header lines (magic, resolution comment) followed by
    big-endian ``(address, timestamp)`` uint32 pairs using the DAVIS240
    address map.  Raises :class:`ValueError` when the stream does not fit
    the address map (x >= 1024, y >= 512) or the signed int32 microsecond
    timestamp range jAER decodes.
    """
    path = Path(path)
    events = stream.events
    if stream.width > _AEDAT2_X_MAX or stream.height > _AEDAT2_Y_MAX:
        raise ValueError(
            f"resolution {stream.width}x{stream.height} does not fit the "
            f"AEDAT 2.0 DAVIS address map ({_AEDAT2_X_MAX}x{_AEDAT2_Y_MAX})"
        )
    if len(events) and (events["t"].min() < 0 or events["t"].max() >= 2**31):
        # jAER reads timestamps as *signed* int32 (with wrap events this
        # writer does not emit), so larger values would save "successfully"
        # but decode as garbage in the stated interop target.
        raise ValueError(
            f"timestamps [{events['t'].min()}, {events['t'].max()}] do not fit "
            "the AEDAT 2.0 signed int32 microsecond range; use the npz format "
            "for recordings longer than ~35 minutes of sensor uptime"
        )
    header = (
        f"{AEDAT2_MAGIC}\r\n"
        "# This is a raw AE data file - do not edit\r\n"
        "# Data format is int32 address, int32 timestamp (8 bytes total), "
        "big endian\r\n"
        f"# width={stream.width} height={stream.height}\r\n"
    )
    address = (
        (events["y"].astype(np.uint32) << _AEDAT2_Y_SHIFT)
        | (events["x"].astype(np.uint32) << _AEDAT2_X_SHIFT)
        | ((events["p"] == 1).astype(np.uint32) << _AEDAT2_POLARITY_SHIFT)
    )
    words = np.empty(2 * len(events), dtype=">u4")
    words[0::2] = address
    words[1::2] = events["t"].astype(np.uint32)
    with open(path, "wb") as handle:
        handle.write(header.encode("ascii"))
        handle.write(words.tobytes())


def _is_printable_header_line(line: bytes) -> bool:
    """True when ``line`` could be an ASCII header line, not binary payload.

    A payload word can legitimately start with ``0x23`` (``'#'``) — e.g. a
    DVS address whose ``y`` is 140–143 — so '#' alone must not decide;
    genuine jAER header lines are printable ASCII (plus tab/CR).
    """
    return all(0x20 <= byte <= 0x7E or byte in (0x09, 0x0D) for byte in line)


def _split_aedat2_header(raw: bytes, path: Path) -> tuple:
    """``(header_lines, payload)`` of an AEDAT 2.0 buffer."""
    lines = []
    offset = 0
    while offset < len(raw) and raw[offset : offset + 1] == b"#":
        end = raw.find(b"\n", offset)
        if end < 0 or not _is_printable_header_line(raw[offset:end]):
            break  # binary payload that merely starts with a '#' byte
        lines.append(raw[offset:end].decode("ascii").rstrip("\r"))
        offset = end + 1
    if not lines or not lines[0].startswith(AEDAT2_MAGIC):
        raise ValueError(
            f"{path} is not an AEDAT 2.0 file: missing {AEDAT2_MAGIC!r} header"
        )
    return lines, raw[offset:]


def load_events_aedat2(
    path: PathLike, width: Optional[int] = None, height: Optional[int] = None
) -> EventStream:
    """Load a jAER-style AEDAT 2.0 binary file.

    Non-DVS words (bit 31 set: APS frames, IMU samples) are skipped.  The
    resolution comes from the ``# width=.. height=..`` comment when present
    (jAER files without it default to the DAVIS240's 240x180); explicit
    arguments override it.
    """
    path = Path(path)
    raw = path.read_bytes()
    lines, payload = _split_aedat2_header(raw, path)
    file_width = file_height = None
    for line in lines:
        line_width, line_height = _parse_resolution_comment(line)
        if file_width is None:
            file_width = line_width
        if file_height is None:
            file_height = line_height
    width = width if width is not None else (file_width or 240)
    height = height if height is not None else (file_height or 180)
    if len(payload) % 8:
        raise ValueError(
            f"{path} is truncated: payload of {len(payload)} bytes is not a "
            "whole number of 8-byte (address, timestamp) pairs"
        )
    words = np.frombuffer(payload, dtype=">u4")
    address = words[0::2]
    timestamps = words[1::2].astype(np.int64)
    dvs = (address & _AEDAT2_APS_MASK) == 0
    address = address[dvs]
    x = (address >> _AEDAT2_X_SHIFT) & np.uint32(_AEDAT2_X_MAX - 1)
    y = (address >> _AEDAT2_Y_SHIFT) & np.uint32(_AEDAT2_Y_MAX - 1)
    polarity = np.where((address >> _AEDAT2_POLARITY_SHIFT) & np.uint32(1), 1, -1)
    events = make_packet(x, y, timestamps[dvs], polarity)
    return EventStream(events, width, height)


# -- jAER text ---------------------------------------------------------------------------


def save_events_txt(path: PathLike, stream: EventStream) -> None:
    """Save an event stream as jAER-style text: ``t x y p`` with p in {0, 1}."""
    path = Path(path)
    data = np.column_stack(
        [
            stream.events["t"],
            stream.events["x"],
            stream.events["y"],
            (stream.events["p"] == 1).astype(np.int64),
        ]
    )
    header = f"# width={stream.width} height={stream.height}\n# t x y p"
    np.savetxt(path, data, fmt="%d", header=header, comments="")


def load_events_txt(
    path: PathLike, width: Optional[int] = None, height: Optional[int] = None
) -> EventStream:
    """Load jAER-style text events (``t x y p`` per line, p in {0, 1}).

    Resolution resolves like :func:`load_events_aedat2`: explicit arguments,
    then the ``# width=.. height=..`` comment, then the DAVIS240 default.
    """
    path = Path(path)
    file_width = file_height = None
    has_data = False
    with open(path, newline="") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped:
                continue
            if not stripped.startswith("#"):
                has_data = True
                break  # first data row; loadtxt below skips '#' lines itself
            line_width, line_height = _parse_resolution_comment(stripped)
            if file_width is None:
                file_width = line_width
            if file_height is None:
                file_height = line_height
    width = width if width is not None else (file_width or 240)
    height = height if height is not None else (file_height or 180)
    if not has_data:  # loadtxt would warn that the file holds no rows
        return EventStream(empty_packet(), width, height)
    data = np.loadtxt(path, dtype=np.int64, ndmin=2)
    if data.shape[1] != 4:
        raise ValueError(
            f"{path}: expected 4 columns 't x y p', got {data.shape[1]}"
        )
    polarity = np.where(data[:, 3] > 0, 1, -1)
    events = make_packet(data[:, 1], data[:, 2], data[:, 0], polarity)
    return EventStream(events, width, height)


# -- format registry ---------------------------------------------------------------------


@dataclass(frozen=True)
class EventFormat:
    """One interchange format: its suffix and reader/writer pair."""

    name: str
    suffix: str
    save: Callable[[PathLike, EventStream], None]
    load: Callable[..., EventStream]


#: Registry of event interchange formats, keyed by format name.
EVENT_FORMATS: Dict[str, EventFormat] = {
    "npz": EventFormat("npz", ".npz", save_events_npz, load_events_npz),
    "csv": EventFormat("csv", ".csv", save_events_csv, load_events_csv),
    "aedat2": EventFormat("aedat2", ".aedat", save_events_aedat2, load_events_aedat2),
    "txt": EventFormat("txt", ".txt", save_events_txt, load_events_txt),
}

_SUFFIX_TO_FORMAT = {fmt.suffix: name for name, fmt in EVENT_FORMATS.items()}
_SUFFIX_TO_FORMAT[".dat"] = "aedat2"  # jAER's other customary suffix


def load_events(
    path: PathLike,
    format: Optional[str] = None,
    width: Optional[int] = None,
    height: Optional[int] = None,
) -> EventStream:
    """Load an event file, dispatching on ``format`` or the file suffix.

    Parameters
    ----------
    path:
        Event file in any registered format.
    format:
        Explicit format name (a key of :data:`EVENT_FORMATS`); when omitted
        the file suffix decides (``.npz``, ``.csv``, ``.aedat``/``.dat``,
        ``.txt``).
    width, height:
        Optional resolution override for the text-based formats (the npz
        format always carries its own).
    """
    path = Path(path)
    if format is None:
        format = _SUFFIX_TO_FORMAT.get(path.suffix.lower())
        if format is None:
            raise ValueError(
                f"cannot infer event format from suffix {path.suffix!r} of {path}; "
                f"pass format= (one of {sorted(EVENT_FORMATS)})"
            )
    if format not in EVENT_FORMATS:
        raise ValueError(
            f"unknown event format {format!r}; available: {sorted(EVENT_FORMATS)}"
        )
    loader = EVENT_FORMATS[format].load
    if format == "npz":
        return loader(path)
    return loader(path, width=width, height=height)

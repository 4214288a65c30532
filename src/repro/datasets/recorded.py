"""Manifest-backed on-disk datasets of recorded event streams.

The paper's evaluation runs on *recorded* traffic data: per-site recordings
with manual annotations (Table I).  This module gives the repo the same
workload shape without shipping binaries in the tree — a **dataset** is a
directory with a ``manifest.json`` describing its recordings:

.. code-block:: text

    dataset/
      manifest.json            # DatasetManifest: recordings, tags, metadata
      ENG-00.events.npz        # events in any EVENT_FORMATS format
      ENG-00.annotations.json  # RecordingAnnotations (optional per entry)
      LT4-01.events.npz
      ...

:func:`export_fleet` snapshots any rendered synthetic fleet into that
layout (so CI can build a recorded corpus on the fly), and the manifest's
:meth:`~DatasetManifest.load_entry` reads a recording back as an
:class:`~repro.events.stream.EventStream` plus its annotations and
regions of exclusion — everything ``repro.runtime --dataset`` and the
serving replay path need to reproduce the source fleet's evaluation
exactly.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Union

from repro.datasets.annotations import RecordingAnnotations
from repro.events.io import EVENT_FORMATS, load_events
from repro.events.stream import EventStream
from repro.utils.geometry import BoundingBox

PathLike = Union[str, Path]

#: File name every dataset directory is identified by.
MANIFEST_NAME = "manifest.json"

#: Manifest schema version; bump on incompatible layout changes.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class RecordingEntry:
    """One recording listed in a dataset manifest.

    Attributes
    ----------
    name:
        Recording identifier, unique within the dataset.
    events_file:
        Path of the event file, relative to the manifest directory.
    format:
        Event file format (a key of :data:`repro.events.io.EVENT_FORMATS`).
    width, height:
        Sensor resolution of the recording.
    num_events, duration_us:
        Stream statistics recorded at export time; :meth:`DatasetManifest
        .load_entry` cross-checks the event count so silent truncation of
        an event file cannot masquerade as a quiet recording.
    annotations_file:
        Optional path (relative) of the recording's ground-truth
        annotations JSON (:meth:`RecordingAnnotations.to_dict` layout).
    scene_tags:
        Free-form tags (site type, weather, ...) used for filtering.
    roe_boxes:
        Regions of exclusion as ``[x, y, width, height]`` rows — the
        operator-drawn static-distractor masks the pipeline config needs to
        reproduce the source run.
    metadata:
        Free-form JSON metadata (lens, seed, simulator spec, ...).
    """

    name: str
    events_file: str
    format: str
    width: int
    height: int
    num_events: int
    duration_us: int
    annotations_file: Optional[str] = None
    scene_tags: List[str] = field(default_factory=list)
    roe_boxes: List[List[float]] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.format not in EVENT_FORMATS:
            raise ValueError(
                f"recording {self.name!r}: unknown event format {self.format!r} "
                f"(available: {sorted(EVENT_FORMATS)})"
            )
        for row in self.roe_boxes:
            if len(row) != 4:
                raise ValueError(
                    f"recording {self.name!r}: roe_boxes rows must be "
                    f"[x, y, width, height], got {list(row)}"
                )
            # json reads NaN and Infinity.  The ROE's clipping keeps the other
            # edge wherever one is NaN, so a NaN x would exclude a whole band.
            if not all(math.isfinite(value) for value in row):
                raise ValueError(
                    f"recording {self.name!r}: roe_boxes rows must be finite, "
                    f"got {list(row)}"
                )

    def roe_bounding_boxes(self) -> List[BoundingBox]:
        """The regions of exclusion as :class:`BoundingBox` objects."""
        return [BoundingBox(*row) for row in self.roe_boxes]

    def to_dict(self) -> dict:
        """JSON-serialisable representation."""
        return {
            "name": self.name,
            "events_file": self.events_file,
            "format": self.format,
            "width": self.width,
            "height": self.height,
            "num_events": self.num_events,
            "duration_us": self.duration_us,
            "annotations_file": self.annotations_file,
            "scene_tags": list(self.scene_tags),
            "roe_boxes": [list(row) for row in self.roe_boxes],
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, data: dict, source: str = "manifest") -> "RecordingEntry":
        """Inverse of :meth:`to_dict`, with explicit missing-key errors."""
        required = ("name", "events_file", "format", "width", "height")
        missing = [key for key in required if key not in data]
        if missing:
            raise ValueError(
                f"{source}: recording entry is missing keys {missing} "
                f"(got {sorted(data)})"
            )
        return cls(
            name=str(data["name"]),
            events_file=str(data["events_file"]),
            format=str(data["format"]),
            width=int(data["width"]),
            height=int(data["height"]),
            num_events=int(data.get("num_events", -1)),
            duration_us=int(data.get("duration_us", -1)),
            annotations_file=data.get("annotations_file"),
            scene_tags=[str(tag) for tag in data.get("scene_tags", [])],
            roe_boxes=[[float(v) for v in row] for row in data.get("roe_boxes", [])],
            metadata=dict(data.get("metadata", {})),
        )


@dataclass
class LoadedRecording:
    """One recording read back from disk, ready to become a runner job."""

    name: str
    stream: EventStream
    annotations: Optional[RecordingAnnotations]
    roe_boxes: List[BoundingBox]
    scene_tags: List[str]
    metadata: Dict[str, object]

    @property
    def ground_truth(self):
        """Ground-truth frames, or ``None`` when unannotated."""
        return list(self.annotations.frames) if self.annotations else None


@dataclass
class DatasetManifest:
    """The parsed ``manifest.json`` of one dataset directory.

    Attributes
    ----------
    root:
        Directory the manifest lives in; entry paths resolve against it.
    name:
        Dataset name.
    recordings:
        The dataset's recordings, in manifest order.
    metadata:
        Free-form dataset-level metadata (exporter arguments, notes).
    version:
        Manifest schema version.
    """

    root: Path
    name: str
    recordings: List[RecordingEntry] = field(default_factory=list)
    metadata: Dict[str, object] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def __len__(self) -> int:
        return len(self.recordings)

    def __iter__(self) -> Iterator[RecordingEntry]:
        return iter(self.recordings)

    @property
    def manifest_path(self) -> Path:
        """Path of the manifest file itself."""
        return Path(self.root) / MANIFEST_NAME

    def entry(self, name: str) -> RecordingEntry:
        """The entry called ``name`` (:class:`KeyError` when absent)."""
        for entry in self.recordings:
            if entry.name == name:
                return entry
        raise KeyError(
            f"dataset {self.name!r} has no recording {name!r}; "
            f"available: {[e.name for e in self.recordings]}"
        )

    def filtered(self, tag: str) -> List[RecordingEntry]:
        """Entries carrying ``tag`` in their scene tags."""
        return [entry for entry in self.recordings if tag in entry.scene_tags]

    # -- IO ------------------------------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-serialisable representation (``root`` stays implicit)."""
        return {
            "manifest_version": self.version,
            "name": self.name,
            "metadata": dict(self.metadata),
            "recordings": [entry.to_dict() for entry in self.recordings],
        }

    def save(self) -> Path:
        """Write ``manifest.json`` into :attr:`root`; returns its path."""
        path = self.manifest_path
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        return path

    @classmethod
    def load(cls, path: PathLike) -> "DatasetManifest":
        """Load a manifest from a dataset directory or a manifest file.

        Raises
        ------
        FileNotFoundError
            When no ``manifest.json`` exists at/under ``path``.
        ValueError
            When the manifest is malformed or a newer schema version —
            named explicitly so the replay CLI can report the actual
            problem instead of a raw ``KeyError``.
        """
        path = Path(path)
        manifest_path = path / MANIFEST_NAME if path.is_dir() else path
        if not manifest_path.exists():
            raise FileNotFoundError(
                f"no dataset manifest at {manifest_path} "
                f"(expected a directory containing {MANIFEST_NAME})"
            )
        with open(manifest_path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{manifest_path} is not valid JSON: {error}") from None
        if not isinstance(data, dict):
            raise ValueError(f"{manifest_path}: manifest must be a JSON object")
        version = int(data.get("manifest_version", 0))
        if not 1 <= version <= MANIFEST_VERSION:
            raise ValueError(
                f"{manifest_path}: unsupported manifest_version {version} "
                f"(this library reads versions 1..{MANIFEST_VERSION})"
            )
        if "recordings" not in data:
            raise ValueError(f"{manifest_path}: manifest has no 'recordings' list")
        recordings = [
            RecordingEntry.from_dict(item, source=str(manifest_path))
            for item in data["recordings"]
        ]
        names = [entry.name for entry in recordings]
        if len(set(names)) != len(names):
            duplicates = sorted({n for n in names if names.count(n) > 1})
            raise ValueError(
                f"{manifest_path}: duplicate recording names {duplicates}"
            )
        return cls(
            root=manifest_path.parent,
            name=str(data.get("name", manifest_path.parent.name)),
            recordings=recordings,
            metadata=dict(data.get("metadata", {})),
            version=version,
        )

    # -- recording access ----------------------------------------------------------------

    def load_entry(self, entry: Union[str, RecordingEntry]) -> LoadedRecording:
        """Read one recording's events (and annotations) back from disk."""
        if isinstance(entry, str):
            entry = self.entry(entry)
        events_path = Path(self.root) / entry.events_file
        if not events_path.exists():
            raise FileNotFoundError(
                f"dataset {self.name!r}: recording {entry.name!r} points at "
                f"missing event file {events_path}"
            )
        stream = load_events(
            events_path, format=entry.format, width=entry.width, height=entry.height
        )
        if stream.resolution != (entry.width, entry.height):
            raise ValueError(
                f"dataset {self.name!r}: recording {entry.name!r} resolution "
                f"{stream.resolution} does not match the manifest's "
                f"({entry.width}, {entry.height})"
            )
        if entry.num_events >= 0 and len(stream) != entry.num_events:
            raise ValueError(
                f"dataset {self.name!r}: recording {entry.name!r} has "
                f"{len(stream)} events but the manifest promises "
                f"{entry.num_events} — the event file is stale or truncated"
            )
        annotations = None
        if entry.annotations_file:
            annotations_path = Path(self.root) / entry.annotations_file
            if not annotations_path.exists():
                raise FileNotFoundError(
                    f"dataset {self.name!r}: recording {entry.name!r} points at "
                    f"missing annotations file {annotations_path}"
                )
            with open(annotations_path, "r", encoding="utf-8") as handle:
                try:
                    annotations = RecordingAnnotations.from_dict(json.load(handle))
                except ValueError as error:
                    raise ValueError(
                        f"dataset {self.name!r}: recording {entry.name!r}: "
                        f"{annotations_path}: {error}"
                    ) from None
        return LoadedRecording(
            name=entry.name,
            stream=stream,
            annotations=annotations,
            roe_boxes=entry.roe_bounding_boxes(),
            scene_tags=list(entry.scene_tags),
            metadata=dict(entry.metadata),
        )

    def load_all(self) -> List[LoadedRecording]:
        """Read every recording in manifest order."""
        return [self.load_entry(entry) for entry in self.recordings]

    # -- reporting -----------------------------------------------------------------------

    def summary(self) -> Dict[str, object]:
        """Dataset-level statistics for ``python -m repro.datasets show``."""
        return {
            "name": self.name,
            "root": str(self.root),
            "num_recordings": len(self.recordings),
            "total_events": sum(max(0, e.num_events) for e in self.recordings),
            "total_duration_s": sum(
                max(0, e.duration_us) for e in self.recordings
            )
            * 1e-6,
            "formats": sorted({e.format for e in self.recordings}),
            "scene_tags": sorted({t for e in self.recordings for t in e.scene_tags}),
            "annotated": sum(1 for e in self.recordings if e.annotations_file),
        }

    def format_table(self) -> str:
        """Human-readable per-recording listing."""
        header = (
            f"{'recording':<12} {'format':<7} {'res':>9} {'events':>10} "
            f"{'secs':>7} {'gt':>3} tags"
        )
        lines = [header, "-" * len(header)]
        for entry in self.recordings:
            lines.append(
                f"{entry.name:<12} {entry.format:<7} "
                f"{entry.width}x{entry.height:>4} {entry.num_events:>10} "
                f"{entry.duration_us * 1e-6:>7.1f} "
                f"{'yes' if entry.annotations_file else ' no'} "
                f"{','.join(entry.scene_tags)}"
            )
        summary = self.summary()
        lines.append("-" * len(header))
        lines.append(
            f"dataset {self.name!r}: {summary['num_recordings']} recording(s), "
            f"{summary['total_events']} events, "
            f"{summary['total_duration_s']:.1f} s of sensor time, "
            f"{summary['annotated']} annotated"
        )
        return "\n".join(lines)


def discover_datasets(root: PathLike) -> List[Path]:
    """Dataset directories at/under ``root`` (those holding a manifest).

    ``root`` itself counts when it contains a ``manifest.json``.  Results
    are sorted for determinism.
    """
    root = Path(root)
    if not root.exists():
        return []
    found = {p.parent for p in root.rglob(MANIFEST_NAME)}
    return sorted(found)


def load_manifest(path: PathLike) -> DatasetManifest:
    """Convenience alias for :meth:`DatasetManifest.load`."""
    return DatasetManifest.load(path)


def export_fleet(
    recordings: Sequence,
    directory: PathLike,
    format: str = "npz",
    name: Optional[str] = None,
    dataset_metadata: Optional[Dict[str, object]] = None,
) -> DatasetManifest:
    """Snapshot rendered synthetic recordings as a manifest-backed dataset.

    Writes one event file (in ``format``) and one annotations JSON per
    recording plus the ``manifest.json``, so CI and tests can build a
    recorded corpus on the fly instead of shipping binaries.  Replaying the
    result through ``python -m repro.runtime --dataset`` reproduces the
    source fleet's pooled CLEAR-MOT digits exactly: events, annotations and
    regions of exclusion all round-trip losslessly.

    Parameters
    ----------
    recordings:
        :class:`~repro.datasets.synthetic.SyntheticRecording` objects (or
        anything with ``name``, ``stream``, ``annotations``, ``roe_boxes()``
        and an optional ``spec``).
    directory:
        Destination dataset directory (created when missing).
    format:
        Event file format; a key of :data:`repro.events.io.EVENT_FORMATS`.
    name:
        Dataset name (defaults to the directory name).
    dataset_metadata:
        Extra dataset-level metadata merged into the manifest.
    """
    if format not in EVENT_FORMATS:
        raise ValueError(
            f"unknown event format {format!r}; available: {sorted(EVENT_FORMATS)}"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    event_format = EVENT_FORMATS[format]
    entries: List[RecordingEntry] = []
    for recording in recordings:
        stream: EventStream = recording.stream
        events_file = f"{recording.name}.events{event_format.suffix}"
        event_format.save(directory / events_file, stream)
        annotations_file = None
        annotations = getattr(recording, "annotations", None)
        if annotations is not None and len(annotations):
            annotations_file = f"{recording.name}.annotations.json"
            with open(directory / annotations_file, "w", encoding="utf-8") as handle:
                json.dump(annotations.to_dict(), handle)
                handle.write("\n")
        roe = [
            [box.x, box.y, box.width, box.height] for box in recording.roe_boxes()
        ]
        spec = getattr(recording, "spec", None)
        metadata: Dict[str, object] = {}
        if spec is not None:
            metadata = {
                "site": spec.name.split("-")[0],
                "lens_focal_length_mm": spec.lens_focal_length_mm,
                "seed": spec.seed,
                "noise_rate_hz_per_pixel": spec.noise_rate_hz_per_pixel,
            }
        entries.append(
            RecordingEntry(
                name=recording.name,
                events_file=events_file,
                format=format,
                width=stream.width,
                height=stream.height,
                num_events=len(stream),
                duration_us=stream.duration_us,
                annotations_file=annotations_file,
                scene_tags=[recording.name.split("-")[0].lower()],
                roe_boxes=roe,
                metadata=metadata,
            )
        )
    manifest = DatasetManifest(
        root=directory,
        name=name or directory.name,
        recordings=entries,
        metadata=dict(dataset_metadata or {}),
    )
    manifest.save()
    return manifest

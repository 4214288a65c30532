"""Golden digests of the EBBI front end's output, pinned frame by frame.

``tests/golden/front_end_digests.json`` holds, for every recording below,
tracker backend (``overlap`` and ``kalman``) and replay path
(``process_stream``, which builds EBBI frames and finds the RPN's runs a
chunk at a time, and ``iter_stream``, which does both one window at a
time), the frame count, the sha256 of every frame's proposals (box and
event count, in the order the RPN reported them, JSON with ``repr``
floats) and the mean active-pixel fraction ``alpha`` as ``repr``:

* ``build_scene_recordings(4, duration_s=3.0, base_seed=0)``: one site of
  each default type;
* the first of those sites tiled six times in time (273 frames), so the
  chunked replay crosses a chunk edge as well as dozens of block edges.

Every stage before the tracker (accumulation, median filter, histograms,
runs, candidate validation) shows up in these digests, so a front-end
change that moves a single proposal or pixel is caught here, named by
recording, backend and path.

After a deliberate change to the front end, rewrite the digests with
``PYTHONPATH=src python tests/test_core_front_end_golden.py`` and review
the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.core.pipeline import EbbiotPipeline
from repro.events.stream import EventStream
from repro.runtime.scenes import build_scene_recordings

GOLDEN = Path(__file__).parent / "golden" / "front_end_digests.json"

BACKENDS = ("overlap", "kalman")

#: Tiles of the first site in the long recording: 6 x 3 s, past one chunk.
TILES = 6


def recordings():
    """``(name, stream)`` of every pinned recording, in a fixed order."""
    rendered = build_scene_recordings(4, duration_s=3.0, base_seed=0)
    named = [(recording.name, recording.stream) for recording in rendered]
    stream = rendered[0].stream
    period = stream.t_end + 1
    tiles = []
    for index in range(TILES):
        tile = stream.events.copy()
        tile["t"] += index * period
        tiles.append(tile)
    tiled = EventStream(np.concatenate(tiles), stream.width, stream.height)
    return named + [(f"{rendered[0].name}-x{TILES}", tiled)]


def digest(frames, alpha: float) -> dict:
    """Frame count, proposal digest and ``alpha`` of one replay."""
    proposals = [
        [
            [p.box.x, p.box.y, p.box.width, p.box.height, p.event_count]
            for p in frame.proposals
        ]
        for frame in frames
    ]
    return {
        "num_frames": len(proposals),
        "num_proposals": sum(map(len, proposals)),
        "proposals_sha256": hashlib.sha256(json.dumps(proposals).encode()).hexdigest(),
        "alpha": repr(float(alpha)),
    }


def replays(stream):
    """Digests of every backend and path over one stream."""
    out = {}
    for backend in BACKENDS:
        pipeline = EbbiotPipeline(tracker=backend)
        result = pipeline.process_stream(stream)
        out[f"{backend}/process_stream"] = digest(
            result.frames, result.mean_active_pixel_fraction
        )
        pipeline = EbbiotPipeline(tracker=backend)
        frames = list(pipeline.iter_stream(stream))
        out[f"{backend}/iter_stream"] = digest(
            frames, pipeline.ebbi_builder.mean_active_pixel_fraction
        )
    return out


def test_front_end_matches_golden():
    expected = json.loads(GOLDEN.read_text())
    pinned = recordings()
    assert [name for name, _ in pinned] == list(expected)
    for name, stream in pinned:
        got = replays(stream)
        for key, value in got.items():
            assert value == expected[name][key], f"{name} {key}"
    # The pin keeps its coverage: a chunk edge, and proposals to digest.
    assert expected[pinned[-1][0]]["overlap/process_stream"]["num_frames"] > 256
    assert all(entry["overlap/iter_stream"]["num_proposals"] > 0 for entry in expected.values())


if __name__ == "__main__":
    digests = {name: replays(stream) for name, stream in recordings()}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(digests)} recordings)")

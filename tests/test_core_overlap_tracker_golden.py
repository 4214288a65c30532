"""Golden replay of the overlap tracker, pinned float for float.

``tests/golden/overlap_tracker_replay.json`` holds tracker inputs and the
outputs they gave, in three segments.  Each segment is replayed on a fresh
:class:`OverlapTracker` with its default configuration:

* ``RAIN-02`` and ``CROSS-03``: the ROE-filtered proposals that the first
  45 and 150 frames of two recordings of the seed-1 ``batch_score`` corpus
  (``perfbench/batch_score.py``) fed the tracker.  Fragments are merged,
  tracks coast through dynamic occlusions and missed tracks expire.
* ``crowd``: ten boxes built by arithmetic, more than the eight slots hold;
  some go missing until their tracks expire, and a freed slot is re-seeded.

Each frame stores its time and its proposal boxes, then every
observation's ``track_id``, box and velocity.  The floats are JSON numbers
(``repr``, which round-trips exactly) and are compared by ``float.hex``,
so even the sign of a zero is pinned.  The replay reads only the stored
inputs: it depends on no rendering and no NumPy version.

After a deliberate change to the tracker's arithmetic, rewrite the
expected outputs from the stored inputs with
``PYTHONPATH=src python tests/test_core_overlap_tracker_golden.py`` and
review the diff.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from repro.core.histogram_rpn import RegionProposal
from repro.core.overlap_tracker import OverlapTracker, OverlapTrackerConfig
from repro.utils.geometry import BoundingBox

GOLDEN = Path(__file__).parent / "golden" / "overlap_tracker_replay.json"


def replay(frames) -> dict:
    """Run ``[t_us, boxes, ...]`` frames through a fresh default tracker."""
    tracker = OverlapTracker()
    outputs: List[list] = []
    peak = 0
    for t_us, boxes, *_ in frames:
        proposals = [RegionProposal(BoundingBox(*box), event_count=0, density=0.0) for box in boxes]
        observations = tracker.process_frame(proposals, t_us)
        assert all(o.t_us == t_us for o in observations)
        outputs.append([
            [o.track_id, o.box.x, o.box.y, o.box.width, o.box.height, *o.velocity]
            for o in observations
        ])
        peak = max(peak, tracker.num_active_tracks)
    return {
        "outputs": outputs,
        "occlusions_detected": tracker.occlusions_detected,
        "merges_performed": tracker.merges_performed,
        "peak_tracks": peak,
        "final_tracks": tracker.num_active_tracks,
    }


def exact(value):
    """A value in a form whose equality is bit equality."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, list):
        return [exact(item) for item in value]
    return value


def test_replay_matches_golden():
    segments = json.loads(GOLDEN.read_text())["segments"]
    assert [s["name"] for s in segments] == ["RAIN-02", "CROSS-03", "crowd"]
    replays = []
    for segment in segments:
        replayed = replay(segment["frames"])
        expected = [frame[2] for frame in segment["frames"]]
        assert exact(replayed["outputs"]) == exact(expected), segment["name"]
        for counter in ("occlusions_detected", "merges_performed"):
            assert replayed[counter] == segment[counter], (segment["name"], counter)
        replays.append(replayed)
    # The pin keeps its coverage: occlusions coasted through, fragments
    # merged, every slot filled, and missed tracks expired.
    assert sum(r["occlusions_detected"] for r in replays) > 0
    assert sum(r["merges_performed"] for r in replays) > 0
    crowd = replays[-1]
    assert crowd["peak_tracks"] == OverlapTrackerConfig().max_trackers
    assert crowd["final_tracks"] == 0


def dump(segments) -> str:
    """The golden file's text: one frame per line, outputs replayed afresh."""
    parts = []
    for segment in segments:
        replayed = replay(segment["frames"])
        header = {
            "name": segment["name"],
            "occlusions_detected": replayed["occlusions_detected"],
            "merges_performed": replayed["merges_performed"],
        }
        frames = ",\n".join(
            "  " + json.dumps([frame[0], frame[1], outputs])
            for frame, outputs in zip(segment["frames"], replayed["outputs"])
        )
        parts.append(json.dumps(header)[:-1] + ', "frames": [\n' + frames + "\n ]}")
    return '{"segments": [\n ' + ",\n ".join(parts) + "\n]}\n"


if __name__ == "__main__":
    stored = json.loads(GOLDEN.read_text())["segments"]
    GOLDEN.write_text(dump(stored))
    print(f"wrote {GOLDEN} ({sum(len(s['frames']) for s in stored)} frames)")

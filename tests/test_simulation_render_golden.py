"""Golden digests of rendered scenes, pinned byte for byte.

``tests/golden/render_digests.json`` holds, for every recording of two
renders, the event count and the sha256 of the event bytes
(``EVENT_DTYPE`` records, 13 bytes each, in stream order), and the
ground-truth instant count and the sha256 of the ground-truth boxes
(every frame's ``to_dict()``, JSON with ``repr`` floats):

* ``build_scene_recordings(4, duration_s=1.0, base_seed=1)``: one site of
  each default type, ENG-like, LT4-like, rain with hot pixels, and the
  scripted crossing scene;
* one recording of the ``rain-storm`` scenario at the quick matrix's
  size (2 s), heavy background activity plus 40 hot pixels.

The quality baselines and the benchmarks all start from such renders, so
a change that reorders the random draws or the events of a render shows
here first, named by recording.

After a deliberate change to rendering, rewrite the digests with
``PYTHONPATH=src python tests/test_simulation_render_golden.py`` and
review the diff.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.runtime.scenes import build_scene_recordings
from repro.scenarios.library import SCENARIO_LIBRARY, build_scenario_recordings

GOLDEN = Path(__file__).parent / "golden" / "render_digests.json"


def renders():
    """Every pinned recording, in a fixed order."""
    recordings = build_scene_recordings(4, duration_s=1.0, base_seed=1)
    rain = SCENARIO_LIBRARY["rain-storm"].scaled(num_scenes=1, duration_s=2.0)
    return recordings + build_scenario_recordings(rain)


def digest(recording) -> dict:
    """Event and ground-truth digests of one recording."""
    events = recording.stream.events
    frames = [frame.to_dict() for frame in recording.annotations.frames]
    return {
        "num_events": len(events),
        "events_sha256": hashlib.sha256(events.tobytes()).hexdigest(),
        "num_instants": len(frames),
        "num_boxes": sum(len(frame["boxes"]) for frame in frames),
        "ground_truth_sha256": hashlib.sha256(json.dumps(frames).encode()).hexdigest(),
    }


def test_renders_match_golden():
    recordings = renders()
    expected = json.loads(GOLDEN.read_text())
    assert [r.name for r in recordings] == list(expected)
    for recording in recordings:
        assert digest(recording) == expected[recording.name], recording.name
    # The pin keeps its coverage: hot pixels on both rain renders, and
    # annotated traffic whose boxes the ground-truth digest covers.
    hot = [r.name for r in recordings if r.result.config.hot_pixels is not None]
    assert hot == ["RAIN-02", "rain-storm-00"]
    assert sum(entry["num_boxes"] for entry in expected.values()) > 0


if __name__ == "__main__":
    digests = {recording.name: digest(recording) for recording in renders()}
    GOLDEN.write_text(json.dumps(digests, indent=1) + "\n")
    print(f"wrote {GOLDEN} ({len(digests)} recordings)")

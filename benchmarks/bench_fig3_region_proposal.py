"""Fig. 3 reproduction: a sample EBBI with X/Y histogram region proposals.

The figure shows one binary frame, its downsampled X and Y histograms, and
the proposed regions (including how a fragmented car is merged into a single
coarse region).  This benchmark renders one frame of a two-object scene,
runs the histogram RPN, and prints an ASCII rendering of the frame with the
proposal boxes plus the histogram values.
"""

from __future__ import annotations

import numpy as np

from repro.core import EbbiBuilder, EbbiotConfig, HistogramRegionProposer
from repro.simulation.objects import OBJECT_TEMPLATES, ObjectClass, SceneObject
from repro.simulation.scene import Scene, SceneConfig
from repro.simulation.trajectories import crossing_trajectory
from repro.events.noise import BackgroundActivityNoise


def _build_sample_frame():
    """Render one EBBI of a scene with a car and a bike (as in Fig. 3)."""
    config = SceneConfig(noise=BackgroundActivityNoise(rate_hz_per_pixel=0.4), seed=33)
    scene = Scene(config)
    car = OBJECT_TEMPLATES[ObjectClass.CAR]
    bike = OBJECT_TEMPLATES[ObjectClass.BIKE]
    scene.add_object(
        SceneObject(0, car, crossing_trajectory(240, 60, 70.0, 0, car.width_px, 1))
    )
    scene.add_object(
        SceneObject(1, bike, crossing_trajectory(240, 110, 50.0, 0, bike.width_px, -1))
    )
    rendered = scene.render(duration_us=2_000_000)
    pipeline_config = EbbiotConfig()
    builder = EbbiBuilder(pipeline_config.width, pipeline_config.height)
    # Pick a mid-recording frame where both objects are well inside the view.
    target_frame = 20
    for index, (t_start, t_end, events) in enumerate(
        rendered.stream.iter_frames(pipeline_config.frame_duration_us)
    ):
        if index == target_frame:
            return builder.build(events, t_start, t_end)
    raise RuntimeError("recording too short for the requested frame")


def _ascii_frame(frame: np.ndarray, boxes, downscale: int = 4) -> str:
    """Coarse ASCII rendering of the EBBI with proposal outlines."""
    height, width = frame.shape
    rows = []
    for y in range(height - downscale, -1, -downscale * 3):
        row = []
        for x in range(0, width, downscale):
            block = frame[y : y + downscale * 3, x : x + downscale]
            in_box = any(b.contains_point(x, y) for b in boxes)
            if block.sum() > 0:
                row.append("#" if not in_box else "@")
            else:
                row.append("." if not in_box else "+")
        rows.append("".join(row))
    return "\n".join(rows)


def _run_rpn(frame):
    proposer = HistogramRegionProposer()
    proposals = proposer.propose(frame)
    downsampled, histogram_x, histogram_y = proposer.debug_histograms(frame)
    return proposals, histogram_x, histogram_y


def test_fig3_sample_ebbi_and_histograms(benchmark):
    """Regenerate the Fig. 3 content: EBBI, histograms and proposals."""
    ebbi = _build_sample_frame()
    proposals, histogram_x, histogram_y = benchmark.pedantic(
        _run_rpn, args=(ebbi.filtered,), rounds=1, iterations=1
    )

    print()
    print("Fig. 3 — EBBI with histogram region proposals")
    print(f"frame window: [{ebbi.t_start_us / 1e3:.0f}, {ebbi.t_end_us / 1e3:.0f}] ms, "
          f"{ebbi.num_events} events, {ebbi.active_pixel_count} active pixels")
    print(_ascii_frame(ebbi.filtered, [p.box for p in proposals]))
    print(f"\nH_X (s1=6): {list(histogram_x)}")
    print(f"H_Y (s2=3): {list(histogram_y)}")
    for index, proposal in enumerate(proposals):
        box = proposal.box
        print(
            f"proposal {index}: x={box.x:.0f} y={box.y:.0f} "
            f"w={box.width:.0f} h={box.height:.0f} events={proposal.event_count}"
        )

    # Two objects in the scene -> at least one and at most a handful of
    # proposals (fragments merge through the coarse histogram bins).
    assert 1 <= len(proposals) <= 4
    assert histogram_x.shape == (40,)
    assert histogram_y.shape == (60,)

"""Shared pieces of the benchmark: inputs, timing, spans and checks.

Inputs come from the repository's own public scene builders: a small
library of rendered sites, re-phased and tiled in time from the run seed,
so the program under test only ever sees generated event streams.  Tiling
costs almost nothing next to rendering.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from repro.core.config import EbbiotConfig
from repro.core.pipeline import EbbiotPipeline
from repro.evaluation.matching import match_frame
from repro.evaluation.mot_metrics import compute_mot_summary
from repro.evaluation.precision_recall import evaluate_recording
from repro.events.stream import EventStream
from repro.runtime.scenes import build_scene_recordings
from repro.serving.loadgen import split_batches
from repro.simulation.ground_truth import GroundTruthFrame
from repro.trackers.base import TrackObservation
from repro.utils.geometry import BoundingBox

#: EBBI window length tF; tiles are a whole number of windows long so the
#: ground-truth grid stays aligned with the frame grid in every tile.
FRAME_US = EbbiotConfig().frame_duration_us

#: Seconds of traffic rendered per site; long inputs are tiles of these.
RENDER_S = 3.0

#: Seed of the rendered site library (see :func:`render_sites`): the first
#: seed whose four 3 s sites all carry annotated traffic.
LIBRARY_SEED = 1

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

#: IoU threshold of the CLEAR-MOT summary, as in the runtime runner.
MOT_IOU = 0.3

#: Tolerance with which scorers pair a GT instant with a tracker report.
ALIGN_TOLERANCE_US = 40_000


@dataclass
class Site:
    """One rendered site: its stream, ground truth and ROE boxes."""

    name: str
    stream: EventStream
    ground_truth: List[GroundTruthFrame]
    roe_boxes: list

    @property
    def duration_us(self) -> int:
        return len(self.ground_truth) * FRAME_US


def render_sites(num_sites: int) -> List[Site]:
    """Render the site library: ``num_sites`` sites cycling the site types.

    The library is always rendered from :data:`LIBRARY_SEED`; runs differ by
    how :func:`tile` re-phases it.  A 3 s render holds 0 to 3 vehicles, so
    rendering from the run seed swung the work of a run by tens of percent
    between seeds, far more than any change the benchmark must resolve.
    """
    return [
        Site(
            name=recording.name,
            stream=recording.stream,
            ground_truth=list(recording.annotations.frames),
            roe_boxes=recording.roe_boxes(),
        )
        for recording in build_scene_recordings(
            num_sites, duration_s=RENDER_S, base_seed=LIBRARY_SEED
        )
    ]


def tile(site: Site, tiles: int, rng: np.random.Generator) -> Site:
    """Repeat a site ``tiles`` times in time, each tile rotated by a random phase.

    A tile is the site's ground-truth span rounded to whole EBBI windows.
    Each tile is rotated in time by a whole number of windows drawn from
    ``rng`` (events and annotations alike, so every annotation stays on the
    frame grid), which is how the run seed varies the event stream.
    """
    period = site.duration_us
    events = site.stream.events
    steps = len(site.ground_truth)
    parts, frames = [], []
    for index in range(tiles):
        shift = int(rng.integers(steps)) * FRAME_US
        split = int(np.searchsorted(events["t"], period - shift))
        part = np.concatenate([events[split:], events[:split]])
        part["t"] = (part["t"] + shift) % period + index * period
        parts.append(part)
        frames.extend(sorted(
            (GroundTruthFrame(t_us=(frame.t_us + shift) % period + index * period,
                              boxes=frame.boxes)
             for frame in site.ground_truth),
            key=lambda frame: frame.t_us,
        ))
    return Site(
        name=site.name,
        stream=EventStream(np.concatenate(parts), site.stream.width, site.stream.height),
        ground_truth=frames,
        roe_boxes=site.roe_boxes,
    )


def batches_of(site: Site, batch_us: int) -> List[Tuple[int, np.ndarray]]:
    """The site's ``(t_start_us, batch)`` packets, as a sensor would send."""
    return split_batches(site.stream.events, batch_us)


#: Seconds one :func:`host_probe` takes on the reference host (a 2-vCPU
#: VM) in a quiet spell.  Timings are reported scaled to that speed.
REFERENCE_PROBE_S = 0.0075


def host_probe() -> float:
    """Seconds taken by a fixed dose of NumPy and interpreter work, now."""
    array = np.arange(300_000, dtype=np.float64)
    started = time.perf_counter()
    for _ in range(4):
        float((array * 1.000001 + 0.5).sum())
    accumulator = 0
    for value in range(60_000):
        accumulator += value & 7
    return time.perf_counter() - started


def slowdown(probes: int = 5) -> float:
    """How much slower than the reference host this host runs right now.

    The host is shared: other tenants' load slows everything by up to 1.7x
    for spells of seconds to minutes.  A timing divided by the slowdown
    measured next to it is what it would have read on the quiet reference
    host; across 15 s spans of a repeated replay that cut the IQR/median of
    the replay time from 0.12 to 0.04.  The probe touches no code of the
    repository, so a change to the program moves the scaled timing exactly
    as it moves the raw one.
    """
    return statistics.median(host_probe() for _ in range(probes)) / REFERENCE_PROBE_S


#: Seconds one :func:`codec_probe` takes on the reference host in a quiet spell.
REFERENCE_CODEC_PROBE_S = 0.0005

_PROBE_LINE = json.dumps({
    "type": "events", "t": list(range(100_000, 100_016)),
    "x": [5] * 16, "y": [7] * 16, "p": [1] * 16,
}).encode()


def codec_probe() -> float:
    """Seconds taken by a fixed dose of JSON decoding and small-array building, now.

    This is the kind of work the serving front door does per batch, written
    with the standard library and NumPy only, so no change to the program
    changes the probe.  Taken every 100 ms by the ``tcp_saturate`` client
    while the load runs, its median tracks the host speed the server saw:
    scaling each span's rate by it cut the spread of a run's rate from
    about 0.3 to 0.05 IQR/median, where :func:`slowdown` taken around the
    load made it worse.  Under that load it reads about 1.3x its quiet
    time, as it shares the vCPUs with the saturated server; that part stays
    the same as long as the server stays saturated.
    """
    started = time.perf_counter()
    for _ in range(40):
        message = json.loads(_PROBE_LINE)
        np.asarray(message["t"], dtype=np.int64)
        np.asarray(message["x"], dtype=np.int16)
    return time.perf_counter() - started


def timed_setup(build: Callable[[], object]) -> Tuple[object, float, float]:
    """Run ``build`` once: ``(result, raw s, s scaled by the slowdown around it)``.

    A build takes seconds, over which the host speed drifts, so the
    slowdown is the mean of one probed just before and one just after.
    """
    before = slowdown(3)
    started = time.perf_counter()
    result = build()
    raw = time.perf_counter() - started
    return result, raw, raw / ((before + slowdown(3)) / 2)


def median_setup(build: Callable[[], object]) -> Tuple[object, float, List[float]]:
    """Run ``build`` :data:`SETUP_REPEATS` times; keep the last result.

    Earlier results are released before the next build starts, so repeats
    never stack memory.  Returns ``(result, median scaled s, all raw s)``.
    """
    raw, scaled = [], []
    result = None
    for _ in range(SETUP_REPEATS):
        result = None
        result, seconds, scaled_seconds = timed_setup(build)
        raw.append(seconds)
        scaled.append(scaled_seconds)
    return result, statistics.median(scaled), raw


def fast_end(values: Sequence[float]) -> float:
    """Lower quartile of a run's samples of one timed quantity.

    Load on the shared host only ever slows a sample, so a run takes many
    short samples and reports the lower quartile of their cost, which is
    steadier than their median (0.08 against 0.13 IQR/median across 15 s
    spans of a repeated replay).
    """
    return percentile(values, 25)


def percentile(values: Sequence[float], q: float) -> float:
    """``np.percentile`` of ``values`` (0.0 when empty)."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# -- reference outputs and checks --------------------------------------------------------


def replay(site: Site, config: EbbiotConfig):
    """Batch replay of a site: the oracle the live paths are checked against."""
    return EbbiotPipeline(config).process_stream(site.stream, collect_frames=False)


def observation_key(observation: TrackObservation) -> tuple:
    box = observation.box
    return (
        observation.t_us,
        observation.track_id,
        round(box.x, 6),
        round(box.y, 6),
        round(box.width, 6),
        round(box.height, 6),
    )


def observation_from_dict(data: dict) -> TrackObservation:
    """Rebuild a served track observation from its wire form."""
    return TrackObservation(
        track_id=int(data["track_id"]),
        box=BoundingBox(data["x"], data["y"], data["width"], data["height"]),
        t_us=int(data["t_us"]),
    )


def score(observations, ground_truth) -> dict:
    """Both scorers on one recording, timed separately."""
    started = time.perf_counter()
    mot = compute_mot_summary(
        observations, ground_truth, iou_threshold=MOT_IOU,
        alignment_tolerance_us=ALIGN_TOLERANCE_US,
    )
    mid = time.perf_counter()
    pr = evaluate_recording(
        observations, ground_truth, alignment_tolerance_us=ALIGN_TOLERANCE_US
    )
    ended = time.perf_counter()
    return {"mot": mot, "pr": pr, "mot_s": mid - started, "pr_s": ended - mid}


def oracle_counts(observations, ground_truth) -> Tuple[int, int, int, int]:
    """(matches, false positives, misses, GT boxes) at :data:`MOT_IOU`.

    An independent O(n log n) alignment — nearest report time within the
    tolerance, earliest on ties — feeding the public per-frame matcher.  The
    scorers' own counts must equal it, so a faster scorer that aligns or
    pools differently cannot pass the output check.
    """
    by_time: Dict[int, list] = defaultdict(list)
    for observation in observations:
        by_time[observation.t_us].append(observation.box)
    times = np.array(sorted(by_time), dtype=np.int64)
    matches = false_positives = misses = gt_boxes = 0
    for frame in ground_truth:
        boxes = []
        if len(times):
            right = int(np.searchsorted(times, frame.t_us))
            best = None
            for index in (right - 1, right):
                if 0 <= index < len(times):
                    delta = abs(int(times[index]) - frame.t_us)
                    if delta <= ALIGN_TOLERANCE_US and (best is None or delta < best[0]):
                        best = (delta, int(times[index]))
            if best is not None:
                boxes = by_time[best[1]]
        match = match_frame(boxes, [b.box for b in frame.boxes], iou_threshold=MOT_IOU)
        matches += match.num_true_positives
        false_positives += match.num_false_positives
        misses += match.num_false_negatives
        gt_boxes += match.num_ground_truth_boxes
    return matches, false_positives, misses, gt_boxes


def scores_agree(scored: dict, observations, ground_truth) -> bool:
    """The two scorers agree with each other and with :func:`oracle_counts`."""
    mot, pr = scored["mot"], scored["pr"].by_threshold[MOT_IOU]
    expected = oracle_counts(observations, ground_truth)
    return (
        (mot.num_matches, mot.num_false_positives, mot.num_misses,
         mot.num_ground_truth_boxes) == expected
        and pr.true_positives == mot.num_matches
        and pr.total_ground_truth_boxes == mot.num_ground_truth_boxes
        and pr.total_tracker_boxes == mot.num_matches + mot.num_false_positives
    )


def digest(values) -> str:
    """Short stable digest of a sequence of counts."""
    return hashlib.sha256(repr(tuple(values)).encode()).hexdigest()[:12]


def pipeline_config_for(site: Site) -> EbbiotConfig:
    """The site's pipeline configuration (its ROE over static distractors)."""
    return replace(EbbiotConfig(), roe_boxes=site.roe_boxes)


# -- hub scrape ---------------------------------------------------------------------------


def scrape(hub) -> Dict[str, object]:
    """Stage seconds and the enqueue-to-frame p50 from one merged hub scrape."""
    stage_seconds: Dict[str, float] = defaultdict(float)
    latency = []
    for family in hub.merged_metrics().state_dict()["families"]:
        if family["name"] == "repro_pipeline_stage_seconds_total":
            stage_index = family["labelnames"].index("stage")
            for child in family["children"]:
                stage_seconds[child["labels"][stage_index]] += child["value"]
        elif family["name"] == "repro_sensor_frame_latency_seconds":
            for child in family["children"]:
                latency.extend(child.get("window", ()))
    return {
        "stage_seconds": dict(stage_seconds),
        "latency_p50_ms": percentile(latency, 50) * 1e3,
    }


class ShardSampler:
    """Maxima of the hub's per-shard gauges, sampled while the load runs.

    ``busy_fraction`` is derived from the change in busy time between the
    first and the last sample, so hub start-up idle time does not dilute it.
    """

    def __init__(self, hub, hub_started: float) -> None:
        self.hub = hub
        self.hub_started = hub_started
        self.queue_depth_max = 0
        self.sensor_skew = 0.0
        self._first = None
        self._last = None

    def sample(self) -> None:
        now = time.perf_counter()
        stats = self.hub.shard_stats()
        self.queue_depth_max = max(
            [self.queue_depth_max] + [stat.queue_depth for stat in stats]
        )
        counts = [stat.num_sensors for stat in stats]
        if sum(counts):
            self.sensor_skew = max(counts) / (sum(counts) / len(counts))
        uptime = now - self.hub_started
        busy = [stat.busy_fraction * uptime for stat in stats]
        if self._first is None:
            self._first = (now, busy)
        self._last = (now, busy)

    @property
    def busy_fraction_max(self) -> float:
        if self._first is None or self._last[0] <= self._first[0]:
            return 0.0
        span = self._last[0] - self._first[0]
        return max(
            (end - start) / span for start, end in zip(self._first[1], self._last[1])
        )


# -- spans ------------------------------------------------------------------------------


class Spans:
    """In-memory layer spans recorded around calls into the program.

    Each span knows the span that was open on its thread when it began, so
    a layer's self time is its total minus the time of its child spans.
    Only per-name totals are kept: the benchmark needs layer shares, and
    hundreds of thousands of raw spans per run would cost more than the
    layers they time.
    """

    def __init__(self) -> None:
        self.total: Dict[str, float] = defaultdict(float)
        self.children: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        stack.append(name)
        started = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - started
            stack.pop()
            with self._lock:
                self.total[name] += elapsed
                self.calls[name] += 1
                if parent is not None:
                    self.children[parent] += elapsed

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` with every call recorded as a span named ``name``."""

        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def self_s(self, name: str) -> float:
        return max(0.0, self.total.get(name, 0.0) - self.children.get(name, 0.0))

    def add(self, name: str, seconds: float) -> None:
        """Fold in a span total measured elsewhere (another process)."""
        with self._lock:
            self.total[name] += seconds
            self.calls[name] += 1

    def table(self, wall_s: float) -> List[str]:
        """One line per span: calls, total, self time and self share of wall."""
        lines = [f"  {'span':<28}{'calls':>9}{'total s':>10}{'self s':>10}{'self/wall':>11}"]
        for name in sorted(self.total, key=lambda n: -self.self_s(n)):
            self_s = self.self_s(name)
            lines.append(
                f"  {name:<28}{self.calls[name]:>9}{self.total[name]:>10.3f}"
                f"{self_s:>10.3f}{self_s / wall_s if wall_s else 0.0:>11.3f}"
            )
        return lines

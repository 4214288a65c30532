"""``batch_score``: offline replay and scoring of long recordings.

The four site types are rendered once each, tiled in time into long
recordings, replayed through ``EbbiotPipeline.process_stream`` (the chunked
``build_batch`` path, overlap tracker) and scored with
``compute_mot_summary`` and ``evaluate_recording``; throughput counts both,
as a user evaluating a corpus waits for both.  Passes over the corpus
repeat until the run's time is up.  Times are taken per recording and
pass, reduced over passes with :func:`common.fast_end` and summed; frame
latency percentiles are per pass, reduced the same way.

Frame latency here is each frame's service time: offline, a frame is taken
up as soon as the one before it is done.  ``process_stream`` builds EBBI
frames a chunk of windows at a time (``build_batch``: accumulation and
median filter) and then runs RPN, ROE and the tracker frame by frame, so a
frame's service time is the gap between its tracker step and the previous
one, less the chunk build that fell in that gap, plus an equal share of
its chunk's build.  The step times come from a subclass of the public
overlap backend, the build times from a wrapper around the pipeline's
``ebbi_builder.build_batch``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

import repro.core.ebbi as ebbi_module
from common import (
    Spans,
    digest,
    fast_end,
    observation_key,
    percentile,
    pipeline_config_for,
    render_sites,
    score,
    scores_agree,
    slowdown,
    tile,
    median_setup,
)
from layers import model_vs_measured, stage_metrics
from repro.core.pipeline import EbbiotPipeline
from repro.trackers.registry import OverlapBackend

#: Tiles per site: ~370 frames per recording, where scoring already shows
#: its quadratic growth but one pass stays a small share of a run.
TILES = 8


class _ClockedOverlap(OverlapBackend):
    """The overlap backend, stamping the wall time at which each frame is done."""

    def __init__(self, config) -> None:
        super().__init__(config)
        self.stamps = []

    def step(self, frame):
        tracks = super().step(frame)
        self.stamps.append(time.perf_counter())
        return tracks


def _clock_builds(pipeline):
    """Record ``(start, end, frames)`` of every ``build_batch`` chunk."""
    builds = []
    build_batch = pipeline.ebbi_builder.build_batch

    def clocked(events, starts, ends, splits):
        started = time.perf_counter()
        frames = build_batch(events, starts, ends, splits)
        builds.append((started, time.perf_counter(), len(frames)))
        return frames

    pipeline.ebbi_builder.build_batch = clocked
    return builds


def _service_times(started, stamps, builds):
    """Per-frame service time (s): step gaps, each chunk's build shared out."""
    service = np.diff(np.asarray([started] + stamps))
    first = 0
    for build_start, build_end, frames in builds:
        build_s = build_end - build_start
        service[first] -= build_s
        service[first:first + frames] += build_s / frames
        first += frames
    return service


def _traced_pipeline(pipeline, backend, spans: Spans):
    """Spans around the stages of one pipeline, on its chunked path.

    ``build_batch`` is split into accumulation and median filter by the
    ``repro.core.ebbi`` functions it calls (patched by :func:`_traced`); the
    frame-by-frame stages are wrapped on the pipeline's own objects.
    """
    pipeline.ebbi_builder.build_batch = spans.wrap(
        "ebbi_builder.build_batch", pipeline.ebbi_builder.build_batch)
    pipeline.region_proposer.propose = spans.wrap(
        "pipeline.rpn", pipeline.region_proposer.propose)
    filter_proposals = pipeline.roe.filter_proposals

    def counted(proposals):
        with spans.span("pipeline.roe"):
            kept = filter_proposals(proposals)
        spans.calls["roe.offered"] += len(proposals)
        spans.calls["roe.kept"] += len(kept)
        return kept

    pipeline.roe.filter_proposals = counted
    backend.step = spans.wrap("pipeline.tracker", backend.step)


def _build(seed: int):
    rng = np.random.default_rng(seed)
    return [tile(site, TILES, rng) for site in render_sites(4)]


def _pass(corpus, spans: Spans = None):
    """One replay + scoring pass over the corpus (traced when given ``spans``)."""
    out = {"track_s": 0.0, "events": 0, "score_s": 0.0, "mot_s": 0.0, "pr_s": 0.0,
           "latencies_ms": [], "recordings": [], "per_recording": [], "frames": 0,
           "alpha_weighted": 0.0, "trackers_weighted": 0.0, "slowdowns": [],
           "raw_s": 0.0, "mot_raw_s": 0.0, "pr_raw_s": 0.0}
    for site in corpus:
        factor = slowdown(2)
        out["slowdowns"].append(factor)
        config = pipeline_config_for(site)
        backend = _ClockedOverlap(config)
        pipeline = EbbiotPipeline(config, tracker=backend)
        builds = _clock_builds(pipeline)
        if spans is not None:
            _traced_pipeline(pipeline, backend, spans)
        started = time.perf_counter()
        result = pipeline.process_stream(site.stream, collect_frames=False)
        raw_track_s = time.perf_counter() - started
        track_s = raw_track_s / factor
        service = _service_times(started, backend.stamps, builds)
        out["latencies_ms"].extend((service * 1e3 / factor).tolist())
        observations = result.track_history.observations
        factor = slowdown(1)
        scored = score(observations, site.ground_truth)
        out["raw_s"] += raw_track_s + scored["mot_s"] + scored["pr_s"]
        out["mot_raw_s"] += scored["mot_s"]
        out["pr_raw_s"] += scored["pr_s"]
        scored["mot_s"] /= factor
        scored["pr_s"] /= factor
        out["per_recording"].append(
            {"track_s": track_s, "total_s": track_s + scored["mot_s"] + scored["pr_s"]}
        )
        out["track_s"] += track_s
        out["events"] += len(site.stream)
        out["mot_s"] += scored["mot_s"]
        out["pr_s"] += scored["pr_s"]
        out["score_s"] += scored["mot_s"] + scored["pr_s"]
        out["frames"] += result.num_frames
        out["alpha_weighted"] += result.mean_active_pixel_fraction * result.num_frames
        out["trackers_weighted"] += result.mean_active_trackers * result.num_frames
        out["recordings"].append((site, observations, scored))
    return out


def _counts(recordings):
    """Pooled CLEAR-MOT and precision/recall counts of one pass."""
    mot = [0, 0, 0, 0, 0]
    pr = [0, 0, 0]
    for _, _, scored in recordings:
        m = scored["mot"]
        mot[0] += m.num_matches
        mot[1] += m.num_false_positives
        mot[2] += m.num_misses
        mot[3] += m.num_id_switches
        mot[4] += m.num_ground_truth_boxes
        for threshold in sorted(scored["pr"].by_threshold):
            p = scored["pr"].by_threshold[threshold]
            pr[0] += p.true_positives
            pr[1] += p.total_tracker_boxes
            pr[2] += p.total_ground_truth_boxes
    return mot, pr


def _check(corpus, first) -> int:
    """Failed recordings of the first pass against the two oracles.

    The per-window replay (``iter_stream``, EBBI built one window at a
    time) must give the chunked replay's observations exactly, and both
    scorers must agree with the independent alignment of
    :func:`common.oracle_counts`.
    """
    failed = 0
    for site, observations, scored in first["recordings"]:
        per_window = [
            observation_key(track)
            for frame in EbbiotPipeline(pipeline_config_for(site)).iter_stream(site.stream)
            for track in frame.tracks
        ]
        if per_window != [observation_key(o) for o in observations]:
            failed += 1
        elif not scores_agree(scored, observations, site.ground_truth):
            failed += 1
    return failed


def _robust(passes, key) -> float:
    """Sum over recordings of each recording's :func:`common.fast_end` time."""
    return sum(
        fast_end([p["per_recording"][index][key] for p in passes])
        for index in range(len(passes[0]["per_recording"]))
    )


def _digest(recordings) -> str:
    mot, pr = _counts(recordings)
    return digest(mot + pr)


def run(seed: int, seconds: float, trace: bool) -> dict:
    corpus, setup_s, setup_all = median_setup(lambda: _build(seed))
    deadline = time.perf_counter() + seconds
    passes = []
    while not passes or time.perf_counter() < deadline:
        passes.append(_pass(corpus))
    failed = _check(corpus, passes[0])
    reference = _digest(passes[0]["recordings"])
    failed += sum(1 for p in passes[1:] if _digest(p["recordings"]) != reference)
    attempted = len(passes) * len(corpus)
    mot, pr = _counts(passes[0]["recordings"])

    events_per_s = passes[0]["events"] / _robust(passes, "total_s")
    lines = [
        f"batch_score: {len(corpus)} recordings x {TILES} tiles, "
        f"{passes[0]['events']} events, {passes[0]['frames']} frames per pass, "
        f"{len(passes)} passes",
        f"  CLEAR-MOT pooled: matches={mot[0]} fp={mot[1]} misses={mot[2]} "
        f"idsw={mot[3]} gt={mot[4]}",
        f"  precision/recall pooled over thresholds: tp={pr[0]} reported={pr[1]} gt={pr[2]}",
        f"  digest {reference}; failed {failed} of {attempted} recordings replayed",
        f"  per pass: tracking {_robust(passes, 'track_s'):.3f} s, scoring "
        f"{_robust(passes, 'total_s') - _robust(passes, 'track_s'):.3f} s",
        f"  host slowdown {statistics.median(f for p in passes for f in p['slowdowns']):.3f}"
        f" (timings below are scaled to the reference host)",
        f"  setup repeats (s): {', '.join(f'{s:.3f}' for s in setup_all)}",
    ]
    result = {
        "attempted": attempted,
        "failed": failed,
        "lines": lines,
        "metrics": {
            "setup_s": setup_s,
            "events_per_s": events_per_s,
            "frame_latency_p50_ms": fast_end(
                [percentile(p["latencies_ms"], 50) for p in passes]),
            "frame_latency_p99_ms": fast_end(
                [percentile(p["latencies_ms"], 99) for p in passes]),
        },
        "samples": {"frame_latency": len(passes[0]["latencies_ms"]), "passes": len(passes)},
    }
    if trace:
        result["layers"] = _traced(corpus, seconds, events_per_s, lines)
    return result


def _traced(corpus, seconds, untraced_events_per_s, lines) -> dict:
    """Traced passes on the same chunked path: stage spans, proposals, scorers.

    The spans are the benchmark's own wrappers (see :func:`_traced_pipeline`),
    not the pipeline's ``Instrumentation``, which would switch
    ``process_stream`` to per-window EBBI builds.
    """
    spans = Spans()
    patched = ("events_to_binary_frame_batch", "binary_median_filter_stack")
    originals = {name: getattr(ebbi_module, name) for name in patched}
    ebbi_module.events_to_binary_frame_batch = spans.wrap(
        "ebbi.accumulate", originals["events_to_binary_frame_batch"])
    ebbi_module.binary_median_filter_stack = spans.wrap(
        "pipeline.median", originals["binary_median_filter_stack"])
    try:
        deadline = time.perf_counter() + seconds
        passes = []
        while not passes or time.perf_counter() < deadline:
            passes.append(_pass(corpus, spans))
    finally:
        for name, original in originals.items():
            setattr(ebbi_module, name, original)
    n = len(passes)
    # The ebbi stage is the whole chunk build less its median filter: the
    # accumulation plus the per-frame bookkeeping of build_batch.
    stage_total = {
        "ebbi": spans.self_s("ebbi_builder.build_batch") + spans.self_s("ebbi.accumulate"),
        "median": spans.self_s("pipeline.median"),
        "rpn": spans.self_s("pipeline.rpn"),
        "roe": spans.self_s("pipeline.roe"),
        "tracker": spans.self_s("pipeline.tracker"),
    }
    per_pass = {stage: value / n for stage, value in stage_total.items()}
    frames = sum(p["frames"] for p in passes)
    traced_events_per_s = passes[0]["events"] / _robust(passes, "total_s")
    offered = spans.calls["roe.offered"]
    layers = stage_metrics(per_pass)
    layers.update({
        "rpn.proposals_per_frame": offered / frames,
        "roe.kept_fraction": spans.calls["roe.kept"] / offered if offered else 1.0,
        "evaluation.mot_s": statistics.median(p["mot_raw_s"] for p in passes),
        "evaluation.pr_s": statistics.median(p["pr_raw_s"] for p in passes),
        "evaluation.gt_instants": float(sum(len(s.ground_truth) for s in corpus)),
        "trace.overhead_fraction": 1.0 - traced_events_per_s / untraced_events_per_s,
    })
    # Spans time raw seconds, so shares are of the raw (unscaled) pass time.
    wall = statistics.median(p["raw_s"] for p in passes)
    lines.append(f"  traced: {n} passes on the chunked build_batch path, "
                 f"per-pass wall {wall:.3f} s, {traced_events_per_s:.0f} events/s "
                 f"(untraced {untraced_events_per_s:.0f})")
    lines.append(f"  {'layer':<20}{'self s/pass':>12}{'share of wall':>15}")
    for stage in ("ebbi", "median", "rpn", "roe", "tracker"):
        lines.append(f"  pipeline.{stage:<11}{per_pass[stage]:>12.4f}"
                     f"{per_pass[stage] / wall:>15.3f}")
    for name in ("evaluation.mot_s", "evaluation.pr_s"):
        lines.append(f"  {name:<20}{layers[name]:>12.4f}{layers[name] / wall:>15.3f}")
    lines.extend(model_vs_measured(
        per_pass,
        sum(p["alpha_weighted"] for p in passes) / frames,
        sum(p["trackers_weighted"] for p in passes) / frames,
    ))
    return layers

"""Opt-in stage instrumentation for the EBBIOT pipeline.

An :class:`Instrumentation` object is the single handle the pipeline (and
anything wrapping it — runtime jobs, serving sessions, bench scenarios)
needs to account per-stage cost.  It composes three optional sinks:

* a local ``stage_seconds``/``stage_calls`` accumulator (always on — this
  is what :class:`~repro.runtime.aggregate.RecordingResult` and the bench
  stage-breakdown scenario report);
* a :class:`~repro.obs.trace.Tracer`, fed one span per stage per sampled
  frame window plus one enclosing ``frame`` span;
* a :class:`~repro.obs.metrics.MetricsRegistry`, fed a
  ``repro_pipeline_stage_seconds_total`` counter labelled by stage (plus
  any caller-supplied labels, e.g. ``sensor`` in the hub).

Sampling (``sample_every=N``) thins the *tracer* output only — a long run
traced at every 10th window stays Perfetto-sized while the seconds
accumulator and metrics remain exact.

The pipeline's zero-cost-when-off contract lives one level up: when no
``Instrumentation`` is attached, :class:`~repro.core.pipeline.EbbiotPipeline`
never calls into this module at all.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer

#: Stage names in pipeline order.  ``ebbi`` (event accumulation) and
#: ``median`` (noise filtering) are timed inside the EBBI builder; ``rpn``
#: (histogram region proposals), ``roe`` (region-of-exclusion filtering)
#: and ``tracker`` (backend step) in the pipeline core.  Proposal-free
#: backends (EBMS) only emit ``ebbi``/``median``/``tracker``.
PIPELINE_STAGES: Tuple[str, ...] = ("ebbi", "median", "rpn", "roe", "tracker")

#: Metric name for the cumulative per-stage cost counter.
STAGE_SECONDS_METRIC = "repro_pipeline_stage_seconds_total"


class Instrumentation:
    """Per-pipeline stage accounting with optional trace/metrics sinks.

    Not thread-safe by design: each pipeline (and each serving session)
    owns its instance, matching the pipeline's own single-threaded
    contract.  The tracer and metrics registry it feeds *are* shared and
    thread-safe.
    """

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        labels: Optional[Dict[str, str]] = None,
        sample_every: int = 1,
    ) -> None:
        if sample_every < 1:
            raise ValueError(f"sample_every must be >= 1, got {sample_every}")
        self.tracer = tracer
        self.metrics = metrics
        self.labels = dict(labels or {})
        self.sample_every = sample_every
        self.stage_seconds: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}
        self.frames_seen = 0
        self._sampled = tracer is not None and sample_every == 1
        self._stage_counters: Dict[str, object] = {}
        self._stage_family = None
        if metrics is not None:
            labelnames = tuple(sorted(self.labels)) + ("stage",)
            self._stage_family = metrics.counter(
                STAGE_SECONDS_METRIC,
                "Cumulative wall-clock seconds spent per pipeline stage.",
                labelnames=labelnames,
            )

    def begin_frame(self, frame_index: int) -> None:
        """Mark the start of a frame window; decides tracer sampling."""
        self.frames_seen += 1
        self._sampled = (
            self.tracer is not None and frame_index % self.sample_every == 0
        )

    @contextmanager
    def frame(
        self, frame_index: int, t_start_us: int, t_end_us: int, num_events: int
    ) -> Iterator[None]:
        """Wrap one frame window: sampling decision + enclosing span."""
        self.begin_frame(frame_index)
        if self._sampled:
            with self.tracer.span(
                f"frame[{frame_index}]",
                cat="frame",
                args={
                    "frame_index": frame_index,
                    "t_start_us": int(t_start_us),
                    "t_end_us": int(t_end_us),
                    "num_events": int(num_events),
                },
            ):
                yield
        else:
            yield

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time one pipeline stage within the current frame window."""
        start = time.perf_counter()
        try:
            if self._sampled:
                with self.tracer.span(name, cat="stage"):
                    yield
            else:
                yield
        finally:
            elapsed = time.perf_counter() - start
            self.stage_seconds[name] = self.stage_seconds.get(name, 0.0) + elapsed
            self.stage_calls[name] = self.stage_calls.get(name, 0) + 1
            if self._stage_family is not None:
                counter = self._stage_counters.get(name)
                if counter is None:
                    counter = self._stage_family.labels(**self.labels, stage=name)
                    self._stage_counters[name] = counter
                counter.inc(elapsed)

    def reset(self) -> None:
        """Clear the local accumulators (shared sinks are left alone)."""
        self.stage_seconds.clear()
        self.stage_calls.clear()
        self.frames_seen = 0
        self._sampled = self.tracer is not None and self.sample_every == 1

    def snapshot(self) -> Dict[str, float]:
        """A plain-dict copy of the per-stage seconds (picklable)."""
        return dict(self.stage_seconds)

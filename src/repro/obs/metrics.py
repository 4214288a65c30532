"""Thread-safe metrics primitives with labels, a registry, and exporters.

The serving and runtime layers need the same three instrument kinds every
monitoring stack needs — monotonic :class:`Counter`\\ s, settable
:class:`Gauge`\\ s and :class:`Histogram`\\ s — addressable by name plus a
small set of label dimensions (``sensor``, ``stage``, ``recording``...).
A :class:`MetricsRegistry` owns the metric families of one process (or one
hub) and exports them two ways:

* :meth:`MetricsRegistry.to_prometheus_text` — the Prometheus text
  exposition format (version 0.0.4), what ``python -m repro.runtime
  --metrics FILE`` writes and what the serving protocol's ``metrics``
  command returns, so any Prometheus-compatible scraper can ingest it;
* :meth:`MetricsRegistry.state_dict` — the complete JSON-serialisable
  state, which process shards ship to the hub and
  :meth:`MetricsRegistry.merge_state` folds back together.

Every child metric guards its state with its own lock; updates are a couple
of float operations, so contention is negligible next to the pipeline work
(the same trade-off :mod:`repro.serving.telemetry` has always made).
:func:`parse_prometheus_text` is the inverse of the text exporter — tests
and the CI obs-smoke job use it to assert a scraped exposition round-trips.
"""

from __future__ import annotations

import math
import re
import threading
from bisect import bisect_left
from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Metric and label names follow the Prometheus data-model grammar.
_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds) — spans sub-millisecond stage times
#: to multi-second recording replays.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

#: Samples retained per histogram child for window percentile queries.
DEFAULT_PERCENTILE_WINDOW = 4096


def _validate_metric_name(name: str) -> str:
    if not _METRIC_NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _validate_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    names = tuple(labelnames)
    for label in names:
        if not _LABEL_NAME_RE.match(label):
            raise ValueError(f"invalid label name {label!r}")
        if label == "le":
            raise ValueError("label name 'le' is reserved for histogram buckets")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names in {names}")
    return names


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects.

    Integers drop the trailing ``.0`` (``5`` not ``5.0``) so counters stay
    diff-friendly; infinities become ``+Inf``/``-Inf``.
    """
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if math.isnan(value):
        return "NaN"
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


def _format_labels(labels: Sequence[Tuple[str, str]]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(value)}"' for name, value in labels
    )
    return "{" + inner + "}"


class _CounterValue:
    """One labelled counter sample (monotonic, non-negative increments)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters can only increase, got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _GaugeValue:
    """One labelled gauge sample (set / inc / dec)."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class _HistogramValue:
    """One labelled histogram sample.

    Tracks the classic Prometheus cumulative-bucket counts plus lifetime
    ``sum``/``count``, and additionally retains the last ``window`` raw
    samples so percentile queries reflect *recent* behaviour (what a live
    latency dashboard wants) at bounded memory.
    """

    __slots__ = ("_lock", "_bounds", "_bucket_counts", "_count", "_sum", "_window")

    def __init__(self, bounds: Tuple[float, ...], window: int) -> None:
        self._lock = threading.Lock()
        self._bounds = bounds
        self._bucket_counts = [0] * (len(bounds) + 1)  # trailing +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._window: Deque[float] = deque(maxlen=window)

    def observe(self, value: float) -> None:
        """Record one sample."""
        value = float(value)
        with self._lock:
            self._bucket_counts[bisect_left(self._bounds, value)] += 1
            self._count += 1
            self._sum += value
            self._window.append(value)

    @property
    def count(self) -> int:
        """Samples observed over the lifetime (not just retained)."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Lifetime sum of observed values."""
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        """Lifetime mean (0.0 before the first observation)."""
        with self._lock:
            if self._count == 0:
                return 0.0
            return self._sum / self._count

    def percentile(self, q: float) -> float:
        """The ``q``-th percentile (0-100) over the retained window.

        Uses linear interpolation between closest ranks (NumPy's default
        ``np.percentile`` method).  An empty window returns ``0.0``; a
        single retained sample is every percentile of itself.
        """
        with self._lock:
            if not self._window:
                return 0.0
            samples = list(self._window)
        if len(samples) == 1:
            return float(samples[0])
        return float(np.percentile(np.asarray(samples), q))

    def bucket_counts(self) -> List[Tuple[float, int]]:
        """Cumulative ``(upper_bound, count)`` pairs, ending at ``+Inf``."""
        with self._lock:
            counts = list(self._bucket_counts)
        cumulative: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip((*self._bounds, math.inf), counts):
            running += count
            cumulative.append((bound, running))
        return cumulative

    def raw_state(self) -> dict:
        """Raw (non-cumulative) serialisable state for cross-process merge."""
        with self._lock:
            return {
                "bucket_counts": list(self._bucket_counts),
                "count": self._count,
                "sum": self._sum,
                "window": list(self._window),
            }

    def merge_raw(self, state: dict) -> None:
        """Fold another sample's :meth:`raw_state` into this one.

        Bucket counts, lifetime count and sum add exactly; the percentile
        window concatenates (and re-truncates to its capacity), which is
        the best a bounded window can do — cross-process sample order is
        arbitrary anyway and percentiles are order-free.
        """
        counts = state["bucket_counts"]
        with self._lock:
            if len(counts) != len(self._bucket_counts):
                raise ValueError(
                    f"histogram state has {len(counts)} buckets, "
                    f"expected {len(self._bucket_counts)}"
                )
            for i, count in enumerate(counts):
                self._bucket_counts[i] += count
            self._count += state["count"]
            self._sum += state["sum"]
            self._window.extend(state["window"])


class _MetricFamily:
    """Common machinery: a named metric plus its labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> None:
        self.name = _validate_metric_name(name)
        self.help = help
        self.labelnames = _validate_labelnames(labelnames)
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], object] = {}

    def _make_child(self) -> object:
        raise NotImplementedError

    def labels(self, **labelvalues: object):
        """The child metric for one combination of label values.

        Children are created lazily and cached, so holding on to the
        returned handle makes the hot-path update a couple of plain
        attribute operations.
        """
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}"
            )
        key = tuple(str(labelvalues[name]) for name in self.labelnames)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def _unlabelled(self):
        if self.labelnames:
            raise ValueError(
                f"metric {self.name!r} requires labels {self.labelnames}; "
                "address a child via .labels(...)"
            )
        return self.labels()

    def children(self) -> List[Tuple[Tuple[str, ...], object]]:
        """``(label_values, child)`` pairs in sorted label order."""
        with self._lock:
            return sorted(self._children.items())


class Counter(_MetricFamily):
    """A monotonically increasing metric family (events, batches, seconds)."""

    kind = "counter"

    def _make_child(self) -> _CounterValue:
        return _CounterValue()

    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled sample (label-free families only)."""
        self._unlabelled().inc(amount)

    @property
    def value(self) -> float:
        """Value of the unlabelled sample (label-free families only)."""
        return self._unlabelled().value


class Gauge(_MetricFamily):
    """A settable metric family (queue depths, temperatures, flags)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeValue:
        return _GaugeValue()

    def set(self, value: float) -> None:
        self._unlabelled().set(value)

    def inc(self, amount: float = 1.0) -> None:
        self._unlabelled().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._unlabelled().dec(amount)

    @property
    def value(self) -> float:
        return self._unlabelled().value


class Histogram(_MetricFamily):
    """A distribution metric family (latencies, stage durations).

    Exposes Prometheus cumulative buckets for scraping plus windowed
    percentile queries for dashboards (see :class:`_HistogramValue`).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = DEFAULT_PERCENTILE_WINDOW,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"bucket bounds must be strictly increasing, got {bounds}")
        if window <= 0:
            raise ValueError(f"percentile window must be positive, got {window}")
        self.buckets = bounds
        self.window = window

    def _make_child(self) -> _HistogramValue:
        return _HistogramValue(self.buckets, self.window)

    def observe(self, value: float) -> None:
        self._unlabelled().observe(value)

    def percentile(self, q: float) -> float:
        return self._unlabelled().percentile(q)

    @property
    def count(self) -> int:
        return self._unlabelled().count

    @property
    def sum(self) -> float:
        return self._unlabelled().sum


class MetricsRegistry:
    """The metric families of one process, hub or run.

    ``counter``/``gauge``/``histogram`` are get-or-create: asking twice for
    the same name returns the same family (so independent modules can share
    e.g. ``repro_pipeline_stage_seconds_total``), while re-registering a
    name with a different kind or label set fails loudly.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _MetricFamily] = {}

    def _get_or_create(self, cls, name: str, help: str, labelnames, **kwargs):
        with self._lock:
            family = self._families.get(name)
            if family is not None:
                if not isinstance(family, cls):
                    raise ValueError(
                        f"metric {name!r} is already registered as a "
                        f"{family.kind}, not a {cls.kind}"
                    )
                if family.labelnames != _validate_labelnames(labelnames):
                    raise ValueError(
                        f"metric {name!r} is already registered with labels "
                        f"{family.labelnames}, not {tuple(labelnames)}"
                    )
                return family
            family = cls(name, help, labelnames, **kwargs)
            self._families[name] = family
            return family

    def counter(
        self, name: str, help: str = "", labelnames: Sequence[str] = ()
    ) -> Counter:
        """Get or create a counter family."""
        return self._get_or_create(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "", labelnames: Sequence[str] = ()) -> Gauge:
        """Get or create a gauge family."""
        return self._get_or_create(Gauge, name, help, labelnames)

    def histogram(
        self,
        name: str,
        help: str = "",
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        window: int = DEFAULT_PERCENTILE_WINDOW,
    ) -> Histogram:
        """Get or create a histogram family."""
        return self._get_or_create(
            Histogram, name, help, labelnames, buckets=buckets, window=window
        )

    def families(self) -> List[_MetricFamily]:
        """All registered families, sorted by name (export order)."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._families)

    # -- cross-process state -------------------------------------------------------------

    def state_dict(self) -> dict:
        """Complete, JSON-serialisable snapshot of every family and child.

        This is the wire format process shards use to report their metrics:
        each worker process snapshots its registry, ships the plain dict
        over its result pipe, and the hub folds the shards into one view
        with :meth:`merge_state` — yielding a single exposition that spans
        process boundaries (scrape round-trip asserted in the obs tests).
        """
        out = []
        for family in self.families():
            entry: dict = {
                "name": family.name,
                "kind": family.kind,
                "help": family.help,
                "labelnames": list(family.labelnames),
                "children": [],
            }
            if isinstance(family, Histogram):
                entry["buckets"] = list(family.buckets)
                entry["window"] = family.window
            for values, child in family.children():
                if isinstance(child, _HistogramValue):
                    entry["children"].append(
                        {"labels": list(values), **child.raw_state()}
                    )
                else:
                    entry["children"].append(
                        {"labels": list(values), "value": child.value}
                    )
            out.append(entry)
        return {"families": out}

    def merge_state(self, state: dict) -> None:
        """Fold a :meth:`state_dict` snapshot into this registry.

        Families are get-or-created with the snapshot's kind/labels (the
        usual mismatch checks apply), then per child: counters **add**,
        gauges **set** (last writer wins — shard/sensor labels keep writers
        disjoint in practice), histograms merge bucket counts, totals and
        percentile windows.  Merging K disjoint snapshots into a fresh
        registry therefore reproduces exactly the exposition a single
        shared registry would have produced.
        """
        for entry in state["families"]:
            kind = entry["kind"]
            labelnames = tuple(entry["labelnames"])
            if kind == "counter":
                family = self.counter(entry["name"], entry["help"], labelnames)
            elif kind == "gauge":
                family = self.gauge(entry["name"], entry["help"], labelnames)
            elif kind == "histogram":
                family = self.histogram(
                    entry["name"],
                    entry["help"],
                    labelnames,
                    buckets=entry["buckets"],
                    window=entry["window"],
                )
            else:
                raise ValueError(f"unknown metric kind {kind!r} in state")
            for child_state in entry["children"]:
                labels = dict(zip(labelnames, child_state["labels"]))
                child = family.labels(**labels)
                if kind == "counter":
                    child.inc(child_state["value"])
                elif kind == "gauge":
                    child.set(child_state["value"])
                else:
                    child.merge_raw(child_state)

    # -- exporters -----------------------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """The registry in Prometheus text exposition format 0.0.4."""
        lines: List[str] = []
        for family in self.families():
            if family.help:
                lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for values, child in family.children():
                labels = list(zip(family.labelnames, values))
                if isinstance(child, _HistogramValue):
                    for bound, count in child.bucket_counts():
                        bucket_labels = labels + [("le", format_value(bound))]
                        lines.append(
                            f"{family.name}_bucket{_format_labels(bucket_labels)} "
                            f"{count}"
                        )
                    lines.append(
                        f"{family.name}_sum{_format_labels(labels)} "
                        f"{format_value(child.sum)}"
                    )
                    lines.append(
                        f"{family.name}_count{_format_labels(labels)} {child.count}"
                    )
                else:
                    lines.append(
                        f"{family.name}{_format_labels(labels)} "
                        f"{format_value(child.value)}"
                    )
        return "\n".join(lines) + "\n" if lines else ""


# -- exposition parsing -----------------------------------------------------------------

#: One exposition sample line: name, optional {labels}, value (exponent ok).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>[+-]?(?:\d+\.?\d*(?:[eE][+-]?\d+)?|Inf|NaN))"
    r"(?:\s+\d+)?$"  # optional timestamp
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def parse_prometheus_text(
    text: str,
) -> Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float]:
    """Parse text exposition back into ``{(name, labels): value}``.

    ``labels`` is a sorted tuple of ``(label, value)`` pairs.  Raises
    :class:`ValueError` on any malformed line, which is exactly what the CI
    obs-smoke job wants: a scrape either parses completely or fails the
    build.  Comment (``#``) and blank lines are skipped.
    """
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        match = _SAMPLE_RE.match(stripped)
        if not match:
            raise ValueError(
                f"malformed exposition line {line_number}: {line!r}"
            )
        labels: List[Tuple[str, str]] = []
        raw_labels = match.group("labels")
        if raw_labels:
            position = 0
            while position < len(raw_labels):
                pair = _LABEL_PAIR_RE.match(raw_labels, position)
                if not pair:
                    raise ValueError(
                        f"malformed labels on line {line_number}: {line!r}"
                    )
                labels.append(
                    (pair.group("name"), _unescape_label_value(pair.group("value")))
                )
                position = pair.end()
        raw_value = match.group("value")
        if raw_value in ("Inf", "+Inf"):
            value = math.inf
        elif raw_value == "-Inf":
            value = -math.inf
        elif raw_value == "NaN":
            value = math.nan
        else:
            value = float(raw_value)
        samples[(match.group("name"), tuple(sorted(labels)))] = value
    return samples


def sample_value(
    samples: Dict[Tuple[str, Tuple[Tuple[str, str], ...]], float],
    name: str,
    **labels: str,
) -> Optional[float]:
    """Convenience lookup into :func:`parse_prometheus_text` output."""
    return samples.get((name, tuple(sorted(labels.items()))))

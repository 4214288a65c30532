"""Event-based mean-shift (EBMS) cluster tracker.

The fully event-driven baseline the paper compares against (Section II-C,
Eq. (8)) is the cluster tracker of Delbruck & Lang ("Robotic goalie",
Frontiers in Neuroscience 2013): every event either joins the nearest
existing cluster — shifting the cluster centre towards it (the "mean shift")
— or, if no cluster is close enough, seeds a new potential cluster.
Clusters become visible once they have absorbed enough events, merge when
they collide, and decay when no events support them.  Cluster velocity is
estimated by least-squares regression over the last ``history_length``
positions, matching the paper's assumption that "past 10 positions of a
cluster is used to calculate the current velocity".

The tracker consumes *NN-filtered* events (the event-driven pipeline is
NN-filt → EBMS).  For evaluation it is sampled at the same frame instants
as the frame-based trackers via :meth:`EbmsTracker.process_frame`.

The per-event loop exists twice: :meth:`EbmsTracker.process_events_scalar`
is the sequential reference (one event at a time, exactly as an embedded
event processor would run it), and the default
:meth:`EbmsTracker.process_events` is a screened fast path that reaches
bit-identical cluster state — same centres, spreads, counts, histories,
merges and decays — by skipping only work the reference provably would not
do (see the method docstring).  ``REPRO_FORCE_SCALAR=1`` or
``EbmsTracker(vectorized=False)`` pins the reference path;
``tests/test_event_path_parity.py`` asserts the equivalence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.trackers.base import TrackObservation, TrackState
from repro.utils.fastpath import scalar_forced
from repro.utils.geometry import BoundingBox

#: Sub-chunk size for the vectorized distance screen: one ``chunk x CL``
#: chebyshev-distance evaluation per screen rebuild.
EBMS_SCREEN_CHUNK = 512


@dataclass
class EbmsConfig:
    """Parameters of the EBMS cluster tracker.

    Parameters
    ----------
    max_clusters:
        Maximum simultaneous clusters ``CLmax`` (8 in the paper).
    cluster_radius_px:
        Capture radius of a cluster: events within this distance of a
        cluster centre are assigned to it.
    mixing_factor:
        Fraction by which the cluster centre moves towards each assigned
        event (the mean-shift step size).
    support_threshold_events:
        Events a potential cluster must absorb before it becomes visible.
    decay_time_us:
        A cluster not updated for this long is removed.
    history_length:
        Number of past positions used for the least-squares velocity fit
        (10 in the paper's cost model).
    history_interval_us:
        Minimum spacing between stored history positions.  Sampling the
        cluster centre at most every few milliseconds makes the velocity
        regression span a meaningful time window instead of the last handful
        of (microsecond-spaced) events.
    merge_distance_px:
        Two clusters closer than this are merged.
    """

    max_clusters: int = 8
    cluster_radius_px: float = 25.0
    mixing_factor: float = 0.1
    support_threshold_events: int = 60
    decay_time_us: int = 150_000
    history_length: int = 10
    history_interval_us: int = 10_000
    merge_distance_px: float = 15.0

    def __post_init__(self) -> None:
        if self.max_clusters < 1:
            raise ValueError(f"max_clusters must be >= 1, got {self.max_clusters}")
        if self.cluster_radius_px <= 0:
            raise ValueError("cluster_radius_px must be positive")
        if not 0.0 < self.mixing_factor <= 1.0:
            raise ValueError("mixing_factor must be in (0, 1]")
        if self.support_threshold_events < 1:
            raise ValueError("support_threshold_events must be >= 1")
        if self.decay_time_us <= 0:
            raise ValueError("decay_time_us must be positive")
        if self.history_length < 2:
            raise ValueError("history_length must be >= 2")
        if self.history_interval_us < 0:
            raise ValueError("history_interval_us must be non-negative")


@dataclass
class EbmsCluster:
    """One mean-shift cluster."""

    cluster_id: int
    cx: float
    cy: float
    last_update_us: int
    event_count: int = 0
    visible: bool = False
    # Spread estimates drive the reported box size.
    spread_x: float = 10.0
    spread_y: float = 10.0
    position_history: Deque[Tuple[int, float, float]] = field(default_factory=deque)

    def box(self) -> BoundingBox:
        """Bounding box derived from the cluster centre and spread."""
        width = max(4.0, 2.5 * self.spread_x)
        height = max(4.0, 2.5 * self.spread_y)
        return BoundingBox.from_center(self.cx, self.cy, width, height)

    def velocity(self) -> Tuple[float, float]:
        """Velocity in pixels per second from a least-squares fit of history.

        The slope of an ordinary least-squares line through ``history_length``
        points has the closed form ``cov(t, x) / var(t)``; with at most ten
        points the direct sums beat a general ``lstsq`` solve by two orders
        of magnitude, which matters because every visible cluster is fitted
        at every sampled frame.
        """
        if len(self.position_history) < 2:
            return (0.0, 0.0)
        entries = list(self.position_history)
        t0 = entries[0][0]
        if entries[-1][0] <= t0:
            return (0.0, 0.0)
        count = len(entries)
        times_s = [(entry[0] - t0) * 1e-6 for entry in entries]
        mean_t = sum(times_s) / count
        mean_x = sum(entry[1] for entry in entries) / count
        mean_y = sum(entry[2] for entry in entries) / count
        var_t = 0.0
        cov_tx = 0.0
        cov_ty = 0.0
        for offset_t, entry in zip(times_s, entries):
            dt = offset_t - mean_t
            var_t += dt * dt
            cov_tx += dt * (entry[1] - mean_x)
            cov_ty += dt * (entry[2] - mean_y)
        if var_t <= 0.0:
            return (0.0, 0.0)
        return (cov_tx / var_t, cov_ty / var_t)


@dataclass(frozen=True)
class EbmsState:
    """Immutable snapshot of an :class:`EbmsTracker`'s full state.

    Clusters are deep-copied (their position-history deques included) so the
    live tracker can keep mutating without disturbing the checkpoint.
    """

    clusters: Tuple[EbmsCluster, ...]
    next_cluster_id: int
    events_processed: int
    merges: int
    frames_processed: int
    total_visible_clusters: int


def _copy_cluster(cluster: EbmsCluster) -> EbmsCluster:
    """Deep copy of one cluster (fresh deque, same entries)."""
    copied = EbmsCluster(
        cluster_id=cluster.cluster_id,
        cx=cluster.cx,
        cy=cluster.cy,
        last_update_us=cluster.last_update_us,
        event_count=cluster.event_count,
        visible=cluster.visible,
        spread_x=cluster.spread_x,
        spread_y=cluster.spread_y,
    )
    copied.position_history.extend(cluster.position_history)
    return copied


class EbmsTracker:
    """Event-based mean-shift cluster tracker.

    ``vectorized=False`` pins this instance to the scalar reference loop
    (the ``REPRO_FORCE_SCALAR`` environment variable overrides all
    instances); both paths produce bit-identical cluster state.
    """

    def __init__(
        self, config: Optional[EbmsConfig] = None, vectorized: bool = True
    ) -> None:
        self.config = config or EbmsConfig()
        self.vectorized = vectorized
        self._clusters: Dict[int, EbmsCluster] = {}
        self._next_cluster_id = 1
        self._events_processed = 0
        self._merges = 0
        self._frames_processed = 0
        self._total_visible_clusters = 0
        # Conservatively assume a residual close pair may exist until a full
        # merge pass proves otherwise (see process_events); running an extra
        # pass is always semantically identical to the reference, which runs
        # one after every assigned event.
        self._merge_residual = True

    # -- per-frame interface -----------------------------------------------------------------

    def reset(self) -> None:
        """Clear all clusters and statistics."""
        self._clusters.clear()
        self._next_cluster_id = 1
        self._events_processed = 0
        self._merges = 0
        self._frames_processed = 0
        self._total_visible_clusters = 0
        self._merge_residual = True

    @property
    def num_active_tracks(self) -> int:
        """Number of visible clusters."""
        return sum(1 for c in self._clusters.values() if c.visible)

    @property
    def num_clusters(self) -> int:
        """Number of clusters including not-yet-visible potential clusters."""
        return len(self._clusters)

    @property
    def events_processed(self) -> int:
        """Total events processed since the last reset."""
        return self._events_processed

    @property
    def merges_performed(self) -> int:
        """Number of cluster merges performed."""
        return self._merges

    @property
    def mean_visible_clusters(self) -> float:
        """Mean visible clusters per sampled frame (the paper's ``CL`` ≈ 2)."""
        if self._frames_processed == 0:
            return 0.0
        return self._total_visible_clusters / self._frames_processed

    def snapshot(self) -> EbmsState:
        """Capture the complete tracker state (clusters deep-copied)."""
        return EbmsState(
            clusters=tuple(_copy_cluster(c) for c in self._clusters.values()),
            next_cluster_id=self._next_cluster_id,
            events_processed=self._events_processed,
            merges=self._merges,
            frames_processed=self._frames_processed,
            total_visible_clusters=self._total_visible_clusters,
        )

    def restore(self, state: EbmsState) -> None:
        """Reinstate a previously captured :class:`EbmsState`."""
        self._clusters = {
            cluster.cluster_id: _copy_cluster(cluster) for cluster in state.clusters
        }
        self._next_cluster_id = state.next_cluster_id
        self._events_processed = state.events_processed
        self._merges = state.merges
        self._frames_processed = state.frames_processed
        self._total_visible_clusters = state.total_visible_clusters
        # The snapshot does not track merge-pass residue; assume the worst.
        self._merge_residual = True

    # -- event-driven operation ------------------------------------------------------------------

    def process_events(self, events: np.ndarray) -> None:
        """Feed a time-sorted packet of (NN-filtered) events to the tracker.

        Dispatches to the screened fast path unless the scalar reference is
        forced; the resulting cluster state is bit-identical either way.
        """
        if not self.vectorized or len(events) < 2 or scalar_forced():
            return self.process_events_scalar(events)
        return self._process_events_fast(events)

    def process_events_scalar(self, events: np.ndarray) -> None:
        """The sequential per-event reference implementation."""
        config = self.config
        for index in range(len(events)):
            x = float(events["x"][index])
            y = float(events["y"][index])
            t = int(events["t"][index])
            self._events_processed += 1

            cluster = self._nearest_cluster(x, y)
            if cluster is None:
                if len(self._clusters) < config.max_clusters:
                    self._seed_cluster(x, y, t)
                continue

            # Mean-shift update of the cluster centre towards the event.
            mix = config.mixing_factor
            distance_x = x - cluster.cx
            distance_y = y - cluster.cy
            cluster.cx += mix * distance_x
            cluster.cy += mix * distance_y
            cluster.spread_x = (1 - mix) * cluster.spread_x + mix * abs(distance_x)
            cluster.spread_y = (1 - mix) * cluster.spread_y + mix * abs(distance_y)
            cluster.event_count += 1
            cluster.last_update_us = t
            if not cluster.visible and cluster.event_count >= config.support_threshold_events:
                cluster.visible = True
            # Sample the position history at a bounded rate so the velocity
            # regression spans a meaningful time window.
            if (
                not cluster.position_history
                or t - cluster.position_history[-1][0] >= config.history_interval_us
            ):
                cluster.position_history.append((t, cluster.cx, cluster.cy))
                while len(cluster.position_history) > config.history_length:
                    cluster.position_history.popleft()

            self._decay_clusters(t)
            self._merge_close_clusters()
        # The reference loop does not track merge-pass residue; leave the
        # fast path conservative in case the two are interleaved.
        self._merge_residual = True

    def _process_events_fast(self, events: np.ndarray) -> None:
        """Screened fast path — bit-identical to the scalar reference.

        The reference loop is sequential (every assigned event moves its
        cluster, which changes the next event's assignment), but almost all
        of its per-event work is provably skippable:

        * **Vectorized distance screen.**  Per sub-chunk, one NumPy pass
          computes every event's chebyshev distance to the chunk-start
          cluster centres.  An assignment moves a centre by at most
          ``mixing_factor * cluster_radius_px`` per axis, so an event whose
          chunk-start distance exceeds ``radius + drift * assigned_so_far``
          is guaranteed to miss every cluster at its processing moment —
          with the cluster set full, such events are pure skips (the
          reference would only count them), and runs of them are skipped in
          bulk without touching Python-level cluster math.
        * **Deadline-gated decay.**  The reference calls ``_decay_clusters``
          after every assigned event; it is a no-op until ``t`` exceeds
          ``min(last_update) + decay_time_us``, so the fast path only calls
          it past that deadline.
        * **Move-gated merging.**  The reference runs a full merge pass
          after every assigned event; a pass can only merge if the just-
          moved cluster came within ``merge_distance_px`` of another, or if
          a previous pass merged (cascade residue, tracked by
          ``_merge_residual``) or seeded within reach.  Otherwise the pass
          is provably empty and is skipped; when the gate trips, the *same*
          ``_merge_close_clusters`` routine runs, preserving the reference's
          exact pair ordering and cascade behaviour.

        Any event that changes the cluster *set* (seed, merge, decay
        removal) invalidates the screen; the outer loop then rebuilds it
        from the current state and continues.  All floating-point updates
        use the very expressions of the reference on the same Python floats,
        so centres, spreads and histories agree bit for bit.
        """
        config = self.config
        n = len(events)
        xs = events["x"].astype(np.float64)
        ys = events["y"].astype(np.float64)
        xs_list = xs.tolist()
        ys_list = ys.tolist()
        ts_list = events["t"].astype(np.int64).tolist()
        radius = config.cluster_radius_px
        mix = config.mixing_factor
        one_minus_mix = 1 - mix
        decay_us = config.decay_time_us
        merge_dist = config.merge_distance_px
        max_clusters = config.max_clusters
        interval = config.history_interval_us
        history_length = config.history_length
        support_threshold = config.support_threshold_events
        seed_can_pair = merge_dist > radius
        processed = 0

        i = 0
        while i < n:
            if not self._clusters:
                # No clusters: the event misses everything and seeds (a lone
                # cluster cannot pair, so no merge residue).
                processed += 1
                self._seed_cluster(xs_list[i], ys_list[i], ts_list[i])
                i += 1
                continue
            # Mirror the cluster state into flat locals: the inner loop runs
            # on list indexing and plain floats, and the objects are synced
            # back only at lifecycle points (decay/merge/seed/chunk end).
            clusters = list(self._clusters.values())
            num_clusters = len(clusters)
            cx_list = [c.cx for c in clusters]
            cy_list = [c.cy for c in clusters]
            spread_x_list = [c.spread_x for c in clusters]
            spread_y_list = [c.spread_y for c in clusters]
            count_list = [c.event_count for c in clusters]
            visible_list = [c.visible for c in clusters]
            update_list = [c.last_update_us for c in clusters]
            histories = [c.position_history for c in clusters]
            at_capacity = num_clusters >= max_clusters

            def sync_clusters() -> None:
                for k in range(num_clusters):
                    mirror = clusters[k]
                    mirror.cx = cx_list[k]
                    mirror.cy = cy_list[k]
                    mirror.spread_x = spread_x_list[k]
                    mirror.spread_y = spread_y_list[k]
                    mirror.event_count = count_list[k]
                    mirror.visible = visible_list[k]
                    mirror.last_update_us = update_list[k]

            # Merge-gate baseline: a pair's gap can shrink by at most the
            # two clusters' drifts since the baseline, so while the moved
            # cluster's drift plus the largest drift fits inside its
            # baseline slack, no pair test is needed at all.  Slack is kept
            # per cluster (all measured at one baseline instant) so two
            # clusters sitting close only tax their own assignments.
            def compute_slacks() -> list:
                slacks = [float("inf")] * num_clusters
                for a in range(num_clusters):
                    ax = cx_list[a]
                    ay = cy_list[a]
                    nearest_gap = slacks[a]
                    for b in range(num_clusters):
                        if b == a:
                            continue
                        dx = ax - cx_list[b]
                        if dx < 0.0:
                            dx = -dx
                        dy = ay - cy_list[b]
                        if dy < 0.0:
                            dy = -dy
                        gap = dx if dx > dy else dy
                        if gap < nearest_gap:
                            nearest_gap = gap
                    slacks[a] = nearest_gap - merge_dist
                return slacks

            slack_list = compute_slacks()
            # Screen-validity bookkeeping uses each cluster's actual
            # *displacement* from the reference positions, not its summed
            # path length: a mean-shift cluster oscillates around its blob,
            # so displacement stays small while path length grows without
            # bound — this is what keeps the chunk-start screen usable.
            # Two baselines: the chunk start (miss screen + argmin
            # validity) and the merge-gate anchor (re-anchorable mid-chunk).
            start_x = list(cx_list)
            start_y = list(cy_list)
            disp = [0.0] * num_clusters
            max_disp = 0.0
            anchor_x = list(cx_list)
            anchor_y = list(cy_list)
            gate_max = 0.0
            since_rebase = 0

            stop = min(i + EBMS_SCREEN_CHUNK, n)
            distance_stack = np.maximum(
                np.abs(xs[i:stop, None] - np.array(cx_list)[None, :]),
                np.abs(ys[i:stop, None] - np.array(cy_list)[None, :]),
            )
            # Best / second-best chunk-start distances: while the clusters'
            # displacements keep the ordering unambiguous, the argmin *is*
            # the nearest cluster and the per-event Python scan is skipped.
            nearest = distance_stack.argmin(axis=1).tolist()
            dmin = distance_stack.min(axis=1).tolist()
            if num_clusters > 1:
                second = np.partition(distance_stack, 1, axis=1)[:, 1].tolist()
            else:
                second = [float("inf")] * (stop - i)
            deadline = min(update_list) + decay_us
            miss_limit = radius  # = radius + max_disp, kept in sync below
            base = i
            j = i
            while j < stop:
                event_dmin = dmin[j - base]
                if event_dmin > miss_limit:
                    # Guaranteed miss at processing time.
                    if at_capacity:
                        # Nothing moves during a run of misses, so the limit
                        # is constant: skip the whole run in one scan.
                        k = j + 1
                        while k < stop and dmin[k - base] > miss_limit:
                            k += 1
                        processed += k - j
                        j = k
                        continue
                    processed += 1
                    sync_clusters()
                    self._seed_cluster(xs_list[j], ys_list[j], ts_list[j])
                    if seed_can_pair:
                        self._merge_residual = True
                    j += 1
                    break
                x = xs_list[j]
                y = ys_list[j]
                t = ts_list[j]
                processed += 1
                nearest_index = nearest[j - base]
                nearest_disp = disp[nearest_index]
                second_distance = second[j - base]
                if (
                    event_dmin + nearest_disp <= radius
                    and second_distance - event_dmin > nearest_disp + max_disp
                ):
                    # The chunk-start argmin is still the unique nearest
                    # cluster and still within radius: assign directly.
                    best_index = nearest_index
                elif second_distance - max_disp > radius:
                    # Every cluster except the chunk-start nearest is
                    # provably out of reach: one exact distance decides
                    # between assigning to it and missing entirely.
                    dx = x - cx_list[nearest_index]
                    if dx < 0.0:
                        dx = -dx
                    dy = y - cy_list[nearest_index]
                    if dy < 0.0:
                        dy = -dy
                    if (dx if dx > dy else dy) <= radius:
                        best_index = nearest_index
                    else:
                        if at_capacity:
                            j += 1
                            continue
                        sync_clusters()
                        self._seed_cluster(x, y, t)
                        if seed_can_pair:
                            self._merge_residual = True
                        j += 1
                        break
                else:
                    # Exact nearest-cluster test, same dict order and <= tie
                    # break as the reference's _nearest_cluster.
                    best_index = -1
                    best_distance = radius
                    for k in range(num_clusters):
                        dx = x - cx_list[k]
                        if dx < 0.0:
                            dx = -dx
                        dy = y - cy_list[k]
                        if dy < 0.0:
                            dy = -dy
                        distance = dx if dx > dy else dy
                        if distance <= best_distance:
                            best_index = k
                            best_distance = distance
                    if best_index < 0:
                        if at_capacity:
                            j += 1
                            continue
                        sync_clusters()
                        self._seed_cluster(x, y, t)
                        if seed_can_pair:
                            self._merge_residual = True
                        j += 1
                        break
                # Mean-shift update: identical arithmetic to the reference.
                cx = cx_list[best_index]
                cy = cy_list[best_index]
                distance_x = x - cx
                distance_y = y - cy
                cx += mix * distance_x
                cy += mix * distance_y
                cx_list[best_index] = cx
                cy_list[best_index] = cy
                if distance_x < 0.0:
                    distance_x = -distance_x
                if distance_y < 0.0:
                    distance_y = -distance_y
                spread_x_list[best_index] = (
                    one_minus_mix * spread_x_list[best_index] + mix * distance_x
                )
                spread_y_list[best_index] = (
                    one_minus_mix * spread_y_list[best_index] + mix * distance_y
                )
                count = count_list[best_index] + 1
                count_list[best_index] = count
                update_list[best_index] = t
                if not visible_list[best_index] and count >= support_threshold:
                    visible_list[best_index] = True
                history = histories[best_index]
                if not history or t - history[-1][0] >= interval:
                    history.append((t, cx, cy))
                    while len(history) > history_length:
                        history.popleft()
                j += 1
                # Refresh the displacement bounds from the actual new
                # position.  The lazy maxima only ever grow (a cluster that
                # wanders back leaves them conservatively high until the
                # next screen/anchor rebuild), which keeps them upper
                # bounds without rescanning all clusters.
                ddx = cx - start_x[best_index]
                if ddx < 0.0:
                    ddx = -ddx
                ddy = cy - start_y[best_index]
                if ddy < 0.0:
                    ddy = -ddy
                disp_k = ddx if ddx > ddy else ddy
                disp[best_index] = disp_k
                if disp_k > max_disp:
                    max_disp = disp_k
                    miss_limit = radius + max_disp
                gdx = cx - anchor_x[best_index]
                if gdx < 0.0:
                    gdx = -gdx
                gdy = cy - anchor_y[best_index]
                if gdy < 0.0:
                    gdy = -gdy
                gate_k = gdx if gdx > gdy else gdy
                if gate_k > gate_max:
                    gate_max = gate_k
                since_rebase += 1
                # Lifecycle, in the reference's order: decay, then merge.
                removed = False
                if t > deadline:
                    sync_clusters()
                    before = len(self._clusters)
                    self._decay_clusters(t)
                    removed = len(self._clusters) != before
                    if not removed:
                        deadline = min(update_list) + decay_us
                need_pass = self._merge_residual
                if not need_pass and gate_k + gate_max > slack_list[best_index]:
                    # Drift budget exhausted: exact test of the moved cluster
                    # against the others (only its pairs can newly violate).
                    for k in range(num_clusters):
                        if k == best_index:
                            continue
                        dx = cx - cx_list[k]
                        if dx < 0.0:
                            dx = -dx
                        dy = cy - cy_list[k]
                        if dy < 0.0:
                            dy = -dy
                        if (dx if dx > dy else dy) < merge_dist:
                            need_pass = True
                            break
                    if not need_pass and since_rebase >= 64:
                        # Amortized re-anchor: reset the displacement budget
                        # at the current positions so accumulated movement
                        # stops tripping the gate for well-separated
                        # clusters.
                        slack_list = compute_slacks()
                        anchor_x = list(cx_list)
                        anchor_y = list(cy_list)
                        gate_max = 0.0
                        since_rebase = 0
                if need_pass:
                    sync_clusters()
                    merges_before = self._merges
                    self._merge_close_clusters()
                    merged_now = self._merges != merges_before
                    self._merge_residual = merged_now
                    if merged_now:
                        break
                if removed:
                    break
            else:
                # Chunk drained with no set change: publish the mirrors.
                sync_clusters()
                i = j
                continue
            # The inner loop broke on a cluster-set change (seed, merge,
            # decay removal) or a stale screen: screen and mirrors are
            # rebuilt at the top.  Decay/merge paths synced before mutating;
            # seed and stale-screen paths synced explicitly; nothing was
            # mirrored after the sync.
            i = j
        self._events_processed += processed

    def process_frame(
        self, events: np.ndarray, t_us: int
    ) -> List[TrackObservation]:
        """Feed one frame's events, then report the visible clusters.

        Unlike the frame-based trackers the argument is the frame's raw
        (NN-filtered) event packet rather than region proposals; the shared
        signature lets the evaluation harness drive all trackers the same way.
        """
        self.process_events(events)
        # Clusters that received no events this frame still age out.
        self._decay_clusters(t_us)
        self._frames_processed += 1
        observations: List[TrackObservation] = []
        for cluster in self._clusters.values():
            if not cluster.visible:
                continue
            velocity_px_per_s = cluster.velocity()
            observations.append(
                TrackObservation(
                    track_id=cluster.cluster_id,
                    box=cluster.box(),
                    t_us=t_us,
                    velocity=velocity_px_per_s,
                    state=TrackState.CONFIRMED,
                )
            )
        self._total_visible_clusters += len(observations)
        return observations

    # -- internals -----------------------------------------------------------------------------------

    def _nearest_cluster(self, x: float, y: float) -> Optional[EbmsCluster]:
        """Closest cluster whose capture radius contains the event, if any."""
        best_cluster: Optional[EbmsCluster] = None
        best_distance = self.config.cluster_radius_px
        for cluster in self._clusters.values():
            distance = max(abs(x - cluster.cx), abs(y - cluster.cy))
            if distance <= best_distance:
                best_cluster = cluster
                best_distance = distance
        return best_cluster

    def _seed_cluster(self, x: float, y: float, t: int) -> None:
        """Create a new potential cluster at the event position."""
        cluster = EbmsCluster(
            cluster_id=self._next_cluster_id,
            cx=x,
            cy=y,
            last_update_us=t,
            event_count=1,
        )
        cluster.position_history.append((t, x, y))
        self._clusters[cluster.cluster_id] = cluster
        self._next_cluster_id += 1

    def _decay_clusters(self, now_us: int) -> None:
        """Remove clusters that have not been updated recently."""
        stale = [
            cluster_id
            for cluster_id, cluster in self._clusters.items()
            if now_us - cluster.last_update_us > self.config.decay_time_us
        ]
        for cluster_id in stale:
            del self._clusters[cluster_id]

    def _merge_close_clusters(self) -> None:
        """Merge pairs of clusters whose centres are too close."""
        cluster_ids = list(self._clusters.keys())
        for i in range(len(cluster_ids)):
            for j in range(i + 1, len(cluster_ids)):
                id_i, id_j = cluster_ids[i], cluster_ids[j]
                if id_i not in self._clusters or id_j not in self._clusters:
                    continue
                cluster_i = self._clusters[id_i]
                cluster_j = self._clusters[id_j]
                distance = max(
                    abs(cluster_i.cx - cluster_j.cx), abs(cluster_i.cy - cluster_j.cy)
                )
                if distance >= self.config.merge_distance_px:
                    continue
                # Keep the cluster with more support; absorb the other.
                keep, drop = (
                    (cluster_i, cluster_j)
                    if cluster_i.event_count >= cluster_j.event_count
                    else (cluster_j, cluster_i)
                )
                total = keep.event_count + drop.event_count
                keep.cx = (keep.cx * keep.event_count + drop.cx * drop.event_count) / total
                keep.cy = (keep.cy * keep.event_count + drop.cy * drop.event_count) / total
                keep.event_count = total
                keep.spread_x = max(keep.spread_x, drop.spread_x)
                keep.spread_y = max(keep.spread_y, drop.spread_y)
                keep.visible = keep.visible or drop.visible
                keep.last_update_us = max(keep.last_update_us, drop.last_update_us)
                del self._clusters[drop.cluster_id]
                self._merges += 1

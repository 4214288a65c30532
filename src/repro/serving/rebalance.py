"""Load-aware session rebalancing between shards.

Sensors are pinned to shards by a stable hash, which balances *counts* but
not *load*: event rates differ per scene, sensors come and go, and a hash
can simply collide several hot sensors onto one shard.  The policy here is
deliberately small and observable:

* each shard's **load** is its queue depth (batches waiting) plus a smoothed
  busy fraction — the same numbers exported as ``repro_shard_*`` gauges, so
  an operator can see exactly what the rebalancer sees;
* when the most loaded shard exceeds the least loaded by more than
  ``imbalance_ratio`` (and by at least ``min_queue_delta`` batches of queue
  depth), the plan moves **one** sensor from the hottest shard to the
  coolest — the smallest step that reduces imbalance, re-evaluated on the
  next trigger instead of speculatively moving many sessions at once;
* hubs execute a move as drain → :meth:`~repro.serving.session.SensorSession.export_migration`
  → restore on the target shard, so a rebalance is invisible in the output
  stream (asserted by the migration parity tests).

The planner is pure (shard stats in, moves out), so tests can exercise
policy corner cases without spinning up workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence


@dataclass(frozen=True)
class ShardStats:
    """One shard's load sample (what the ``repro_shard_*`` gauges export)."""

    shard: int
    num_sensors: int
    queue_depth: int
    busy_fraction: float
    worker_up: bool = True

    @property
    def load(self) -> float:
        """Scalar load used for ranking shards.

        Queue depth is the leading signal (it is what actually delays
        batches); the busy fraction breaks ties between equally backlogged
        shards and keeps the ranking meaningful for block-policy hubs whose
        queues hover near the capacity.
        """
        return float(self.queue_depth) + self.busy_fraction


@dataclass(frozen=True)
class RebalancePolicy:
    """When and how aggressively sessions move between shards.

    Parameters
    ----------
    imbalance_ratio:
        Trigger threshold: rebalance when ``max_load > imbalance_ratio *
        min_load`` (loads offset by 1 so an idle shard does not make every
        ratio infinite).
    min_queue_delta:
        Minimum queue-depth gap between hottest and coolest shard before a
        move is worth its migration cost; suppresses churn when all queues
        are short.
    max_moves:
        Upper bound on sensors moved per plan (1 = the conservative
        one-step-then-resample default).
    """

    imbalance_ratio: float = 2.0
    min_queue_delta: int = 8
    max_moves: int = 1

    def __post_init__(self) -> None:
        if self.imbalance_ratio < 1.0:
            raise ValueError(
                f"imbalance_ratio must be >= 1.0, got {self.imbalance_ratio}"
            )
        if self.min_queue_delta < 0:
            raise ValueError(
                f"min_queue_delta must be non-negative, got {self.min_queue_delta}"
            )
        if self.max_moves < 1:
            raise ValueError(f"max_moves must be >= 1, got {self.max_moves}")


@dataclass(frozen=True)
class Move:
    """One planned migration: ``sensor_id`` from ``source`` to ``target``."""

    sensor_id: str
    source: int
    target: int


def plan_rebalance(
    stats: Sequence[ShardStats],
    sensor_shards: Dict[str, int],
    policy: Optional[RebalancePolicy] = None,
) -> List[Move]:
    """Decide which sensors (if any) should move, given a load sample.

    Parameters
    ----------
    stats:
        One :class:`ShardStats` per shard (order irrelevant).
    sensor_shards:
        Current sensor → shard assignment; moved sensors are picked from the
        hottest shard in deterministic (sorted id) order.
    policy:
        Trigger thresholds; defaults to :class:`RebalancePolicy`.

    Returns
    -------
    list of :class:`Move`
        Empty when the fleet is balanced enough (the common case).
    """
    policy = policy or RebalancePolicy()
    if len(stats) < 2:
        return []
    ranked = sorted(stats, key=lambda s: (s.load, s.shard))
    coolest, hottest = ranked[0], ranked[-1]
    if hottest.num_sensors <= 1:
        # Never strip a shard's only sensor: the move cannot reduce its
        # per-sensor load, it only relocates the hotspot.
        return []
    if hottest.queue_depth - coolest.queue_depth < policy.min_queue_delta:
        return []
    if (hottest.load + 1.0) <= policy.imbalance_ratio * (coolest.load + 1.0):
        return []
    candidates = sorted(
        sensor_id
        for sensor_id, shard in sensor_shards.items()
        if shard == hottest.shard
    )
    moves = [
        Move(sensor_id=sensor_id, source=hottest.shard, target=coolest.shard)
        for sensor_id in candidates[: policy.max_moves]
    ]
    # Moving more sensors than the hot shard can spare would just invert
    # the imbalance; cap at half its population.
    spare = max(1, hottest.num_sensors // 2)
    return moves[:spare]

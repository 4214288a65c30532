"""The :class:`ProcessTrackingHub`: shard workers as forked processes.

This is :class:`~repro.serving.hub.TrackingHub` with one difference: each
shard's worker loop (:mod:`repro.serving.shard`) runs in a forked worker
*process* instead of a thread, so per-batch pipeline work leaves the
parent's GIL and CPU-bound fleets scale across cores.  Batches reach a
worker as raw ``EVENT_DTYPE`` bytes in a shared-memory ring
(:class:`~repro.serving.transport.ShmRing`), and frames, replies and worker
telemetry come back over the result pipe, so routing, migration,
rebalancing, scrapes and worker-death handling are all the base class's
code.

Requires the ``fork`` start method (the workers inherit the ring mappings
and the parent's imports); construction fails cleanly where only ``spawn``
exists.
"""

from __future__ import annotations

import multiprocessing
from typing import Optional

from repro.serving.hub import HubConfig, TrackingHub
from repro.serving.shard import shard_worker_main


class ProcessTrackingHub(TrackingHub):
    """Shards live sensors across worker *processes* over shared memory.

    Same constructor, methods and telemetry shape as the thread
    :class:`~repro.serving.hub.TrackingHub`; ``on_frames`` callbacks run
    on the parent's per-shard pump thread for both.
    """

    def __init__(self, config: Optional[HubConfig] = None) -> None:
        try:
            self._ctx = multiprocessing.get_context("fork")
        except ValueError as error:  # pragma: no cover - platform dependent
            raise RuntimeError(
                "ProcessTrackingHub requires the 'fork' start method"
            ) from error
        super().__init__(config)

    def _start_worker(self, shard: int, ring, cmd_rx, res_tx):
        """Fork one shard's worker process; returns its handle."""
        proc = self._ctx.Process(
            target=shard_worker_main,
            args=(shard, ring, cmd_rx, res_tx, self.config),
            name=f"tracking-shard-{shard}",
            daemon=True,
        )
        proc.start()
        # The worker inherited its ends over fork; close them here so a
        # worker exit (clean or killed) is observable as EOF on the result
        # pipe.
        cmd_rx.close()
        res_tx.close()
        return proc

    def _join_worker(self, proc) -> None:
        """Reap a worker, terminating one that does not stop in time."""
        proc.join(timeout=10.0)
        if proc.is_alive():  # pragma: no cover - defensive
            proc.terminate()
            proc.join(timeout=5.0)

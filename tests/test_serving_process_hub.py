"""The hub contract on forked worker processes, and scenarios on both vehicles.

``TestProcessHubParity`` and ``TestRegistration`` bind the contract mixins
of ``test_serving_hub.py`` to :class:`ProcessTrackingHub`.  The remaining
classes are parametrized over both vehicles: deterministic overload
(``"drop"`` and ``try_submit`` refusals against a paused shard worker),
live migration, the per-shard gauges, a worker dying mid-stream (a
killed process, or a thread whose loop raised), and a host without usable
shared memory.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from multiprocessing import shared_memory

import pytest

from repro.obs import parse_prometheus_text, sample_value
from repro.serving.hub import HubConfig, ShardDown, TrackingHub
from repro.serving.process_hub import ProcessTrackingHub
from test_serving_hub import (
    CloseContract,
    ParityContract,
    RegistrationContract,
    SheddingContract,
    _assert_replay_parity,
    _batches,
    _moving_block_stream,
)

HUBS = {"thread": TrackingHub, "process": ProcessTrackingHub}


class TestProcessHubParity(ParityContract, SheddingContract):
    hub_cls = ProcessTrackingHub


class TestRegistration(RegistrationContract, CloseContract):
    hub_cls = ProcessTrackingHub


class TestDropBackpressureUnderOverload:
    """Overload made deterministic: the shard worker is paused while the
    ring fills, so the first refusal comes from a full ring, not a race
    with the clock.  Shed batches must be counted exactly, and the close
    after resuming must drain without deadlock.
    """

    @staticmethod
    def _fill_paused(hub, submit, batches):
        """Submit to a paused shard until the first refusal; resume."""
        hub.pause_shard(0)
        accepted = 0
        for batch in batches:
            if not submit("cam", batch):
                break
            accepted += 1
        else:
            pytest.fail("the paused ring never refused a batch")
        hub.resume_shard(0)
        return accepted, batches[: accepted + 1]

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_drop_counts_match_telemetry_and_close_does_not_deadlock(self, kind):
        batches = list(_batches(_moving_block_stream(seed=3, num_frames=30), 8_000))
        config = HubConfig(num_workers=1, backpressure="drop", ring_capacity_bytes=4096)
        with HUBS[kind](config) as hub:
            hub.register("cam")
            accepted, offered = self._fill_paused(hub, hub.submit, batches)
            result = hub.close_sensor("cam", timeout=60)
            telemetry = hub.telemetry_dict()["sensors"]["cam"]
        assert accepted > 0
        assert telemetry["dropped_batches"] == 1
        assert telemetry["dropped_events"] == len(offered[-1])
        assert telemetry["batches_received"] == accepted
        assert result.num_events == telemetry["events_received"]
        assert result.num_events == sum(len(batch) for batch in offered[:-1])

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_try_submit_refusals_are_not_counted_as_drops(self, kind):
        batches = list(_batches(_moving_block_stream(seed=5, num_frames=30), 8_000))
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with HUBS[kind](config) as hub:
            hub.register("cam")
            accepted, _ = self._fill_paused(hub, hub.try_submit, batches)
            result = hub.close_sensor("cam", timeout=60)
            telemetry = hub.telemetry_dict()["sensors"]["cam"]
        assert telemetry["dropped_batches"] == 0
        assert telemetry["batches_received"] == accepted
        assert result.num_events == telemetry["events_received"]


class TestMigration:
    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_migration_mid_stream_preserves_output_exactly(self, kind):
        stream = _moving_block_stream(seed=9)
        batches = list(_batches(stream))
        with HUBS[kind](HubConfig(num_workers=2)) as hub:
            hub.register("cam", shard=0)
            half = len(batches) // 2
            for batch in batches[:half]:
                assert hub.submit("cam", batch)
            assert hub.migrate_sensor("cam", 1) is True
            assert hub.sensor_shards()["cam"] == 1
            for batch in batches[half:]:
                assert hub.submit("cam", batch)
            result = hub.close_sensor("cam", timeout=60)
            assert hub.migrations_performed == 1
        _assert_replay_parity(result, stream)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_migration_racing_submits_preserves_output_exactly(self, kind):
        # Regression: the route flip and the two marker enqueues must be
        # atomic with respect to concurrent submits (the hub holds both
        # ring locks across them, and submits re-check the route under
        # their ring's lock).  Without the interlock, a racing batch can
        # land on the source ring *behind* the migrate-out marker —
        # ingested into the abandoned session and lost from the migrated
        # stream — or on the target ring ahead of the barrier.
        stream = _moving_block_stream(seed=13, num_frames=40)
        batches = list(_batches(stream, batch_us=8_000))
        with HUBS[kind](HubConfig(num_workers=2)) as hub:
            hub.register("cam", shard=0)
            errors = []

            def produce():
                try:
                    for batch in batches:
                        assert hub.submit("cam", batch)
                        time.sleep(0.001)  # leave room for migrations to land
                except BaseException as error:  # pragma: no cover
                    errors.append(error)

            producer = threading.Thread(target=produce)
            producer.start()
            bounces, target = 0, 1
            while producer.is_alive():
                if hub.migrate_sensor("cam", target, timeout=60.0):
                    bounces += 1
                target = 1 - target
            producer.join()
            result = hub.close_sensor("cam", timeout=60)
        assert not errors
        assert bounces >= 1, "producer finished before any migration landed"
        _assert_replay_parity(result, stream)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_migrate_to_same_shard_is_a_no_op(self, kind):
        with HUBS[kind](HubConfig(num_workers=2)) as hub:
            hub.register("cam", shard=1)
            assert hub.migrate_sensor("cam", 1) is False
            assert hub.migrations_performed == 0

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_refused_migration_leaves_the_sensor_on_its_shard(self, kind):
        # The source worker refuses to export a closed session, so the
        # session stays on shard 0, and so must the sensor's route: a
        # repeated close then returns the same summary.
        stream = _moving_block_stream(seed=10)
        with HUBS[kind](HubConfig(num_workers=2)) as hub:
            hub.register("cam", shard=0)
            for batch in _batches(stream):
                assert hub.submit("cam", batch)
            first = hub.close_sensor("cam", timeout=60)
            with pytest.raises(RuntimeError, match="sensor 'cam' is closed"):
                hub.migrate_sensor("cam", 1)
            assert hub.sensor_shards() == {"cam": 0}
            assert hub.migrations_performed == 0
            second = hub.close_sensor("cam", timeout=60)
        assert second == first
        _assert_replay_parity(first, stream)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_migrate_unknown_sensor_raises(self, kind):
        with HUBS[kind](HubConfig(num_workers=2)) as hub:
            with pytest.raises(KeyError):
                hub.migrate_sensor("ghost", 1)
            with pytest.raises(ValueError):
                hub.register("cam", shard=7)


class TestRingWrap:
    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_batch_over_half_the_ring_is_taken_once_the_ring_drains(self, kind):
        # On a 4 KiB ring a 150-event batch (1,967 bytes with its header)
        # leaves the tail mid-ring, and a 240-event batch (3,120 bytes) fits
        # only after a wrap: it must be taken once the worker has drained
        # the first, not refused for good.
        events = _moving_block_stream(seed=11, num_frames=11).events[:390]
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with HUBS[kind](config) as hub:
            hub.register("cam")
            assert hub.try_submit("cam", events[:150])
            deadline = time.monotonic() + 5.0
            while not hub.try_submit("cam", events[150:]):
                assert time.monotonic() < deadline, "the ring never took the second batch"
                time.sleep(0.005)
            result = hub.close_sensor("cam", timeout=60)
        assert result.num_events == 390


class TestShardGauges:
    """Per-shard load gauges and worker counters in one exposition."""

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_per_shard_gauges_exposed_via_prometheus(self, kind):
        with HUBS[kind](HubConfig(num_workers=2)) as hub:
            hub.register("cam-a", shard=0)
            hub.register("cam-b", shard=0)
            hub.register("cam-c", shard=1)
            for batch in _batches(_moving_block_stream(seed=2)):
                hub.submit("cam-a", batch)
            hub.close_sensor("cam-a", timeout=60)
            samples = parse_prometheus_text(hub.metrics_text())

        assert sample_value(samples, "repro_shard_sensors", shard="0") == 2.0
        assert sample_value(samples, "repro_shard_sensors", shard="1") == 1.0
        for shard in ("0", "1"):
            depth = sample_value(samples, "repro_shard_queue_depth", shard=shard)
            busy = sample_value(samples, "repro_shard_busy_fraction", shard=shard)
            assert depth is not None and depth >= 0.0
            assert busy is not None and 0.0 <= busy <= 1.0
            assert sample_value(samples, "repro_shard_worker_up", shard=shard) == 1.0
        # The per-sensor queue-depth gauge is stride-refreshed but the
        # first accepted batch always publishes one.
        assert (
            sample_value(samples, "repro_sensor_queue_depth", sensor="cam-a")
            is not None
        )

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_hub_merges_worker_counters(self, kind):
        stream = _moving_block_stream(seed=4)
        with HUBS[kind](HubConfig(num_workers=2)) as hub:
            hub.register("cam")
            for batch in _batches(stream):
                hub.submit("cam", batch)
            hub.close_sensor("cam", timeout=60)
            samples = parse_prometheus_text(hub.metrics_text())
        # Batches are counted hub-side, frames worker-side; both must
        # appear in one merged exposition.
        received = sample_value(
            samples, "repro_sensor_events_received_total", sensor="cam"
        )
        frames = sample_value(
            samples, "repro_sensor_frames_emitted_total", sensor="cam"
        )
        assert received == float(len(stream))
        assert frames and frames > 0.0


class TestWorkerDeath:
    @staticmethod
    def _kill_worker(hub, shard: int) -> None:
        if isinstance(hub, ProcessTrackingHub):
            os.kill(hub._workers[shard].pid, signal.SIGKILL)
        else:
            # A request without its id makes the worker loop raise.  The
            # worker reads commands only between ring drains, so wait for
            # it to be gone, as a SIGKILLed process is, before going on:
            # a close put meanwhile could still be served.
            hub._cmd_tx[shard].send(("metrics",))
            hub._workers[shard].join(timeout=10.0)

    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_killed_worker_fails_fast_and_spares_the_other_shard(self, kind):
        doomed = list(_batches(_moving_block_stream(seed=19)))
        live_stream = _moving_block_stream(seed=20)
        live = list(_batches(live_stream))
        with HUBS[kind](HubConfig(num_workers=2)) as hub:
            hub.register("doomed", shard=0)
            hub.register("live", shard=1)
            for batch in doomed[:3]:
                hub.submit("doomed", batch)
            for batch in live[:3]:
                hub.submit("live", batch)
            self._kill_worker(hub, 0)

            started = time.monotonic()
            with pytest.raises(ShardDown):
                hub.close_sensor("doomed", timeout=60)
            assert time.monotonic() - started < 5.0
            with pytest.raises(ShardDown):
                hub.submit("doomed", doomed[3])

            for batch in live[3:]:
                assert hub.submit("live", batch)
            result = hub.close_sensor("live", timeout=60)
            samples = parse_prometheus_text(hub.metrics_text())
        _assert_replay_parity(result, live_stream)
        assert sample_value(samples, "repro_shard_worker_up", shard="0") == 0.0
        assert sample_value(samples, "repro_shard_worker_up", shard="1") == 1.0

    # A thread cannot die holding the ring's cursor lock, so these two run on
    # the process vehicle only.

    @staticmethod
    def _park(hub, batch):
        """Start submitting ``batch`` for "cam" on a helper thread; return,
        once it holds the route's ring lock (so it is past routing), the
        thread and a dict that receives the submit's result or ``ShardDown``."""
        outcome = {}

        def submit():
            try:
                outcome["returned"] = hub.submit("cam", batch)
            except ShardDown as error:
                outcome["raised"] = error

        helper = threading.Thread(target=submit, daemon=True)
        helper.start()
        deadline = time.monotonic() + 5.0
        while not hub._ring_locks[0].locked():
            assert helper.is_alive() and time.monotonic() < deadline, outcome
            time.sleep(0.001)
        return helper, outcome

    def test_worker_killed_inside_the_ring_lock_does_not_wedge_a_submit(self):
        batch = next(_batches(_moving_block_stream(seed=21)))
        with ProcessTrackingHub(HubConfig(num_workers=1)) as hub:
            hub.register("cam")
            # Held here, the lock is as a worker killed inside it leaves it:
            # taken, with nobody left to release it.
            with hub._rings[0]._lock:
                helper, outcome = self._park(hub, batch)
                os.kill(hub._workers[0].pid, signal.SIGKILL)
                helper.join(timeout=5.0)
                stuck = helper.is_alive()
            helper.join(timeout=5.0)
        assert not stuck, "the submit still waits on the dead worker's ring lock"
        assert isinstance(outcome.get("raised"), ShardDown), outcome

    def test_block_submit_on_a_dead_shards_full_ring_raises(self):
        batches = list(_batches(_moving_block_stream(seed=3, num_frames=30), 8_000))
        config = HubConfig(num_workers=1, ring_capacity_bytes=4096)
        with ProcessTrackingHub(config) as hub:
            hub.register("cam")
            hub.pause_shard(0)  # a paused worker never takes the ring lock
            refused = next((b for b in batches if not hub.try_submit("cam", b)), None)
            assert refused is not None, "the paused ring never filled"
            helper, outcome = self._park(hub, refused)
            os.kill(hub._workers[0].pid, signal.SIGKILL)
            helper.join(timeout=5.0)
            assert not helper.is_alive(), "the submit still waits on the dead shard's ring"
        assert isinstance(outcome.get("raised"), ShardDown), outcome


class TestWithoutSharedMemory:
    @pytest.mark.parametrize("kind", sorted(HUBS))
    def test_start_fails_cleanly_and_can_be_retried(self, kind, monkeypatch):
        real = shared_memory.SharedMemory
        made = []

        def second_segment_fails(*args, **kwargs):
            if made:
                raise FileNotFoundError("no /dev/shm")
            made.append(real(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(shared_memory, "SharedMemory", second_segment_fails)
        threads_before = set(threading.enumerate())
        children_before = set(multiprocessing.active_children())
        hub = HUBS[kind](HubConfig(num_workers=2))
        with pytest.raises(RuntimeError, match="/dev/shm"):
            hub.start()
        assert not hub._started
        new_threads = set(threading.enumerate()) - threads_before
        assert not [t.name for t in new_threads if t.name.startswith("tracking-")]
        assert not set(multiprocessing.active_children()) - children_before
        with pytest.raises(FileNotFoundError):
            real(name=made[0].name)  # the first ring's segment was unlinked

        monkeypatch.undo()
        stream = _moving_block_stream(seed=8)
        with hub:
            hub.register("cam")
            for batch in _batches(stream):
                assert hub.submit("cam", batch)
            result = hub.close_sensor("cam", timeout=60)
        _assert_replay_parity(result, stream)

"""Tests for the per-CPU shares of the EBBI front end (``repro.utils.shares``)."""

from __future__ import annotations

import multiprocessing
import os
import sys
import threading
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.core.ebbi as ebbi
import repro.core.histogram_rpn as histogram_rpn
from repro.core.config import EbbiotConfig
from repro.core.ebbi import EbbiBuilder
from repro.core.pipeline import CHUNK_FRAMES, EbbiotPipeline
from repro.events.stream import EventStream
from repro.events.types import make_packet
from repro.trackers.registry import OverlapBackend
from repro.utils import shares


def _patch_cpus(monkeypatch, count):
    monkeypatch.setattr(shares, "usable_cpus", lambda: count)


def _share(share, start, stop):
    return share, start, stop, threading.current_thread().name


def _helpers_alive():
    return [t for t in threading.enumerate() if t.name.startswith("front-end-share-")]


def _tally():
    return shares._TALLY.callers, shares._TALLY.helpers


def _stream(num_frames, seed):
    """Two boxes driving across the frame in opposite directions, over sparse noise."""
    rng = np.random.default_rng(seed)
    columns = []
    for frame in range(num_frames):
        t0 = frame * 66_000
        for lane, (x0, speed) in enumerate(((5, 2), (200, -2))):
            left = (x0 + speed * frame) % 200
            top = 40 + 80 * lane
            columns.append((rng.integers(left, left + 30, 300), rng.integers(top, top + 20, 300),
                            rng.integers(t0, t0 + 66_000, 300)))
        columns.append((rng.integers(0, 240, 40), rng.integers(0, 180, 40),
                        rng.integers(t0, t0 + 66_000, 40)))
    x, y, t = (np.concatenate(column) for column in zip(*columns))
    return EventStream(make_packet(x, y, t, np.ones(len(t), dtype=int)), 240, 180)


def _tracks(stream):
    result = EbbiotPipeline().process_stream(stream, collect_frames=False)
    return [
        (o.t_us, o.track_id, o.box.x, o.box.y, o.box.width, o.box.height)
        for o in result.track_history.observations
    ]


def _replay_into(stream, connection):
    threads = set()
    accumulate = ebbi.events_to_binary_frame_batch

    def recorded(*args, **kwargs):
        threads.add(threading.current_thread().name)
        return accumulate(*args, **kwargs)

    ebbi.events_to_binary_frame_batch = recorded
    connection.send((_tracks(stream), len(threads)))
    connection.close()


class _HeldTracker(OverlapBackend):
    """The overlap backend, held at its first step until released."""

    def __init__(self, stepping, release):
        super().__init__(EbbiotConfig())
        self.stepping = stepping
        self.release = release

    def step(self, frame):
        self.stepping.set()
        self.release.wait(timeout=60)
        return super().step(frame)


class TestRunShares:
    def test_usable_cpus_are_the_affinity_mask(self):
        assert shares.usable_cpus() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("cpus", [1, 2, 3, 64])
    @pytest.mark.parametrize("total, block", [(0, 8), (1, 8), (8, 8), (9, 8), (43, 8), (5, 1)])
    def test_contiguous_shares_of_whole_blocks_in_order(self, monkeypatch, cpus, total, block):
        _patch_cpus(monkeypatch, cpus)
        results = shares.run_shares(_share, total, block)
        blocks = -(-total // block)
        count = max(1, min(blocks, cpus))
        assert [share for share, _, _, _ in results] == list(range(count))
        bounds = [start for _, start, _, _ in results] + [results[-1][2]]
        assert bounds[0] == 0 and bounds[-1] == total
        assert all(start % block == 0 for start in bounds[:-1])
        sizes = {-(-(stop - start) // block) for start, stop in zip(bounds, bounds[1:])}
        assert sizes <= {blocks // count, -(-blocks // count)}
        # The caller runs the first share, a helper thread each other one.
        names = [name for _, _, _, name in results]
        assert names[0] == threading.current_thread().name
        assert all(name.startswith("front-end-share-") for name in names[1:])
        assert not _helpers_alive()
        assert _tally() == (0, 0)

    def test_every_share_runs_to_its_end_before_the_first_error_is_raised(self, monkeypatch):
        _patch_cpus(monkeypatch, 3)
        done = []

        def work(share, start, stop):
            if share == 1:
                time.sleep(0.1)  # still running when shares 0 and 2 fail
            done.append(share)
            if share != 1:
                raise ValueError(f"share {share} failed")

        with pytest.raises(ValueError, match="share 0 failed"):
            shares.run_shares(work, 3)
        assert sorted(done) == [0, 1, 2]
        assert not _helpers_alive()
        assert _tally() == (0, 0)

    def test_no_spare_cpu_runs_inline_and_a_caller_waits_for_helpers(self, monkeypatch):
        _patch_cpus(monkeypatch, 3)
        release = threading.Event()
        holding = threading.Semaphore(0)

        def hold(share, start, stop):
            holding.release()
            release.wait(timeout=60)

        holder = threading.Thread(target=shares.run_shares, args=(hold, 2))
        other = []
        caller = threading.Thread(target=lambda: other.append(shares.run_shares(_share, 4)))
        holder.start()
        try:
            assert holding.acquire(timeout=30) and holding.acquire(timeout=30)
            assert _tally() == (1, 1)
            # The third CPU is the caller's own, so the call runs inline.
            here = threading.current_thread().name
            assert shares.run_shares(_share, 4) == [(0, 0, 4, here)]
            # With two CPUs a caller and its helper take both: a new caller
            # waits for the helper to end instead of sharing a CPU with it.
            _patch_cpus(monkeypatch, 2)
            caller.start()
            caller.join(timeout=0.2)
            assert caller.is_alive() and not other
        finally:
            release.set()
            holder.join(timeout=30)
        caller.join(timeout=30)
        assert not holder.is_alive() and not caller.is_alive()
        assert [share for share, _, _, _ in other[0]] == [0, 1]
        assert _tally() == (0, 0)

    def test_a_counted_thread_counts_once(self, monkeypatch):
        _patch_cpus(monkeypatch, 2)
        with shares.counted_thread():
            with shares.counted_thread():
                assert _tally() == (1, 0)
                assert len(shares.run_shares(_share, 4)) == 2
        assert _tally() == (0, 0)
        # Another counted thread, say a second replay, leaves no CPU spare:
        # with no helper running, a caller runs inline at once.
        release = threading.Event()
        counted = threading.Event()

        def replay():
            with shares.counted_thread():
                counted.set()
                release.wait(timeout=60)

        other = threading.Thread(target=replay)
        other.start()
        try:
            assert counted.wait(timeout=30)
            with shares.counted_thread():
                assert len(shares.run_shares(_share, 4)) == 1
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert _tally() == (0, 0)

    def test_a_build_takes_one_share_per_usable_cpu(self, monkeypatch):
        """With the CPU count unpatched: inline on one CPU (``taskset -c 0``), else shared."""
        threads = set()
        accumulate = ebbi.events_to_binary_frame_batch

        def recorded(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return accumulate(*args, **kwargs)

        rng = np.random.default_rng(0)
        n = 43 * 500  # 43 windows of 240x180: 6 blocks
        packet = make_packet(rng.integers(0, 240, n), rng.integers(0, 180, n),
                             np.arange(n), np.ones(n, dtype=int))
        starts = np.arange(43) * 66_000
        monkeypatch.setattr(ebbi, "events_to_binary_frame_batch", recorded)
        EbbiBuilder(240, 180).build_batch(packet, starts, starts + 66_000, np.arange(44) * 500)
        assert len(threads) == min(len(os.sched_getaffinity(0)), 6)


class TestCpuBudget:
    def test_concurrent_replays_never_run_more_front_end_threads_than_cpus(self, monkeypatch):
        """Three replaying threads, three CPUs: at most three threads in the front end at once."""
        streams = [_stream(20 + 9 * k, seed=k) for k in range(6)]  # every chunk is 3+ blocks
        _patch_cpus(monkeypatch, 1)
        expected = [_tracks(stream) for stream in streams]
        assert all(expected)
        _patch_cpus(monkeypatch, 3)
        lock = threading.Lock()
        inside = [0, 0]  # now, most
        helpers = set()

        def counted(function):
            def wrapper(*args, **kwargs):
                with lock:
                    inside[0] += 1
                    inside[1] = max(inside[1], inside[0])
                    helpers.add(threading.current_thread().name.startswith("front-end-share-"))
                try:
                    time.sleep(0.0005)  # widen each call, so overlapping shares show
                    return function(*args, **kwargs)
                finally:
                    with lock:
                        inside[0] -= 1

            return wrapper

        for module, name in ((ebbi, "events_to_binary_frame_batch"),
                             (ebbi, "binary_median_filter_stack"),
                             (histogram_rpn, "stack_histograms")):
            monkeypatch.setattr(module, name, counted(getattr(module, name)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=3) as executor:
                got = list(executor.map(_tracks, streams))
            # Alone, a replay takes a helper on each CPU it leaves free.
            assert _tracks(streams[-1]) == expected[-1]
        finally:
            sys.setswitchinterval(interval)
        assert got == expected
        assert 1 <= inside[1] <= 3 and True in helpers
        assert inside[0] == 0 and _tally() == (0, 0)


    def test_a_replay_counts_between_its_front_end_calls(self, monkeypatch):
        """A replay in its tracker stage leaves no CPU spare for another replay's helpers."""
        _patch_cpus(monkeypatch, 2)
        stepping, release = threading.Event(), threading.Event()
        held = EbbiotPipeline(tracker=_HeldTracker(stepping, release))
        other = threading.Thread(target=held.process_stream, args=(_stream(20, seed=1),))
        threads = set()
        accumulate = ebbi.events_to_binary_frame_batch

        def recorded(*args, **kwargs):
            threads.add(threading.current_thread().name)
            return accumulate(*args, **kwargs)

        monkeypatch.setattr(ebbi, "events_to_binary_frame_batch", recorded)
        other.start()
        try:
            assert stepping.wait(timeout=30)
            assert _tally() == (1, 0)
            threads.clear()
            _tracks(_stream(30, seed=2))
            assert threads == {threading.current_thread().name}
        finally:
            release.set()
            other.join(timeout=30)
        assert not other.is_alive()
        assert _tally() == (0, 0)


class TestFork:
    def test_forked_child_replays_while_the_parent_holds_every_cpu(self, monkeypatch):
        """A child forked after builds with helpers, and during one, replays as the parent."""
        _patch_cpus(monkeypatch, 2)
        stream = _stream(CHUNK_FRAMES + 40, seed=7)  # two chunks, each of several blocks
        expected = _tracks(stream)
        assert expected
        release = threading.Event()
        holding = threading.Semaphore(0)

        def hold(share, start, stop):
            holding.release()
            release.wait(timeout=120)

        holder = threading.Thread(target=shares.run_shares, args=(hold, 2))
        holder.start()
        context = multiprocessing.get_context("fork")
        receiver, sender = context.Pipe(duplex=False)
        child = None
        try:
            assert holding.acquire(timeout=30) and holding.acquire(timeout=30)
            with warnings.catch_warnings():
                # Python 3.12 warns that forking a process with threads may deadlock.
                warnings.simplefilter("ignore", DeprecationWarning)
                child = context.Process(target=_replay_into, args=(stream, sender))
                child.start()
            sender.close()
            assert receiver.poll(timeout=120), "the forked child did not finish its replay"
            # The child's replay took a helper: its tally did not keep the parent's CPUs.
            assert receiver.recv() == (expected, 2)
            child.join(timeout=30)
            assert child.exitcode == 0
        finally:
            release.set()
            holder.join(timeout=30)
            if child is not None and child.is_alive():
                child.kill()
                child.join(timeout=30)
            receiver.close()
        assert not holder.is_alive()

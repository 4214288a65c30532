"""Contiguous per-CPU shares of one front-end call, run on helper threads.

The EBBI build (:meth:`repro.core.ebbi.EbbiBuilder.build_batch`) and the
RPN's stack call
(:meth:`repro.core.histogram_rpn.HistogramRegionProposer.candidate_spans`)
work on a stack of independent frames, in NumPy kernels that release the
GIL.  :func:`run_shares` splits such a stack into contiguous shares of whole
blocks, one per usable CPU: the caller runs the first share and one helper
thread runs each other one.

The share count is worked out on every call, never configured.  The
process keeps one tally of busy CPUs: every caller, a thread inside
:func:`counted_thread` (each stream replay, see
:meth:`repro.core.pipeline.EbbiotPipeline.process_stream`, and each
:func:`run_shares` call), counts once, and every running helper once.  A
call starts helpers only on CPUs (``os.sched_getaffinity``; a worker
process of the runtime's process executor counts only its part of them)
that the tally leaves free, at most one share per block, and a new caller
waits for running helpers to end rather than pass the CPUs, so no thread
in the tally ever shares a CPU with a helper.  A call that finds no spare
CPU runs inline, and callers that alone outnumber the CPUs all run,
inline.  The thread runner, which already replays one recording per CPU,
thus adds no threads.  A call of one block, or in a process with one
usable CPU, runs inline without touching the tally.

Helpers are started for one call and joined before it returns, so none
outlives it, and a forked child starts with an empty tally and a fresh
lock, or its first replay could wait forever for its parent's helpers: the
runtime's process executor and the process hub fork after replays.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from typing import Callable, Iterator, List, Optional, TypeVar

T = TypeVar("T")


#: Processes that run alike on this process's CPUs, itself included (see
#: :func:`share_cpus_among`).
_PROCESSES = 1


def share_cpus_among(processes: int) -> None:
    """Count only this process's part of its CPUs, as one of ``processes`` alike.

    The runtime's process executor calls it in each of its worker
    processes, which replay recordings side by side on the same CPUs.
    """
    global _PROCESSES
    _PROCESSES = processes


def usable_cpus() -> int:
    """CPUs this process may run on, less those left to its alike processes."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return max(1, cpus // _PROCESSES)


class _CpuTally:
    """The CPUs taken by counted threads (callers) and by running helpers."""

    def __init__(self) -> None:
        self.changed = threading.Condition()
        self.callers = 0
        self.helpers = 0
        self.counted = threading.local()

    def add_caller(self, cpus: int) -> None:
        """Count one more caller; while that would pass ``cpus`` with helpers running, wait."""
        with self.changed:
            while self.helpers and self.callers + self.helpers >= cpus:
                self.changed.wait()
            self.callers += 1

    def add_helpers(self, wanted: int, cpus: int) -> int:
        """Count up to ``wanted`` helpers on CPUs of ``cpus`` left free; how many."""
        with self.changed:
            count = max(0, min(wanted, cpus - self.callers - self.helpers))
            self.helpers += count
        return count

    def remove(self, callers: int, helpers: int) -> None:
        with self.changed:
            self.callers -= callers
            self.helpers -= helpers
            self.changed.notify_all()


_TALLY = _CpuTally()


def _forget_parent_threads() -> None:
    """A forked child runs none of its parent's threads, and holds none of their locks."""
    global _TALLY
    _TALLY = _CpuTally()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_parent_threads)


@contextmanager
def counted_thread() -> Iterator[None]:
    """Count the calling thread as a caller, busy on one CPU, while the body runs.

    Nested uses count the thread once.  A caller is counted even when
    callers alone take every CPU, but while helpers run it first waits
    until it fits, which takes at most the helpers' calls.
    """
    tally = _TALLY
    if getattr(tally.counted, "active", False):
        yield
        return
    tally.add_caller(usable_cpus())
    tally.counted.active = True
    try:
        yield
    finally:
        tally.counted.active = False
        tally.remove(1, 0)


def run_shares(work: Callable[[int, int, int], T], total: int, block: int = 1) -> List[T]:
    """``work(share, start, stop)`` over contiguous shares of ``range(total)``, in order.

    Each share holds whole blocks of ``block`` items (the last may end in a
    partial one), and share ``i`` covers items ``[start, stop)``; ``total ==
    0`` is the one empty share ``work(0, 0, 0)``.  The shares run
    concurrently (see the module docstring for how many), so ``work`` must
    write nothing another share reads or writes.  Every share runs to its
    end even when another fails; the first failed share's exception is then
    raised.

    Returns
    -------
    list
        ``work``'s result for each share, in share order.
    """
    blocks = -(-total // block)
    cpus = usable_cpus() if blocks > 1 else 1
    if cpus < 2:
        return [work(0, 0, total)]
    with counted_thread():
        tally = _TALLY
        count = 1 + tally.add_helpers(blocks - 1, cpus)
        bounds = [min(total, blocks * share // count * block) for share in range(count + 1)]
        results: List[Optional[T]] = [None] * count
        errors: List[Optional[BaseException]] = [None] * count

        def run(share: int) -> None:
            try:
                results[share] = work(share, bounds[share], bounds[share + 1])
            except BaseException as error:  # re-raised below, once every share is done
                errors[share] = error

        started: List[threading.Thread] = []
        try:
            for share in range(1, count):
                helper = threading.Thread(
                    target=run, args=(share,), name=f"front-end-share-{share}", daemon=True
                )
                helper.start()
                started.append(helper)
            run(0)
        finally:
            for helper in started:
                helper.join()
            tally.remove(0, count - 1)
    for error in errors:
        if error is not None:
            raise error
    return results  # type: ignore[return-value]

"""Scalar-vs-vectorized hot-path selection.

The event-path hot loops (NN-filt and EBMS cluster assignment) each keep
two implementations: a *scalar* per-event reference that mirrors how the
algorithm would run on an embedded event processor, and a
chunked/vectorized fast path that is bit-identical to it (asserted by
``tests/test_event_path_parity.py``).  The fast path is the default
everywhere; this module is the one switch that forces the reference path:

* ``REPRO_FORCE_SCALAR=1`` in the environment forces every hot loop back to
  the scalar reference (reference runs, debugging, perf A/B).
* :func:`force_scalar` is the programmatic equivalent, used by
  ``python -m repro.bench`` to time both paths in one process.

The environment variable is read on every call, so toggling it at runtime
(as the benchmark harness does) takes effect immediately; the lookup is a
dictionary access and is invisible next to even a single event's work.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator

#: Environment variable that forces the scalar reference implementations.
SCALAR_ENV = "REPRO_FORCE_SCALAR"

_FALSE_VALUES = ("", "0", "false", "no", "off")


def scalar_forced() -> bool:
    """``True`` when the environment forces the scalar reference paths."""
    return os.environ.get(SCALAR_ENV, "").strip().lower() not in _FALSE_VALUES


@contextmanager
def force_scalar(enabled: bool = True) -> Iterator[None]:
    """Context manager that (un)forces the scalar paths for its body.

    ``force_scalar(False)`` pins the vectorized paths even when the
    surrounding environment sets :data:`SCALAR_ENV` — the benchmark harness
    uses both directions to time the two implementations back to back.
    """
    previous = os.environ.get(SCALAR_ENV)
    os.environ[SCALAR_ENV] = "1" if enabled else "0"
    try:
        yield
    finally:
        if previous is None:
            del os.environ[SCALAR_ENV]
        else:
            os.environ[SCALAR_ENV] = previous

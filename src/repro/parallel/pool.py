"""Worker-pool construction shared by the parallel orchestrators."""

from __future__ import annotations

import multiprocessing
from concurrent.futures import ProcessPoolExecutor

#: Start-method preference: ``fork`` keeps worker start-up cheap and lets
#: workers inherit the parent's interned-expression and memo tables (both
#: are pure caches, so inheriting them is sound and saves re-derivation);
#: platforms without ``fork`` fall back to ``spawn``.  Either way a task
#: ships only an NF name and a config, and a result's expressions re-intern
#: when it is unpickled.
_START_METHODS = ("fork", "spawn")


def make_context() -> multiprocessing.context.BaseContext:
    """The preferred multiprocessing context (``fork`` where available).

    Shared by the pool below and by the synthesis service's per-job worker
    processes (:mod:`repro.parallel.lease`), so every process this package
    spawns starts the same way.
    """
    for method in _START_METHODS:
        if method in multiprocessing.get_all_start_methods():
            return multiprocessing.get_context(method)
    return multiprocessing.get_context()


def make_pool(workers: int) -> ProcessPoolExecutor:
    """A process pool with ``workers`` workers, started the preferred way."""
    return ProcessPoolExecutor(max_workers=workers, mp_context=make_context())

"""Worker leases: heartbeat-supervised job processes.

The synthesis service runs every job attempt in its own worker process
(:func:`make_context` starts them all the same way) so a wedged or runaway
analysis can be revoked without taking the server down.  A
:class:`WorkerLease` is the server-side handle: it tracks the worker's
heartbeats (the worker emits one on its progress queue every
``heartbeat_interval`` seconds from a daemon thread, so a long solver round
cannot be mistaken for a hang) and the job's wall-clock budget, and
:meth:`~WorkerLease.revoke` tears the process down — ``terminate`` first,
``kill`` if it refuses to die.

The lease itself is transport-agnostic: it never reads the queue.  The
owner drains events and calls :meth:`~WorkerLease.touch` on every one (any
traffic proves liveness), then polls :meth:`~WorkerLease.overdue` to decide
whether the worker lost its lease.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field


def make_context() -> multiprocessing.context.BaseContext:
    """``fork`` where the platform has it, else its default (``spawn``).

    ``fork`` keeps worker start-up cheap and lets workers inherit the
    server's imports and NF memo (pure caches, so inheriting them is sound).
    """
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


@dataclass
class WorkerLease:
    """Liveness + budget supervision for one worker process."""

    process: object  # multiprocessing.Process (any context)
    job_timeout: float | None = None
    lease_timeout: float | None = 30.0
    started: float = field(default_factory=time.monotonic)
    last_beat: float = field(default_factory=time.monotonic)

    def touch(self) -> None:
        """Record proof of life (any event from the worker counts)."""
        self.last_beat = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def overdue(self) -> str | None:
        """Why this lease should be revoked, or ``None`` while healthy.

        ``"timeout"`` — the job exceeded its wall-clock budget;
        ``"lease"`` — the worker stopped heartbeating (crashed, wedged, or
        lost) for longer than ``lease_timeout``.
        """
        now = time.monotonic()
        if self.job_timeout is not None and now - self.started > self.job_timeout:
            return "timeout"
        if self.lease_timeout is not None and now - self.last_beat > self.lease_timeout:
            return "lease"
        return None

    def alive(self) -> bool:
        return bool(self.process.is_alive())

    def revoke(self, grace_seconds: float = 2.0) -> None:
        """Tear the worker down: terminate, then kill after ``grace_seconds``."""
        if not self.process.is_alive():
            self.process.join(timeout=0)
            return
        self.process.terminate()
        self.process.join(timeout=grace_seconds)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=grace_seconds)

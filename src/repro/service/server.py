"""Synthesis-as-a-service: the asyncio job server core.

:class:`SynthesisService` turns the one-shot CLI pipeline into a
long-running analysis service:

* **submission** validates the job eagerly (unknown NF names and typoed
  config knobs fail the submit, not the worker), computes its content
  address — the NF half from the per-process
  :func:`~repro.nf.registry.nf_identity` memo, the config half from the
  per-process :func:`config_address` memo — and either short-circuits to
  the store (**cache hit**: the job is born ``done`` with the persisted
  result and perf record, no worker ever starts and no NF is compiled) or
  enqueues it;
* **scheduling** is a fixed set of asyncio consumer tasks
  (``max_concurrent_jobs``) pulling from one queue — submission order in,
  bounded concurrency out;
* **execution** spawns one worker process per attempt, for analysis and
  score jobs alike (:func:`~repro.service.worker.run_job_worker`, running
  :meth:`Castan.analyze <repro.core.castan.Castan.analyze>` or
  :func:`~repro.scoring.jobs.run_score_job`) under a
  :class:`~repro.service.lease.WorkerLease`: heartbeats prove
  liveness, ``job_timeout`` bounds wall clock, cancellation and
  :meth:`~SynthesisService.shutdown` revoke the worker, and a revoked or
  crashed attempt retries up to ``max_attempts`` times before the job
  fails — no pipeline code runs in the server process;
* **progress** streams live: every :class:`~repro.symbex.batch.RoundStats`
  the worker reports, and a score job's ``signatures`` and ``window``
  events, are appended to the job's event history and fanned out to
  subscribers (the HTTP layer's NDJSON stream), so clients follow the
  search round by round instead of waiting for the end-of-run result;
* **completion** happens in the worker, for both kinds: it persists what
  it computed into the content-addressed
  :class:`~repro.service.store.ResultStore` — exactly what makes the *next*
  submission of the same ``(nf, config)`` free — and sends back only JSON
  (a summary and a perf record), so the server never unpickles a result.

The job table is bounded: the newest :data:`MAX_TERMINAL_JOBS` finished
jobs stay resolvable, older ones are dropped with their event history (a
resubmission loop of cache hits must not grow the server), and jobs that
are queued or running are never dropped.

The service core is HTTP-agnostic; :mod:`repro.service.http` exposes it
over REST and :mod:`repro.service.client` is the matching stdlib client.
"""

from __future__ import annotations

import asyncio
import functools
import json
import time

from repro.core.config import CastanConfig, hash_canonical_config
from repro.nf.registry import nf_identity
from repro.service.jobs import (
    CANCELLED,
    DONE,
    FAILED,
    QUEUED,
    RUNNING,
    SCORE,
    JobRecord,
)
from repro.service.lease import WorkerLease, make_context
from repro.service.store import ResultStore, result_address
from repro.service.worker import run_job_worker

#: Sentinel returned by the queue-poll helper when no event arrived.
_NO_EVENT = object()

#: How many finished (done / failed / cancelled) jobs the job table keeps.
#: Past it the oldest-finished job is forgotten — record, event history and
#: subscriber set — and ``GET /jobs/<id>`` answers 404 "expired".  The stored
#: result is untouched: resubmitting is a cache hit under a new job id.
MAX_TERMINAL_JOBS = 1024


@functools.lru_cache(maxsize=256)
def config_address(overrides_json: str) -> tuple[CastanConfig, dict, str]:
    """``(config, canonical dict, content hash)`` of JSON config overrides, memoised.

    Keyed by the overrides' ``json.dumps(..., sort_keys=True)`` and built from
    that JSON, so the answer is a function of the key alone.  Resubmitting an
    unchanged config skips its canonicalisation and its hash; the memo is
    bounded because configs are client-supplied, and overrides that
    :meth:`CastanConfig.from_dict` refuses raise and are not cached.
    ``cache_info()`` is served by ``GET /healthz``.  Callers share the
    returned config and dict and must not mutate them.
    """
    config = CastanConfig.from_dict(json.loads(overrides_json))
    canonical = config.to_canonical_dict()
    return config, canonical, hash_canonical_config(canonical)


class SynthesisService:
    """Job table + scheduler + worker supervision (no transport)."""

    def __init__(
        self,
        store: ResultStore,
        max_concurrent_jobs: int = 2,
        job_timeout: float | None = 600.0,
        lease_timeout: float | None = 30.0,
        heartbeat_interval: float = 1.0,
        max_attempts: int = 2,
        poll_interval: float = 0.05,
    ) -> None:
        self.store = store
        self.max_concurrent_jobs = max(1, max_concurrent_jobs)
        self.job_timeout = job_timeout
        self.lease_timeout = lease_timeout
        self.heartbeat_interval = heartbeat_interval
        self.max_attempts = max(1, max_attempts)
        self.poll_interval = poll_interval
        self.jobs: dict[str, JobRecord] = {}
        self._submitted = 0
        # Ids of terminal jobs, oldest-finished first (a dict as ordered set).
        self._terminal: dict[str, None] = {}
        self._queue: asyncio.Queue[str] = asyncio.Queue()
        self._events: dict[str, list[dict]] = {}
        self._subscribers: dict[str, set[asyncio.Queue]] = {}
        self._leases: dict[str, WorkerLease] = {}
        self._tasks: list[asyncio.Task] = []

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        """Spawn the scheduler tasks (idempotent)."""
        if self._tasks:
            return
        self._tasks = [
            asyncio.create_task(self._scheduler(), name=f"scheduler-{i}")
            for i in range(self.max_concurrent_jobs)
        ]

    async def shutdown(self) -> None:
        """Stop schedulers and revoke every live worker."""
        for task in self._tasks:
            task.cancel()
        for task in self._tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):
                pass
        self._tasks = []
        for lease in list(self._leases.values()):
            lease.revoke()
        self._leases.clear()

    # -- submission / inspection ----------------------------------------------

    def _new_job(
        self, nf_spec: str, config_overrides: dict | None, num_packets: int | None, **fields
    ) -> JobRecord:
        """Validate, address and table one submission.

        Raises ``ValueError`` for unknown config fields or a ``num_packets``
        that is not ``None`` or an int >= 0, and ``KeyError`` (with
        suggestions) for unknown NF specs.  The address equals
        ``store.key_for(get_nf(nf_spec), config, num_packets)`` at the cost
        of two memo lookups once the spec and the config have been seen.
        """
        # bool is an int subclass, but `true` is not a packet count.
        if num_packets is not None and (type(num_packets) is not int or num_packets < 0):
            raise ValueError(f"num_packets must be null or an int >= 0, got {num_packets!r}")
        config, canonical, config_hash = config_address(
            json.dumps(config_overrides or {}, sort_keys=True)
        )
        fingerprint, default_packets = nf_identity(nf_spec)
        resolved = num_packets if num_packets is not None else config.packets_for(default_packets)
        self._submitted += 1
        job = JobRecord(
            job_id=f"job-{self._submitted:04d}",
            nf_spec=nf_spec,
            config=canonical,
            num_packets=num_packets,
            cache_key=result_address(config_hash, fingerprint, resolved),
            config_hash=config_hash,
            nf_fingerprint=fingerprint,
            **fields,
        )
        self.jobs[job.job_id] = job
        self._events[job.job_id] = []
        return job

    def submit(
        self,
        nf_spec: str,
        config_overrides: dict | None = None,
        num_packets: int | None = None,
    ) -> JobRecord:
        """Validate, address, and either cache-hit or enqueue one job.

        Raises ``KeyError`` for unknown NF specs and ``ValueError`` for
        unknown config fields — submission is the validation boundary, so
        a worker never starts on a job that cannot run.
        """
        job = self._new_job(nf_spec, config_overrides, num_packets, max_attempts=self.max_attempts)
        meta = self.store.get_meta(job.cache_key)
        if meta is not None:
            # The content address already has a result: serve it without
            # running anything.  This is the acceptance criterion of the
            # whole service — an unchanged (nf, config) resubmission is free.
            job.cached = True
            job.result_summary = meta["result"]
            job.perf = meta["perf"]
            self._settle(job, DONE)
            return job

        self._publish_status(job)
        self._queue.put_nowait(job.job_id)
        return job

    def submit_score(
        self,
        nf_spec: str,
        config_overrides: dict | None = None,
        traffic: dict | None = None,
        num_packets: int | None = None,
        scorer_options: dict | None = None,
    ) -> JobRecord:
        """Validate and enqueue one score job (distill + stream scoring).

        Unlike :meth:`submit`, a score job never short-circuits at
        submission: scoring the *traffic* is the work.  The expensive
        halves — the analysis result and the distilled signature set — are
        still store-first inside the worker, so repeat scores of the same
        ``(nf, config)`` reuse both and pay only for streaming.  A traffic
        spec that :func:`~repro.scoring.jobs.check_traffic` refuses — a
        synthetic count or seed that is not an int, a capture whose pcap
        global header is unreadable — fails the submit (``ValueError``), not
        the job.  The scorer (and numpy with it) is imported by a server's
        first score job, so analysis-only servers and their workers never
        load it; without numpy that import's ``ImportError`` fails the
        submit as a ``ValueError`` and no worker starts.
        """
        try:
            from repro.scoring.jobs import check_traffic
            from repro.scoring.scorer import ScorerOptions
        except ImportError as exc:
            raise ValueError(str(exc)) from None

        traffic = dict(traffic or {})
        check_traffic(traffic)
        if scorer_options:
            ScorerOptions(**scorer_options)  # typoed knobs fail the submit
        job = self._new_job(
            nf_spec,
            config_overrides,
            num_packets,
            kind=SCORE,
            traffic=traffic,
            scorer_options=dict(scorer_options or {}),
            max_attempts=1,  # scoring is store-backed: a retry re-pays nothing
        )
        self._publish_status(job)
        self._queue.put_nowait(job.job_id)
        return job

    def cancel(self, job_id: str) -> JobRecord:
        """Request cancellation; queued jobs die immediately, running ones
        are revoked by their drain loop at the next poll tick."""
        job = self.lookup(job_id)
        if job.is_terminal:
            return job
        job.cancel_requested = True
        if job.state == QUEUED:
            # The scheduler will skip it when it pops; settle it now so the
            # client sees the terminal state without waiting for the pop.
            self._settle(job, CANCELLED)
        return job

    def lookup(self, job_id: str) -> JobRecord:
        """The tabled job, or ``KeyError`` saying whether it expired or never was."""
        job = self.jobs.get(job_id)
        if job is not None:
            return job
        number = job_id[4:] if job_id.startswith("job-") else ""
        if number.isdigit() and 1 <= int(number) <= self._submitted:
            raise KeyError(
                f"job {job_id!r} expired: the server keeps the newest "
                f"{MAX_TERMINAL_JOBS} finished jobs (resubmit to get its result)"
            )
        raise KeyError(f"unknown job {job_id!r}")

    def job_list(self) -> list[JobRecord]:
        return list(self.jobs.values())

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs.values():
            counts[job.state] = counts.get(job.state, 0) + 1
        return counts

    # -- event pub/sub --------------------------------------------------------

    def subscribe(self, job_id: str) -> asyncio.Queue:
        """An event queue preloaded with the job's full history.

        Every event of the job's life is replayed first, then live events
        follow; after a terminal ``"end"`` event no further events arrive.
        The caller must :meth:`unsubscribe` when done.
        """
        queue: asyncio.Queue = asyncio.Queue()
        for event in self._events[job_id]:
            queue.put_nowait(event)
        self._subscribers.setdefault(job_id, set()).add(queue)
        return queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        queues = self._subscribers.get(job_id)
        if queues is None:
            return
        queues.discard(queue)
        if not queues:
            # A job keeps no empty subscriber set once its last stream closes.
            del self._subscribers[job_id]

    def _publish(self, job_id: str, event: dict) -> None:
        self._events[job_id].append(event)
        for queue in self._subscribers.get(job_id, ()):
            queue.put_nowait(event)

    def _publish_status(self, job: JobRecord) -> None:
        self._publish(
            job.job_id,
            {
                "event": "status",
                "job_id": job.job_id,
                "state": job.state,
                "cached": job.cached,
                "attempts": job.attempts,
                "error": job.error,
            },
        )

    def _settle(self, job: JobRecord, state: str) -> None:
        """Make ``job`` terminal in ``state``, publish its end, then bound the job table."""
        job.state = state
        job.finished_at = time.time()
        self._publish_status(job)
        self._publish(job.job_id, {"event": "end", "job": job.to_dict()})
        self._terminal[job.job_id] = None
        while len(self._terminal) > MAX_TERMINAL_JOBS:
            expired = next(iter(self._terminal))
            del self._terminal[expired]
            del self.jobs[expired]
            del self._events[expired]
            # A subscriber of a finished job already holds its whole history.
            self._subscribers.pop(expired, None)

    # -- scheduling / execution -----------------------------------------------

    async def _scheduler(self) -> None:
        while True:
            job_id = await self._queue.get()
            job = self.jobs.get(job_id)  # cancelled while queued, then expired
            if job is None or job.cancel_requested or job.is_terminal:
                continue
            try:
                await self._execute(job)
            except Exception as exc:  # defensive: a scheduler must survive
                job.error = f"internal scheduler error: {exc!r}"
                self._settle(job, FAILED)

    async def _execute(self, job: JobRecord) -> None:
        """Run one job to a terminal state, retrying revoked attempts."""
        context = make_context()
        while True:
            job.attempts += 1
            job.state = RUNNING
            job.started_at = time.time()
            self._publish_status(job)

            progress = context.Queue()
            process = context.Process(
                target=run_job_worker,
                args=(progress, job, self.store, self.heartbeat_interval),
                daemon=True,
            )
            process.start()
            lease = WorkerLease(
                process,
                job_timeout=self.job_timeout,
                lease_timeout=self.lease_timeout,
            )
            self._leases[job.job_id] = lease
            try:
                outcome = await self._drain(job, progress, lease)
            finally:
                lease.revoke()
                self._leases.pop(job.job_id, None)
                progress.close()

            if outcome == "done":
                return
            if outcome == "cancelled":
                self._settle(job, CANCELLED)
                return
            # Revoked ("timeout"/"lease") or crashed ("error"): bounded retry.
            if job.attempts >= job.max_attempts:
                self._settle(job, FAILED)
                return
            self._publish_status(job)  # announce the retry

    def _poll_event(self, progress):
        """Blocking poll (runs in the executor): one event or the sentinel."""
        import queue as queue_module

        try:
            return progress.get(True, self.poll_interval)
        except queue_module.Empty:
            return _NO_EVENT

    async def _drain(self, job: JobRecord, progress, lease: WorkerLease) -> str:
        """Pump worker events until a terminal outcome for this attempt."""
        loop = asyncio.get_running_loop()
        while True:
            if job.cancel_requested:
                return "cancelled"
            reason = lease.overdue()
            if reason is not None:
                job.error = (
                    f"attempt {job.attempts} revoked ({reason}): "
                    f"ran {lease.elapsed():.1f}s"
                )
                return reason

            event = await loop.run_in_executor(None, self._poll_event, progress)
            if event is _NO_EVENT:
                if not lease.alive():
                    # Exited without a terminal event: crashed hard (OOM,
                    # signal).  One more poll already drained the queue.
                    job.error = (
                        f"attempt {job.attempts}: worker exited without a result "
                        f"(exitcode {lease.process.exitcode})"
                    )
                    return "error"
                continue

            lease.touch()
            kind, payload = event
            if kind == "heartbeat":
                continue
            if kind in ("round", "signatures", "window"):
                if kind == "round":
                    job.rounds.append(payload)
                self._publish(job.job_id, {"event": kind, "job_id": job.job_id, kind: payload})
                continue
            if kind == "error":
                job.error = f"attempt {job.attempts} raised:\n{payload}"
                return "error"
            if kind == "done":
                job.result_summary = payload["result"]
                job.perf = payload["perf"]
                self._settle(job, DONE)
                return "done"

"""Synthesis-as-a-service: async job server + content-addressed result store.

The one-shot CLI pipeline (``Castan.analyze``) packaged as a long-running
analysis service (ROADMAP item 1):

* :mod:`repro.service.store` — results keyed by
  ``sha256(config.content_hash() : nf.fingerprint() : num_packets)``; an
  unchanged resubmission is a cache hit served from disk, with the original
  run's perf record (wall seconds, states/sec, rounds) riding along;
* :mod:`repro.service.server` — the asyncio job core: bounded-concurrency
  scheduling, per-job worker processes under heartbeat
  :class:`~repro.service.lease.WorkerLease` supervision, per-job timeout,
  bounded retry, graceful cancellation, and live per-round progress fan-out;
* :mod:`repro.service.http` / :mod:`repro.service.client` — the stdlib REST
  transport (NDJSON event streaming) and its blocking client;
* :mod:`repro.service.worker` — the per-job process entry point: it runs
  the same ``Castan.analyze`` a local run does, so served results are
  produced by identical code, and writes the result to the store itself.

Start a server (see ``docs/SERVICE.md`` for the full walkthrough)::

    python -m repro.service --port 8321 --store /tmp/repro-store

and talk to it with ``tools/repro_submit.py`` / ``tools/repro_status.py``
or :class:`~repro.service.client.ServiceClient`.
"""

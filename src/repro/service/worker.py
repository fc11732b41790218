"""The per-job worker process: one job, streamed over a queue.

:func:`run_job_worker` is the ``multiprocessing.Process`` target the
synthesis server spawns per job attempt, for both job kinds.  It rebuilds
the config from its canonical dict and runs the *same* entry point a local
run would use — :meth:`Castan.analyze <repro.core.castan.Castan.analyze>`
for an analysis job, :func:`repro.scoring.jobs.run_score_job` for a score
job — and writes what it computed to the server's store itself, so the
server never unpickles a result.  It reports back over a single
multiprocessing queue as ``(kind, payload)`` tuples:

``("round", dict)``
    one :class:`~repro.symbex.batch.RoundStats` as a plain dict, emitted
    live as each search round completes (analysis jobs);
``("signatures", dict)``
    the distilled signature set, once, before any window (score jobs);
``("window", dict)``
    one completed scoring window (score jobs);
``("heartbeat", float)``
    proof of life from a daemon thread, every ``heartbeat_interval``
    seconds — so the server's :class:`~repro.service.lease.WorkerLease`
    can tell a long solver round from a wedged worker;
``("done", {"result": dict, "perf": dict | None})``
    the terminal success event: the stored result's summary and perf record
    (an analysis job), or the scoring summary and ``None`` (a score job);
``("error", str)``
    the terminal failure event, carrying the traceback text.
"""

from __future__ import annotations

import threading
import time
import traceback
from dataclasses import asdict


def run_job_worker(queue, job, store, heartbeat_interval: float = 1.0) -> None:
    """Process target: run ``job`` (a ``JobRecord``) and stream progress over ``queue``."""
    stop = threading.Event()

    def emit_heartbeats() -> None:
        while not stop.wait(heartbeat_interval):
            queue.put(("heartbeat", time.time()))

    beater = threading.Thread(target=emit_heartbeats, daemon=True)
    beater.start()
    try:
        from repro.core.config import CastanConfig
        from repro.service.jobs import SCORE

        config = CastanConfig.from_dict(job.config)
        if job.kind == SCORE:
            from repro.scoring.jobs import run_score_job
            from repro.scoring.scorer import ScorerOptions

            summary = run_score_job(
                job.nf_spec,
                config,
                job.traffic,
                num_packets=job.num_packets,
                store=store,
                options=ScorerOptions(**job.scorer_options),
                emit=lambda kind, payload: queue.put((kind, payload)),
                label=f"service:{job.job_id}",
            )
            perf = None  # a score job settles with its summary alone
        else:
            from repro.core.castan import Castan
            from repro.nf.registry import get_nf
            from repro.service.store import perf_record

            result = Castan(config).analyze(
                get_nf(job.nf_spec),
                num_packets=job.num_packets,
                on_round=lambda round_stats: queue.put(("round", asdict(round_stats))),
            )
            meta = store.put(
                job.cache_key, result, perf=perf_record(result, label=f"service:{job.job_id}")
            )
            summary, perf = meta["result"], meta["perf"]
        queue.put(("done", {"result": summary, "perf": perf}))
    except BaseException:
        queue.put(("error", traceback.format_exc()))
    finally:
        stop.set()

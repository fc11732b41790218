"""The per-job worker process: one job, streamed over a queue.

:func:`run_job_worker` is the ``multiprocessing.Process`` target the
synthesis server spawns per job attempt, for both job kinds.  It rebuilds
the config from its canonical dict and runs the *same* entry point a local
run would use — :func:`repro.parallel.portfolio.analyze_one_nf` for an
analysis job, :func:`repro.scoring.jobs.run_score_job` against the server's
store for a score job — and reports back over a single multiprocessing
queue as ``(kind, payload)`` tuples:

``("round", dict)``
    one :class:`~repro.symbex.batch.RoundStats` as a plain dict, emitted
    live as each search round completes (analysis jobs);
``("signatures", dict)``
    the distilled signature set, once, before any window (score jobs);
``("window", dict)``
    one completed scoring window (score jobs);
``("heartbeat", float)``
    proof of life from a daemon thread, every ``heartbeat_interval``
    seconds — so the server's :class:`~repro.parallel.lease.WorkerLease`
    can tell a long solver round from a wedged worker;
``("done", CastanResult | dict)``
    the terminal success event: the analysis result (it rides the queue's
    pickle path) or the score job's summary;
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

            outcome = run_score_job(
                job.nf_spec,
                config,
                job.traffic,
                num_packets=job.num_packets,
                store=store,
                options=ScorerOptions(**job.scorer_options),
                emit=lambda kind, payload: queue.put((kind, payload)),
            )
        else:
            from repro.parallel.portfolio import analyze_one_nf

            outcome = analyze_one_nf(
                job.nf_spec,
                config,
                num_packets=job.num_packets,
                on_round=lambda round_stats: queue.put(("round", asdict(round_stats))),
            )
        queue.put(("done", outcome))
    except BaseException:
        queue.put(("error", traceback.format_exc()))
    finally:
        stop.set()

"""The service's job model: one submitted ``(nf_spec, config)`` analysis.

A job's life cycle::

    queued ──▶ running ──▶ done
      │           │  └────▶ failed     (after bounded retries)
      └───────────┴───────▶ cancelled  (client-requested revocation)

plus the short-circuit every content-addressed system exists for:
``queued ──▶ done (cached=True)`` when the store already holds the job's
address — a cache hit never enters the scheduler at all.

The service keeps each job's event history (the rounds streamed so far,
status transitions, terminal summary), so a late stream subscriber can
replay everything that already happened and then follow live; the record
itself counts the rounds.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

#: Job states (strings, not an Enum: they travel as JSON).
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

TERMINAL_STATES = (DONE, FAILED, CANCELLED)


#: Job kinds, both run in a leased worker process.  ``analyze`` runs the
#: engine; ``score`` runs the scoring pipeline (store-first analysis →
#: distilled signatures → windowed stream scoring).
ANALYZE = "analyze"
SCORE = "score"


@dataclass
class JobRecord:
    """Everything the server tracks about one submitted analysis."""

    job_id: str
    nf_spec: str
    config: dict  # canonical CastanConfig dict (what the worker rebuilds)
    num_packets: int | None
    cache_key: str
    config_hash: str
    nf_fingerprint: str
    kind: str = ANALYZE
    #: Score jobs only: the traffic spec (``pcap_bytes``/``pcap_path``/
    #: ``synthetic``) and scorer knob overrides.  Not part of :meth:`to_dict`
    #: — pcap bytes are neither JSON-safe nor interesting to job listings.
    traffic: dict | None = None
    scorer_options: dict | None = None
    state: str = QUEUED
    cached: bool = False
    attempts: int = 0
    max_attempts: int = 2
    error: str = ""
    cancel_requested: bool = False
    rounds: int = 0
    result_summary: dict | None = None
    perf: dict | None = None
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None

    @property
    def is_terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        """JSON-safe view served by the job endpoints."""
        return {
            "job_id": self.job_id,
            "kind": self.kind,
            "nf": self.nf_spec,
            "num_packets": self.num_packets,
            "state": self.state,
            "cached": self.cached,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "cache_key": self.cache_key,
            "config_hash": self.config_hash,
            "nf_fingerprint": self.nf_fingerprint,
            "rounds": self.rounds,
            "result": self.result_summary,
            "perf": self.perf,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }

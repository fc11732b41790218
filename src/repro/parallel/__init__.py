"""Process-parallel analysis orchestration.

:class:`~repro.parallel.portfolio.PortfolioRunner` fans a *set of NFs* (the
17-NF evaluation suite) out over worker processes, one full ``Castan``
analysis per task, and merges the results back in input order.  Per-NF
analyses are deterministic and independent, so the merged output is
byte-identical to a sequential run.  The worker count is an argument of the
runner, never a field of the :class:`~repro.core.config.CastanConfig` it
ships to its workers.

A service-shaped piece lives in :mod:`repro.parallel.lease`: the
:class:`~repro.parallel.lease.WorkerLease` heartbeat/budget supervision the
synthesis service (:mod:`repro.service`) wraps around each per-job worker
process.
"""

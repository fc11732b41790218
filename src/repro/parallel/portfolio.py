"""Portfolio analysis: the multi-NF evaluation suite over worker processes.

CASTAN's evaluation analyses 15 NFs end-to-end; each analysis is an
independent, deterministic pipeline (ICFG annotation, cache-model
construction, symbolic search, solving, havoc reconciliation), so the
portfolio is embarrassingly parallel.  :class:`PortfolioRunner` fans the
suite out over a :class:`~concurrent.futures.ProcessPoolExecutor` and
collects results *by NF name*, returning them in the order the names were
given — registry order for the evaluation suite — regardless of worker
completion order.  Workload bytes and best-state costs are identical to a
sequential run of the same configuration (``tests/test_parallel.py``
checks this, and ``tests/test_engine_pins.py`` pins the sequential
digests).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.castan import Castan, CastanResult
from repro.core.config import CastanConfig
from repro.parallel.pool import make_pool


def analyze_one_nf(
    name: str,
    config: CastanConfig,
    num_packets: int | None = None,
    on_round=None,
) -> CastanResult:
    """Worker entry point: one full ``Castan`` analysis of one NF.

    ``name`` accepts anything :func:`~repro.nf.registry.get_nf` does,
    including ad-hoc ``chain:`` specs.  ``on_round`` streams per-round
    progress (see :meth:`~repro.core.castan.Castan.analyze`); the synthesis
    service (:mod:`repro.service`) runs its jobs through this same entry
    point so served and portfolio results are produced by identical code.
    """
    from repro.nf.registry import get_nf

    return Castan(config).analyze(get_nf(name), num_packets=num_packets, on_round=on_round)


def _scheduling_weight(name: str) -> int:
    """Expected relative analysis cost of one NF (scheduling hint only).

    Hash-based NFs dominate wall-clock (havoc-heavy paths keep the solver
    busy), and cost grows with the per-NF packet count.  The weight only
    orders *submission* — results are still merged in input order — so a bad
    estimate costs wall-clock, never correctness.
    """
    from repro.nf.registry import get_nf

    nf = get_nf(name)
    return nf.castan_packet_count * (4 if nf.hash_functions else 1)


class PortfolioRunner:
    """Run a set of NF analyses, optionally across worker processes.

    ``workers <= 1`` runs the portfolio serially in-process through the same
    per-NF task function the workers use, so the two execution modes produce
    identical results.  Each parallel task ships only ``(name, config)`` to
    the worker and returns one :class:`~repro.core.castan.CastanResult`.
    """

    def __init__(
        self,
        config: CastanConfig | None = None,
        workers: int = 0,
        num_packets: int | None = None,
    ) -> None:
        self.config = config or CastanConfig()
        self.workers = workers
        self.num_packets = num_packets

    def run(self, names: Sequence[str]) -> list[CastanResult]:
        """Analyse every NF in ``names``; results come back in input order."""
        names = list(names)
        config = self.config
        if self.workers <= 1 or len(names) <= 1:
            return [analyze_one_nf(name, config, self.num_packets) for name in names]
        pool = make_pool(min(self.workers, len(names)))
        try:
            # Longest-expected-first submission shrinks the makespan tail
            # (the pool would otherwise start the most expensive NF last).
            order = sorted(
                range(len(names)),
                key=lambda i: (-_scheduling_weight(names[i]), i),
            )
            futures = {}
            for index in order:
                futures[index] = pool.submit(
                    analyze_one_nf,
                    names[index],
                    config,
                    self.num_packets,
                )
            # Deterministic collection: merge by input order, not by
            # completion order.
            return [futures[index].result() for index in range(len(names))]
        finally:
            pool.shutdown()

    def run_map(self, names: Sequence[str]) -> dict[str, CastanResult]:
        """Like :meth:`run`, keyed by NF name."""
        names = list(names)
        return dict(zip(names, self.run(names)))

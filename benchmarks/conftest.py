"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper's evaluation.
Results are computed through the memoised runners in
``repro.eval.experiments``, so an NF is analysed and measured once no
matter how many tables reference it, always at ``EVAL_CONFIG`` (the config
``tests/test_quality.py`` gates).
Set ``REPRO_EVAL_SCALE`` to ``smoke`` / ``quick`` / ``full`` to size the
replays and baseline workloads before invoking
``pytest benchmarks/bench_*.py --benchmark-only``
(by file: the scripts are not named ``test_*.py``, so ``pytest benchmarks/``
collects nothing).
"""

from __future__ import annotations

import pytest


def run_once(benchmark, fn):
    """Run an experiment exactly once under pytest-benchmark timing.

    The experiments are deterministic end-to-end pipelines (not
    micro-kernels), so a single timed round is the meaningful measurement —
    re-running them would only re-read the memoised results.
    """
    return benchmark.pedantic(fn, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def emit():
    """Print a rendered table/figure underneath the benchmark output."""

    def _emit(text: str) -> None:
        print("\n" + text + "\n")

    return _emit

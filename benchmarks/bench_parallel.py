"""Parallel portfolio speedup and output-identity benchmark.

Measures two things for the process-parallel subsystem (``repro.parallel``):

* **speedup** — wall-clock of the 17-NF evaluation portfolio run
  sequentially vs. fanned out over ``--workers`` processes;
* **identity** — the parallel run must synthesize byte-identical workloads
  (and reach equal best-state costs) to its sequential reference.  The
  process exits non-zero on any mismatch, which is what lets CI use this
  benchmark as a regression gate.

Run standalone::

    PYTHONPATH=src python benchmarks/bench_parallel.py --workers 4 --out BENCH_parallel.json

or under pytest (smoke-sized identity check)::

    PYTHONPATH=src python -m pytest benchmarks/bench_parallel.py -q

The exploration budget follows ``REPRO_EVAL_SCALE`` (smoke / quick / full);
wall-clock deadlines are disabled so runs are deterministic.  Speedup is
hardware-dependent (a single-core container shows none); identity holds
everywhere.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

from repro.core.castan import CastanResult
from repro.core.config import CastanConfig
from repro.core.workload import workload_digest
from repro.eval.experiments import EVALUATION_NFS
from repro.parallel.portfolio import PortfolioRunner

_SCALE_STATES = {"smoke": 60, "quick": 250, "full": 2500}
DEFAULT_WORKERS = 4


def _max_states() -> int:
    scale = os.environ.get("REPRO_EVAL_SCALE", "quick").lower()
    return _SCALE_STATES.get(scale, _SCALE_STATES["quick"])


def _digest(result: CastanResult) -> str:
    return workload_digest(result.packets)


def bench_portfolio(nfs: tuple[str, ...], max_states: int, workers: int) -> dict:
    """Sequential vs. parallel portfolio over ``nfs``: speedup + identity."""
    config = CastanConfig(max_states=max_states, deadline_seconds=None)

    start = time.perf_counter()
    sequential = PortfolioRunner(config=config, workers=0).run(nfs)
    wall_sequential = time.perf_counter() - start

    start = time.perf_counter()
    parallel = PortfolioRunner(config=config, workers=workers).run(nfs)
    wall_parallel = time.perf_counter() - start

    records = []
    for name, seq, par in zip(nfs, sequential, parallel):
        records.append(
            {
                "nf": name,
                "digest": _digest(seq),
                "best_state_cost": seq.best_state_cost,
                "identical": _digest(seq) == _digest(par)
                and seq.best_state_cost == par.best_state_cost,
            }
        )
    return {
        "workers": workers,
        "wall_sequential_seconds": round(wall_sequential, 4),
        "wall_parallel_seconds": round(wall_parallel, 4),
        "speedup": round(wall_sequential / wall_parallel, 3) if wall_parallel else None,
        "identical": all(record["identical"] for record in records),
        "nfs": records,
    }


def run_benchmark(
    nfs: tuple[str, ...] = EVALUATION_NFS,
    max_states: int | None = None,
    workers: int = DEFAULT_WORKERS,
) -> dict:
    max_states = max_states if max_states is not None else _max_states()

    portfolio = bench_portfolio(nfs, max_states, workers)
    print(
        f"portfolio ({len(nfs)} NFs, workers={workers}): "
        f"{portfolio['wall_sequential_seconds']:.2f}s sequential -> "
        f"{portfolio['wall_parallel_seconds']:.2f}s parallel "
        f"({portfolio['speedup']}x), identical={portfolio['identical']}"
    )

    return {
        "benchmark": "bench_parallel",
        "scale": os.environ.get("REPRO_EVAL_SCALE", "quick").lower(),
        "max_states": max_states,
        "cpu_count": os.cpu_count(),
        "portfolio": portfolio,
        "identical": portfolio["identical"],
    }


# -- pytest entry point (smoke-sized identity check) ---------------------------


def test_parallel_bench_smoke():
    """Parallel runs stay byte-identical to sequential at smoke scale."""
    report = run_benchmark(
        nfs=("lpm-patricia", "nat-hash-table"),
        max_states=40,
        workers=2,
    )
    assert report["identical"]


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nfs", nargs="*", default=list(EVALUATION_NFS), help="NF names to run")
    parser.add_argument("--max-states", type=int, default=None, help="override exploration budget")
    parser.add_argument("--workers", type=int, default=DEFAULT_WORKERS, help="worker processes")
    parser.add_argument("--out", default=None, help="write the JSON report to this path")
    args = parser.parse_args(argv)

    report = run_benchmark(tuple(args.nfs), args.max_states, args.workers)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {args.out}")
    else:
        json.dump(report, sys.stdout, indent=2)
        print()
    if not report["identical"]:
        print("FAIL: parallel output diverged from the sequential reference", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

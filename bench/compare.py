"""Compare two sets of benchmark runs: ``python3 bench/compare.py BASE NEW``.

``BASE`` and ``NEW`` are directories of result files written by
``bench/run.py`` (untraced, full-scale runs; at least three per workload and
side).  Prints one row per (end-to-end metric, workload) with each side's
median and quartiles, the ratio ``new/base`` with its base, and a verdict:

``same``        the medians differ by no more than the metric's bound;
``worse``       the new median is worse by more than the bound;
``better``      it is better by more than the bound, or every new run reads
                better than every base run;
``unresolved``  the run-to-run spread (quartile distance over median, either
                side) exceeds the bound, so the runs cannot tell.

Exits non-zero on any ``worse`` or when a workload's failed/attempted
operations ratio went up.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT)]

from bench import metrics  # noqa: E402

MIN_RUNS = 3


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced full-scale results of one set, by workload."""
    runs: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        if record["trace"] or record["smoke"]:
            continue
        runs.setdefault(record["workload"], []).append(record["result"])
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    low, _, high = statistics.quantiles(values, n=4)
    return low, statistics.median(values), high


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    """How ``new`` reads against ``base`` for one metric on one workload."""
    sign = 1.0 if better == "lower" else -1.0  # from here on, smaller is better
    base, new = [sign * v for v in base], [sign * v for v in new]
    if max(new) < min(base):
        return "better"
    (b_low, b_mid, b_high), (n_low, n_mid, n_high) = quartiles(base), quartiles(new)
    worse_by = (n_mid - b_mid) / abs(b_mid)
    spread = max((b_high - b_low) / abs(b_mid), (n_high - n_low) / abs(n_mid))
    if spread > bound and min(new) <= max(base):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(base_dir: str, new_dir: str) -> int:
    base_runs, new_runs = load(base_dir), load(new_dir)
    status = 0
    print(
        f"{'workload':13} {'metric':17} {'base q1/median/q3':>32} "
        f"{'new q1/median/q3':>32} {'new/base':>9}  verdict"
    )
    for workload in metrics.WORKLOADS:
        base, new = base_runs.get(workload, []), new_runs.get(workload, [])
        if min(len(base), len(new)) < MIN_RUNS:
            print(f"{workload}: needs {MIN_RUNS} runs per side, has {len(base)} and {len(new)}")
            status = 1
            continue
        for name, unit, better, bound in metrics.END_TO_END:
            b = [run["metrics"][name]["value"] for run in base]
            n = [run["metrics"][name]["value"] for run in new]
            word = verdict(b, n, better, bound)
            if word == "worse":
                status = 1
            b_q, n_q = quartiles(b), quartiles(n)
            print(
                f"{workload:13} {name:17} "
                f"{'/'.join(f'{v:.4g}' for v in b_q):>32} {'/'.join(f'{v:.4g}' for v in n_q):>32} "
                f"{n_q[1] / b_q[1]:9.3f}  {word} (base {b_q[1]:.4g} {unit}, bound {bound:.0%})"
            )
        shares = [
            sum(run["failed"] for run in side) / sum(run["attempted"] for run in side)
            for side in (base, new)
        ]
        print(f"{workload:13} ops failed/attempted: base {shares[0]:.4f}, new {shares[1]:.4f}")
        if shares[1] > shares[0]:
            status = 1
    return status


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    raise SystemExit(compare(sys.argv[1], sys.argv[2]))

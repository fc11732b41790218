"""Workload-digest regression check (the ``bench-regression`` CI gate).

Synthesizes the smoke-scale adversarial workload for every evaluation NF
with the byte-stable monolithic search and reduces each to a SHA-256 digest
over the concatenated on-wire packet bytes.  The checked-in
``BENCH_smoke_digests.json`` baseline pins those digests: any revision that
changes the synthesized workloads — intentionally or not — must regenerate
the baseline, and CI fails until it does.

Regenerate the baseline::

    PYTHONPATH=src python benchmarks/bench_digests.py --out BENCH_smoke_digests.json

Check the current tree against it (exit code 1 on drift)::

    PYTHONPATH=src python benchmarks/bench_digests.py --check BENCH_smoke_digests.json

The configuration is pinned in this file (not taken from the environment)
so the digests mean the same thing on every machine; ``--workers N``
optionally computes the portfolio across worker processes, which must not —
and does not — change any digest.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.core.config import CastanConfig
from repro.core.workload import workload_digest
from repro.eval.experiments import EVALUATION_NFS
from repro.parallel.portfolio import PortfolioRunner

#: Pinned smoke-scale configuration: small enough for CI, deterministic
#: (no wall-clock deadline), byte-stable monolithic search.
SMOKE_MAX_STATES = 60
SMOKE_NUM_PACKETS = 5


def smoke_config() -> CastanConfig:
    return CastanConfig(
        max_states=SMOKE_MAX_STATES,
        num_packets=SMOKE_NUM_PACKETS,
        deadline_seconds=None,
    )


def compute_report(nfs: tuple[str, ...] = EVALUATION_NFS, workers: int = 0) -> dict:
    """Digest (and cost) of the smoke-scale workload for every NF."""
    runner = PortfolioRunner(config=smoke_config(), workers=workers)
    results = runner.run_map(nfs)
    digests = {name: workload_digest(result.packets) for name, result in results.items()}
    best_costs = {name: result.best_state_cost for name, result in results.items()}
    return {
        "benchmark": "bench_digests",
        "config": {
            "max_states": SMOKE_MAX_STATES,
            "num_packets": SMOKE_NUM_PACKETS,
            "search_mode": "monolithic",
        },
        "digests": digests,
        "best_costs": best_costs,
    }


def check_against_baseline(report: dict, baseline: dict) -> list[str]:
    """Human-readable drift descriptions (empty = no drift)."""
    problems: list[str] = []
    if baseline.get("config") != report["config"]:
        problems.append(
            f"config drift: baseline {baseline.get('config')} vs current {report['config']}"
        )
    baseline_digests = baseline.get("digests", {})
    for name, digest in report["digests"].items():
        expected = baseline_digests.get(name)
        if expected is None:
            problems.append(f"{name}: missing from baseline")
        elif expected != digest:
            problems.append(f"{name}: digest {digest[:16]}... != baseline {expected[:16]}...")
    for name in baseline_digests:
        if name not in report["digests"]:
            problems.append(f"{name}: in baseline but not computed")
    return problems


# -- pytest entry point (not collected by tier-1; run explicitly) --------------


def test_digest_determinism_smoke():
    """The digest of one NF is stable across two back-to-back computations."""
    report_a = compute_report(nfs=("lpm-patricia",))
    report_b = compute_report(nfs=("lpm-patricia",))
    assert report_a["digests"] == report_b["digests"]


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nfs", nargs="*", default=list(EVALUATION_NFS), help="NF names to run")
    parser.add_argument("--workers", type=int, default=0, help="portfolio worker processes")
    parser.add_argument("--out", default=None, help="write the JSON report to this path")
    parser.add_argument("--check", default=None, help="compare against this baseline JSON")
    args = parser.parse_args(argv)

    report = compute_report(tuple(args.nfs), workers=args.workers)
    for name in args.nfs:
        print(f"{name:>20}: {report['digests'][name]}  cost={report['best_costs'][name]}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if args.check:
        baseline = json.loads(Path(args.check).read_text())
        problems = check_against_baseline(report, baseline)
        if problems:
            print(f"\nDIGEST DRIFT vs {args.check}:", file=sys.stderr)
            for problem in problems:
                print(f"  {problem}", file=sys.stderr)
            return 1
        print(f"\nall {len(report['digests'])} digests match {args.check}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Run the benchmark: ``python3 bench/run.py [--workload NAME] --seed N``.

With ``--workload`` this is one run of one workload — what the benchmark
contract in ``BENCHMARK.json`` drives — and the last line of stdout is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (one
untraced rep, then one rep with :mod:`bench.spans` installed; the difference
is the tracing overhead).  Without ``--workload`` it runs every workload
once that way, plus a traced run each with ``--trace 1``, and prints every
metric by name with unit, direction and bound.

Each run also leaves a result file with its header and raw samples under
``--out`` (default ``bench-out/``, git-ignored); ``bench/compare.py`` reads
those.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from bench import metrics  # noqa: E402


def header(args: argparse.Namespace) -> dict:
    """Where and how this run was made."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "commit": commit or "unknown",
        "nproc": os.cpu_count(),
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def run_one(args: argparse.Namespace) -> dict:
    """One run of one workload; returns the result file's content."""
    from bench import workloads

    out = Path(args.out).resolve()
    workdir = out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    record = header(args)
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=workloads.SMOKE if args.smoke else workloads.FULL,
        workdir=workdir,
    )
    try:
        end_to_end, layers = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        declared = {name: unit for name, unit, _ in metrics.PER_LAYER}
        unknown = set(layers) - set(declared)
        if unknown:
            raise SystemExit(f"undeclared per-layer metrics: {sorted(unknown)}")
        values = {name: layers.get(name, 0.0) for name in declared}
    else:
        declared = {name: unit for name, unit, _, _ in metrics.END_TO_END}
        values = end_to_end
    record.update(
        {
            "reps": run.reps,
            "wall_s": time.monotonic() - run.started,
            "times": run.times,
            "samples": run.samples,
            "failures": run.failures,
            "result": {
                "correct": not run.failures,
                "attempted": run.attempted,
                "failed": len(run.failures),
                "metrics": {
                    name: {"value": values[name], "unit": unit} for name, unit in declared.items()
                },
            },
        }
    )
    name = f"{args.workload}-t{args.trace}-s{args.seed}-{time.time_ns() // 1_000_000}.json"
    (out / name).write_text(json.dumps(record, indent=1) + "\n")
    return record


def run_suite(args: argparse.Namespace) -> int:
    """Every workload once (and once traced with ``--trace 1``), as a table.

    Each run is its own harness process, exactly as the contract drives it,
    so one workload's children never count towards another's peak RSS.
    """
    bounds = {name: (better, bound) for name, _, better, bound in metrics.END_TO_END}
    directions = {name: better for name, _, better in metrics.PER_LAYER}
    failed = 0
    for workload in metrics.WORKLOADS:
        for trace in range(args.trace + 1):
            command = [sys.executable, __file__, "--workload", workload, "--trace", str(trace)]
            command += ["--seed", str(args.seed), "--seconds", str(args.seconds)]
            command += ["--out", args.out] + (["--smoke"] if args.smoke else [])
            done = subprocess.run(command, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"\n{workload}: run failed\n{done.stderr[-2000:]}")
                failed += 1
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            failed += result["failed"]
            kind = "per-layer (traced)" if trace else "end-to-end"
            print(f"\n{workload}: {kind}, ops failed {result['failed']}/{result['attempted']}")
            for name, metric in result["metrics"].items():
                if trace:
                    note = f"{directions[name]} is better"
                else:
                    better, bound = bounds[name]
                    note = f"{better} is better, regression bound {bound:.0%}"
                print(f"  {name:32} {metric['value']:14.6g} {metric['unit']:7} {note}")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS), default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny scale (tests)")
    parser.add_argument("--out", default="bench-out", help="directory for result files")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_suite(args)
    print(json.dumps(run_one(args)["result"]))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""``repro-status``: inspect a running ``repro.service`` server.

With no arguments, prints server health and the job table.  With a job id,
prints that job's full record (add ``--follow`` to stream its remaining
events).  ``--store`` lists the content-addressed result store instead::

    PYTHONPATH=src python tools/repro_status.py
    PYTHONPATH=src python tools/repro_status.py job-0001
    PYTHONPATH=src python tools/repro_status.py job-0001 --follow
    PYTHONPATH=src python tools/repro_status.py --store
    PYTHONPATH=src python tools/repro_status.py --cancel job-0002
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service.client import ServiceClient, ServiceError  # noqa: E402


def show_jobs(client: ServiceClient) -> None:
    health = client.health()
    counts = ", ".join(f"{state}={n}" for state, n in sorted(health["jobs"].items()))
    print(f"service ok; jobs: {counts or 'none'}; store entries: {len(client.store_keys())}")
    jobs = client.jobs()
    if not jobs:
        return
    width = max(len(job["nf"]) for job in jobs)
    for job in jobs:
        tag = " cache-hit" if job.get("cached") else ""
        print(
            f"  {job['job_id']}  {job['nf']:<{width}}  {job['state']:<9} "
            f"attempts={job['attempts']} rounds={job.get('rounds', 0)}{tag}"
        )
        if job.get("error"):
            print(f"      error: {job['error']}")


def show_store(client: ServiceClient) -> None:
    keys = client.store_keys()
    print(f"{len(keys)} stored result(s)")
    for key in keys:
        summary = client.store_meta(key).get("result", {})
        print(
            f"  {key[:16]}…  nf={summary.get('nf')} "
            f"digest={summary.get('result_digest', '')[:16]}…"
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("job_id", nargs="?", help="show one job instead of the table")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--store", action="store_true", help="list the result store")
    parser.add_argument("--follow", action="store_true", help="stream the job's events")
    parser.add_argument("--cancel", metavar="JOB_ID", help="request cancellation of a job")
    args = parser.parse_args(argv)

    client = ServiceClient(host=args.host, port=args.port)
    try:
        if args.cancel:
            job = client.cancel(args.cancel)
            print(f"{job['job_id']}: {job['state']}")
        elif args.store:
            show_store(client)
        elif args.job_id and args.follow:
            for event in client.stream(args.job_id):
                print(json.dumps(event, sort_keys=True))
        elif args.job_id:
            print(json.dumps(client.job(args.job_id), indent=2, sort_keys=True))
        else:
            show_jobs(client)
    except ServiceError as error:
        print(f"service error: {error.message}", file=sys.stderr)
        return 1
    except ConnectionError as error:
        print(
            f"cannot reach repro.service at {args.host}:{args.port} ({error}); "
            "start one with: python -m repro.service",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""``repro-score``: score traffic against an NF's distilled signatures.

Offline (default) the full pipeline runs in-process — analyze (or reuse a
``--store`` entry), distill calibrated signatures, then stream the traffic
through the vectorized scorer, which needs numpy (the [vector] extra)::

    PYTHONPATH=src python tools/repro_score.py nat-hash-table \\
        --pcap castan-workload.pcap
    PYTHONPATH=src python tools/repro_score.py nat-hash-table \\
        --synthetic 200000 --seed 1 --store /tmp/castan-store --json

With ``--server`` the job runs on a ``repro.service`` instance instead
(``POST /score``) and this tool follows the NDJSON window stream::

    PYTHONPATH=src python tools/repro_score.py nat-hash-table \\
        --synthetic 100000 --server 127.0.0.1:8321

``--set knob=value`` overrides any ``CastanConfig`` field, same syntax as
``repro_submit.py``.  Scorer knobs (``--batch``, ``--window``, ``--top-k``)
default to ``ScorerOptions``' defaults (8192 / 65536 / 5).  Exit status is
0 when the stream scored cleanly, 1 on any submission, distillation, or
transport error, and offline without numpy.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import CastanConfig  # noqa: E402
from repro.service.client import ServiceClient, ServiceError  # noqa: E402
# repro_submit sits beside this script, in sys.path[0].
from repro_submit import parse_overrides  # noqa: E402


def _flow_str(flow: list | tuple) -> str:
    src_ip, dst_ip, src_port, dst_port, protocol = flow
    def ip(value: int) -> str:
        return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))
    return f"{ip(src_ip)}:{src_port} -> {ip(dst_ip)}:{dst_port} proto={protocol}"


def _print_signatures(payload: dict) -> None:
    print(f"{payload['nf']}: {payload['count']} signature(s) "
          f"[{payload['content_hash'][:12]}]")
    for signature in payload["signatures"]:
        print(f"  [{signature['kind']}] {signature['label']}")
        print(f"    threshold={signature['threshold_cycles']} cycles "
              f"(baseline {signature['baseline_cycles']}, "
              f"{signature['priming_flows']} priming flows)")


def _print_window(window: dict) -> None:
    print(f"window {window['window']}: packets={window['packets']} "
          f"matched={window['matched']} hits={window['signature_hits']}")
    for offender in window["top_offenders"]:
        print(f"    {_flow_str(offender['flow'])}  x{offender['hits']}")


def _print_summary(summary: dict) -> None:
    print(f"total: {summary['packets']} packets, {summary['matched']} matched, "
          f"{summary['windows']} window(s)")
    if summary["frames_skipped"]:
        print(f"  skipped {summary['frames_skipped']} frame(s): not IPv4, or truncated")
    if summary["frames_in_runs"]:
        print(f"  read {summary['frames_in_runs']} frame(s) in runs of equal length")
    for signature in summary["signatures"]:
        print(f"  {signature['hits']:>8}  {signature['label']}")


def _traffic_spec(args: argparse.Namespace) -> dict:
    if args.pcap is not None:
        if not Path(args.pcap).exists():
            raise SystemExit(f"no such pcap: {args.pcap}")
        return {"pcap_path": args.pcap}
    return {"synthetic": args.synthetic, "seed": args.seed}


def _scorer_options(args: argparse.Namespace) -> dict:
    """The ``ScorerOptions`` fields set by flags (the rest keep defaults)."""
    flags = {"batch_size": args.batch, "window_size": args.window, "top_k": args.top_k}
    return {name: value for name, value in flags.items() if value is not None}


def _run_offline(args: argparse.Namespace, config_overrides: dict) -> int:
    try:
        from repro.scoring.jobs import run_score_job
        from repro.scoring.scorer import ScorerOptions
    except ImportError as error:  # no numpy: the [vector] extra
        print(f"score failed: {error}", file=sys.stderr)
        return 1
    from repro.service.store import ResultStore

    config = CastanConfig.from_dict(config_overrides)
    store = ResultStore(args.store) if args.store else None
    events: list[tuple[str, dict]] = []

    def emit(kind: str, payload: dict) -> None:
        if args.json:
            events.append((kind, payload))
        elif kind == "signatures":
            _print_signatures(payload)
        elif kind == "window":
            _print_window(payload)

    try:
        summary = run_score_job(
            args.nf,
            config,
            _traffic_spec(args),
            num_packets=args.packets,
            store=store,
            options=ScorerOptions(**_scorer_options(args)),
            emit=emit,
        )
    except (KeyError, ValueError) as error:
        message = error.args[0] if error.args else str(error)
        print(f"score failed: {message}", file=sys.stderr)
        return 1
    if args.json:
        document = {
            "events": [{"event": kind, **{kind: payload}} for kind, payload in events],
            "summary": summary,
        }
        print(json.dumps(document, sort_keys=True))
    else:
        _print_summary(summary)
    return 0


def _run_server(args: argparse.Namespace, config_overrides: dict) -> int:
    host, _, port = args.server.partition(":")
    client = ServiceClient(host=host or "127.0.0.1", port=int(port or 8321))
    try:
        job = client.score(
            args.nf,
            _traffic_spec(args),
            config=config_overrides,
            num_packets=args.packets,
            options=_scorer_options(args),
        )
        final: dict = {}
        raw_events: list[dict] = []
        for event in client.stream(job["job_id"]):
            kind = event.get("event")
            if args.json:
                raw_events.append(event)
            elif kind == "signatures":
                _print_signatures(event["signatures"])
            elif kind == "window":
                _print_window(event["window"])
            if kind == "end":
                final = event["job"]
    except ServiceError as error:
        print(f"score failed: {error.message}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps({"events": raw_events, "job": final}, sort_keys=True))
    elif final.get("result"):
        _print_summary(final["result"])
    if final.get("state") != "done":
        if final.get("error"):
            print(f"error: {final['error']}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("nf", help="NF name or chain: spec to score against")
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--pcap", default=None, help="pcap file to score")
    source.add_argument(
        "--synthetic", type=int, default=100_000,
        help="synthetic in-class packets to score (default 100000)",
    )
    parser.add_argument("--seed", type=int, default=0, help="synthetic stream seed")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KNOB=VALUE", help="CastanConfig override (repeatable)",
    )
    parser.add_argument("--packets", type=int, default=None, help="packets to synthesize")
    parser.add_argument(
        "--store", default=None,
        help="result-store root: reuse cached analyses/signatures, persist new ones",
    )
    parser.add_argument("--batch", type=int, default=None, help="scoring batch size")
    parser.add_argument("--window", type=int, default=None, help="report window size")
    parser.add_argument("--top-k", type=int, default=None, help="offenders per window")
    parser.add_argument(
        "--server", default=None, metavar="HOST:PORT",
        help="run on a repro.service instance instead of in-process",
    )
    parser.add_argument(
        "--json", action="store_true", help="emit one JSON document instead of text"
    )
    args = parser.parse_args(argv)

    config_overrides = parse_overrides(args.overrides)
    if args.server:
        return _run_server(args, config_overrides)
    return _run_offline(args, config_overrides)


if __name__ == "__main__":
    raise SystemExit(main())

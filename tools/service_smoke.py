#!/usr/bin/env python3
"""End-to-end smoke test for the synthesis service (the CI ``service-smoke`` job).

Boots ``python -m repro.service`` on an ephemeral port with a throwaway
store, then drives the real REST API through :class:`ServiceClient`:

1. submit one NF at smoke scale and follow its stream — assert per-round
   ``RoundStats`` events arrive before the terminal ``end``;
2. resubmit the identical job ``HITS`` times — assert each is served as a
   cache hit from the content-addressed store, with a byte-identical
   canonical result digest, that the resubmissions rode one kept-alive
   connection (``/healthz``'s ``requests - connections`` grows by at least
   ``HITS - 1``), and that both hit-path memos pay: the NF was compiled for
   its address once and the config canonicalised once, every resubmission
   a memo hit;
3. fetch the stored perf record;
4. score synthetic traffic for the same NF (``POST /score``, run in a leased
   worker like the analysis) — assert the ``signatures`` event precedes the
   first ``window``, the job ends ``done`` and ``GET /signatures`` lists the
   distilled set — and print a one-line verdict with the median hit
   latency measured here.

Exits non-zero on any failed assertion.  Run it locally with::

    PYTHONPATH=src python tools/service_smoke.py
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.service.client import ServiceClient  # noqa: E402

NF = "lpm-patricia"
CONFIG = {"max_states": 40, "deadline_seconds": None, "search_mode": "beam"}
NUM_PACKETS = 3
HITS = 5
SCORE_TRAFFIC = {"synthetic": 5000, "seed": 1}
SCORE_OPTIONS = {"window_size": 1000}
BOOT_TIMEOUT = 30.0


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"service-smoke FAILED: {message}")
    print(f"  ok: {message}")


def boot_server(store: str) -> tuple[subprocess.Popen, int]:
    """Start ``python -m repro.service --port 0`` and parse the bound port."""
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"), PYTHONUNBUFFERED="1")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", "--store", store],
        cwd=REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + BOOT_TIMEOUT
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if not line and process.poll() is not None:
            raise SystemExit(f"service-smoke FAILED: server exited rc={process.returncode}")
        if "listening on http://" in line:
            url = line.split("listening on ", 1)[1].split()[0]
            port = int(url.rsplit(":", 1)[1])
            return process, port
    process.kill()
    raise SystemExit("service-smoke FAILED: server did not report a port in time")


def score(client: ServiceClient) -> int:
    """Score synthetic traffic for the analysed NF; returns the window count."""
    job = client.score(
        NF, SCORE_TRAFFIC, config=CONFIG, num_packets=NUM_PACKETS, options=SCORE_OPTIONS
    )
    kinds: list[str] = []
    store_key = ""
    final: dict = {}
    for event in client.stream(job["job_id"]):
        kinds.append(event["event"])
        if event["event"] == "signatures":
            store_key = event["signatures"]["store_key"]
        elif event["event"] == "end":
            final = event["job"]
    windows = kinds.count("window")
    first_window = kinds.index("window") if windows else 0
    check(
        "signatures" in kinds[:first_window],
        f"score job streamed its signatures before {windows} window(s)",
    )
    check(final.get("state") == "done", "score job finished in state 'done'")
    check(store_key in client.signature_keys(), "GET /signatures lists the distilled set")
    return windows


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="repro-smoke-store-") as store:
        process, port = boot_server(store)
        try:
            client = ServiceClient(port=port, timeout=120.0)
            health = client.health()
            check(health["ok"], f"server healthy on port {port}")

            job = client.submit(NF, config=CONFIG, num_packets=NUM_PACKETS)
            check(not job["cached"], f"first submission of {NF} is not a cache hit")

            rounds = 0
            final: dict = {}
            for event in client.stream(job["job_id"]):
                if event["event"] == "round":
                    rounds += 1
                elif event["event"] == "end":
                    final = event["job"]
            check(rounds >= NUM_PACKETS, f"streamed {rounds} RoundStats events")
            check(final.get("state") == "done", "job finished in state 'done'")
            digest = final["result"]["result_digest"]

            before = client.health()
            hits, hits_ms = [], []
            for _ in range(HITS):
                hit_start = time.perf_counter()
                hits.append(client.submit(NF, config=CONFIG, num_packets=NUM_PACKETS))
                hits_ms.append((time.perf_counter() - hit_start) * 1e3)
            check(all(hit["cached"] for hit in hits), f"{HITS} resubmissions are cache hits")
            check(all(hit["state"] == "done" for hit in hits), "cache hits are born terminal")
            check(
                all(hit["result"]["result_digest"] == digest for hit in hits),
                "cached result digests match the fresh run",
            )

            after = client.health()
            reused = (after["requests"] - after["connections"]) - (
                before["requests"] - before["connections"]
            )
            check(reused >= HITS - 1, f"{HITS} resubmissions rode one connection ({reused})")
            for name in ("nf_identity", "config_address"):
                memo = after[name]
                check(
                    memo["misses"] == 1 and memo["hits"] >= HITS,
                    f"{name} memo: 1 miss, {memo['hits']} hit(s) ({memo})",
                )

            meta = client.result_meta(hits[-1]["job_id"])
            perf = meta["perf"]
            check(perf["states_per_sec"] > 0, "stored perf record has a throughput figure")
            check(len(client.store_keys()) == 1, "store holds exactly one entry")

            windows = score(client)
            print(
                f"service-smoke PASSED: {NF} x{NUM_PACKETS} packets, {rounds} rounds, "
                f"{perf['states_per_sec']:.0f} states/s, "
                f"cache hit in {statistics.median(hits_ms):.2f} ms (median of {HITS}), "
                f"digest {digest[:16]}…, {windows} score windows"
            )
        finally:
            process.terminate()
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

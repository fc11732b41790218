"""Stream-scorer throughput benchmark (trajectory-keeping).

Distills adversarial signatures from a smoke-scale ``nat-hash-table``
analysis, then measures how fast packets become verdicts:

* **vector** — :func:`repro.scoring.scorer.score_batch_columns` over
  pre-materialized columnar batches (the kernel alone; the acceptance
  floor of 1M packets/sec applies here, machine-calibration-normalized);
* **scalar** — :func:`repro.scoring.scorer.score_batch_fields` over a
  subsample (the reference tier; measured so a correctness-path regression
  is visible too);
* **pcap** — :func:`repro.scoring.jobs.run_score_job` from a capture file to
  the summary, against a warm store, one pass in each of a few fresh
  processes (best kept): the number a ``repro_score.py --pcap`` user gets.

Batch generation and the pcap write are *outside* the timed regions — the
benchmark measures scoring, not ``random_flow_columns`` or ``write_pcap``.
Every run also asserts the two tiers byte-agree on the first batch, so the
trajectory can never record a throughput number for a scorer that diverged
from its reference.

``BENCH_scorer.json`` holds a trajectory (one entry per PR, appended)::

    PYTHONPATH=src python benchmarks/bench_scorer.py \
        --out BENCH_scorer.json --label pr9-scorer

Gate a change against the committed baseline (the ``scorer-smoke`` CI
step; vector and pcap ratio vs the last entry plus an absolute vector
packets/sec floor, all normalized by the machine-calibration score)::

    PYTHONPATH=src python benchmarks/bench_scorer.py \
        --check BENCH_scorer.json --min-ratio 0.6 --min-pps 1000000

or run the smoke-sized pytest entry point::

    PYTHONPATH=src python -m pytest benchmarks/bench_scorer.py -q
"""

from __future__ import annotations

import argparse
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.config import CastanConfig  # noqa: E402
from repro.net.packet import Packet  # noqa: E402
from repro.net.pcap import write_pcap  # noqa: E402
from repro.nf.registry import get_nf  # noqa: E402
from repro.scoring.jobs import obtain_result, obtain_signatures, run_score_job  # noqa: E402
from repro.scoring.scorer import (  # noqa: E402
    ScorerOptions,
    score_batch_columns,
    score_batch_fields,
    verdict_bytes,
)
from repro.scoring.signatures import FIELD_ORDER  # noqa: E402
from repro.scoring.stream import random_flow_columns  # noqa: E402
from repro.service.store import ResultStore  # noqa: E402
from repro.symbex.expr import HAVE_NUMPY  # noqa: E402

#: The NF whose signatures the benchmark scores against: the hash-table NAT
#: distills both a hash-collision and a cache-set signature at smoke scale,
#: so the timed predicates include the unrolled 16-bit flow hash — the most
#: expensive predicate the distiller emits.
BENCH_NF = "nat-hash-table"

_SCALE_STATES = {"smoke": 40, "quick": 120, "full": 400}

#: Packets the analysis synthesizes; part of the store key the pcap children hit.
ANALYSIS_PACKETS = 3

#: Fresh processes the pcap block times one pass in (best kept).
PCAP_CHILDREN = 3

#: Scorer knobs of the pcap block, explicit so ``REPRO_SCORE_*`` never shape it.
PCAP_OPTIONS = {"batch_size": 8192, "window_size": 65536, "top_k": 5}


#: Iterations of the fixed calibration loop (arithmetic + dict writes).
_CALIBRATION_ITERS = 60_000


def calibrate_machine(rounds: int = 5) -> float:
    """Machine-speed score: iterations/sec of a fixed pure-Python loop.

    Stored with every trajectory entry so the gate can normalise packets/sec
    across machines (a CI runner is gated on *code* speed, not on being
    slower hardware than the machine that committed the baseline).
    Best-of-``rounds`` to shrug off scheduler noise.
    """
    best = 0.0
    for _ in range(rounds):
        sink: dict[int, int] = {}
        acc = 0
        start = time.perf_counter()
        for i in range(_CALIBRATION_ITERS):
            acc = (acc + i * 17) & 0xFFFFFFFF
            sink[i & 255] = acc
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, _CALIBRATION_ITERS / elapsed)
    return round(best, 1)


def _max_states() -> int:
    scale = os.environ.get("REPRO_EVAL_SCALE", "smoke").lower()
    return _SCALE_STATES.get(scale, _SCALE_STATES["smoke"])


def bench_config(max_states: int | None = None) -> CastanConfig:
    return CastanConfig(
        max_states=max_states if max_states is not None else _max_states(),
        deadline_seconds=None,
        search_mode="beam",
    )


def prepare_signatures(max_states: int | None = None, store=None):
    """Analyze the bench NF and distill its signatures (untimed setup).

    With a ``store`` both land there, which is what makes a later
    ``run_score_job`` against it pay for the traffic only.
    """
    nf = get_nf(BENCH_NF)
    config = bench_config(max_states)
    result = obtain_result(nf, config, ANALYSIS_PACKETS, store=store)
    signature_set = obtain_signatures(nf, result, config, store=store)
    if not signature_set.signatures:
        raise RuntimeError(
            f"distillation produced no signatures for {BENCH_NF} "
            f"(max_states={config.max_states}); nothing to benchmark"
        )
    return nf, signature_set


def columns_to_fields(columns) -> list[dict[str, int]]:
    """Per-packet field dicts of one columnar batch (scalar-tier input)."""
    return [dict(zip(FIELD_ORDER, flow)) for flow in _flows(columns)]


def _flows(columns):
    return zip(*(columns[name].tolist() for name in FIELD_ORDER))


def bench_scorer(
    signatures,
    nf,
    packets: int = 1_000_000,
    batch_size: int = 8192,
    scalar_packets: int = 16_384,
) -> dict:
    """Time both tiers over a pre-materialized synthetic stream."""
    if not HAVE_NUMPY:
        raise RuntimeError("the vector tier needs numpy (the [vector] extra)")
    rng = random.Random(0)
    batches = []
    remaining = packets
    while remaining > 0:
        size = min(batch_size, remaining)
        batches.append(random_flow_columns(nf, size, rng))
        remaining -= size

    # Warm the per-signature evaluator caches, then verify the tiers agree
    # on the first batch before timing anything.
    first = batches[0]
    vector_masks = score_batch_columns(signatures.signatures, first)
    scalar_masks = score_batch_fields(signatures.signatures, columns_to_fields(first))
    if verdict_bytes(vector_masks) != verdict_bytes(scalar_masks):
        raise RuntimeError("vector and scalar verdicts diverged; refusing to time")

    start = time.perf_counter()
    matched = 0
    for batch in batches:
        masks = score_batch_columns(signatures.signatures, batch)
        matched += int((masks != 0).sum())
    vector_wall = time.perf_counter() - start

    scalar_sample: list[dict] = []
    for batch in batches:
        scalar_sample.extend(columns_to_fields(batch))
        if len(scalar_sample) >= scalar_packets:
            scalar_sample = scalar_sample[:scalar_packets]
            break
    start = time.perf_counter()
    score_batch_fields(signatures.signatures, scalar_sample)
    scalar_wall = time.perf_counter() - start

    return {
        "signatures": len(signatures.signatures),
        "signature_labels": [s.label for s in signatures.signatures],
        "vector": {
            "packets": packets,
            "batch_size": batch_size,
            "wall_seconds": round(vector_wall, 4),
            "packets_per_second": round(packets / vector_wall, 1) if vector_wall else 0.0,
            "matched": matched,
        },
        "scalar": {
            "packets": len(scalar_sample),
            "wall_seconds": round(scalar_wall, 4),
            "packets_per_second": (
                round(len(scalar_sample) / scalar_wall, 1) if scalar_wall else 0.0
            ),
        },
        "verdicts_byte_identical": True,
    }


def write_traffic(nf, signature_set, packets: int, path: Path) -> None:
    """A seeded capture: in-class background plus 1 % signature-matching flows."""
    rng = random.Random(0)
    injected = max(1, packets // 100)
    matching = [flow for s in signature_set for flow in s.priming_flows] or [(0,) * 5]
    flows = list(_flows(random_flow_columns(nf, packets - injected, rng)))
    flows += (matching * (injected // len(matching) + 1))[:injected]
    rng.shuffle(flows)
    write_pcap(path, (Packet(*flow) for flow in flows))


def score_pcap_child(spec: dict) -> dict:
    """One ``run_score_job`` pass, file to summary (runs in a fresh process)."""
    store = ResultStore(spec["store"])
    start = time.perf_counter()
    summary = run_score_job(
        BENCH_NF,
        bench_config(spec["max_states"]),
        {"pcap_path": spec["pcap"]},
        num_packets=ANALYSIS_PACKETS,
        store=store,
        options=ScorerOptions(**PCAP_OPTIONS),
    )
    wall = time.perf_counter() - start
    return {
        "wall_seconds": wall,
        **{key: summary[key] for key in ("packets", "matched", "frames_skipped")},
    }


def bench_pcap(signatures, nf, store, max_states: int, packets: int = 200_000) -> dict:
    """Time ``run_score_job`` over a seeded pcap, one pass per fresh process.

    ``store`` must already hold the analysis and ``signatures`` (see
    :func:`prepare_signatures`), so a pass pays for the traffic only.
    """
    with tempfile.TemporaryDirectory(prefix="bench-scorer-pcap-") as scratch:
        pcap = Path(scratch) / "traffic.pcap"
        write_traffic(nf, signatures, packets, pcap)
        spec = {"store": str(store.root), "pcap": str(pcap), "max_states": max_states}
        command = [sys.executable, __file__, "--score-pcap-child", json.dumps(spec)]
        passes = []
        for _ in range(PCAP_CHILDREN):
            done = subprocess.run(command, capture_output=True, text=True, check=True)
            passes.append(json.loads(done.stdout.splitlines()[-1]))
    best = min(passes, key=lambda one: one["wall_seconds"])
    if any(one["packets"] != packets or one["matched"] != best["matched"] for one in passes):
        raise RuntimeError(f"pcap passes disagree or lost packets: {passes}")
    return {
        "packets": packets,
        "batch_size": PCAP_OPTIONS["batch_size"],
        "wall_seconds": round(best["wall_seconds"], 4),
        "packets_per_second": round(packets / best["wall_seconds"], 1),
        "matched": best["matched"],
        "frames_skipped": best["frames_skipped"],
    }


def run_benchmark(
    packets: int = 1_000_000,
    batch_size: int = 8192,
    max_states: int | None = None,
    label: str | None = None,
    pcap_packets: int = 200_000,
) -> dict:
    max_states = bench_config(max_states).max_states  # the children need the resolved value
    with tempfile.TemporaryDirectory(prefix="bench-scorer-") as scratch:
        store = ResultStore(scratch)
        nf, signature_set = prepare_signatures(max_states, store=store)
        record = bench_scorer(signature_set, nf, packets=packets, batch_size=batch_size)
        record["pcap"] = bench_pcap(signature_set, nf, store, max_states, pcap_packets)
    entry = {
        "label": label or "current",
        "nf": BENCH_NF,
        "scale": os.environ.get("REPRO_EVAL_SCALE", "smoke").lower(),
        "machine_calibration": calibrate_machine(),
        **record,
    }
    print(
        f"{BENCH_NF}: {record['signatures']} signature(s); vector "
        f"{record['vector']['packets_per_second']:,.0f} pkts/s "
        f"({record['vector']['packets']} packets, "
        f"{record['vector']['wall_seconds']:.2f}s, "
        f"{record['vector']['matched']} matched), scalar "
        f"{record['scalar']['packets_per_second']:,.0f} pkts/s, pcap file -> summary "
        f"{record['pcap']['packets_per_second']:,.0f} pkts/s "
        f"({record['pcap']['packets']} packets, {record['pcap']['wall_seconds']:.2f}s)"
    )
    return entry


# -- trajectory file handling --------------------------------------------------


def load_trajectory(path: Path) -> dict:
    return json.loads(path.read_text())


def append_entry(path: Path, entry: dict) -> dict:
    if path.exists():
        data = load_trajectory(path)
    else:
        data = {"benchmark": "bench_scorer", "trajectory": []}
    data["trajectory"].append(entry)
    path.write_text(json.dumps(data, indent=2) + "\n")
    return data


def check_against_baseline(
    path: Path, entry: dict, min_ratio: float, min_pps: float
) -> int:
    """Gate ``entry`` on the committed trajectory.

    Machine-calibration-normalized, so the gate measures the code rather
    than the runner hardware:

    * **ratio** — vector *and* pcap (file → summary) packets/sec must each
      stay within ``min_ratio`` of the last committed entry;
    * **floor** — vector packets/sec must clear ``min_pps`` outright
      (scaled to the baseline machine when both calibrations are present).
    """
    data = load_trajectory(path)
    if not data.get("trajectory"):
        print(f"{path} has no trajectory entries; nothing to compare against")
        return 1
    baseline = data["trajectory"][-1]
    base_cal = baseline.get("machine_calibration")
    current_cal = entry.get("machine_calibration")
    scale = 1.0
    note = "raw — missing machine calibration"
    if base_cal and current_cal:
        scale = base_cal / current_cal
        note = (
            f"normalised by machine calibration {current_cal:.0f} vs "
            f"baseline {base_cal:.0f} it/s"
        )
    status = 0
    for block, floor in (("vector", min_pps), ("pcap", 0.0)):
        base_pps = baseline[block]["packets_per_second"]
        current_pps = entry[block]["packets_per_second"]
        normalized_pps = current_pps * scale
        ratio = normalized_pps / base_pps if base_pps else float("inf")
        print(
            f"{block}: baseline {base_pps:,.0f} pkts/s "
            f"({baseline.get('label')}), current {current_pps:,.0f} pkts/s "
            f"-> {normalized_pps:,.0f} normalized ({note}); "
            f"ratio {ratio:.2f} (floor {min_ratio:.2f})"
            + (f", absolute floor {floor:,.0f} pkts/s" if floor else "")
        )
        if ratio < min_ratio:
            print(
                f"PERF REGRESSION: {block} throughput dropped more than "
                f"{(1 - min_ratio) * 100:.0f}% below the committed baseline"
            )
            status = 1
        if normalized_pps < floor:
            print(
                f"PERF FLOOR MISS: {block} {normalized_pps:,.0f} normalized pkts/s is "
                f"below the {floor:,.0f} floor"
            )
            status = 1
    if status == 0:
        print("scorer perf gate passed")
    return status


# -- pytest entry point (smoke-sized sanity run) -------------------------------


def test_scorer_bench_smoke():
    """The bench pipeline runs end to end and the tiers byte-agree."""
    import pytest

    if not HAVE_NUMPY:
        pytest.skip("vector tier needs numpy")
    record = run_benchmark(packets=50_000, max_states=40, pcap_packets=20_000)
    assert record["signatures"] > 0
    assert record["vector"]["packets_per_second"] > 0
    assert record["verdicts_byte_identical"]
    assert record["pcap"]["packets_per_second"] > 0
    assert record["pcap"]["matched"] > 0 and record["pcap"]["frames_skipped"] == 0


# -- CLI ----------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--packets", type=int, default=1_000_000,
        help="synthetic packets to score through the vector tier",
    )
    parser.add_argument("--batch", type=int, default=8192, help="columnar batch size")
    parser.add_argument(
        "--pcap-packets", type=int, default=200_000,
        help="packets of the capture scored file -> summary",
    )
    parser.add_argument("--score-pcap-child", default=None, help=argparse.SUPPRESS)
    parser.add_argument(
        "--max-states", type=int, default=None, help="analysis exploration budget"
    )
    parser.add_argument("--label", default=None, help="trajectory entry label")
    parser.add_argument(
        "--out", default=None, help="append this run to the trajectory file"
    )
    parser.add_argument(
        "--check", default=None,
        help="gate this run against the trajectory file's last entry",
    )
    parser.add_argument(
        "--min-ratio", type=float, default=0.6,
        help="minimum current/baseline packets/sec ratio (default 0.6)",
    )
    parser.add_argument(
        "--min-pps", type=float, default=1_000_000,
        help="absolute vector-tier packets/sec floor (default 1M)",
    )
    args = parser.parse_args(argv)
    if args.score_pcap_child:
        print(json.dumps(score_pcap_child(json.loads(args.score_pcap_child))))
        return 0

    entry = run_benchmark(
        packets=args.packets,
        batch_size=args.batch,
        max_states=args.max_states,
        label=args.label,
        pcap_packets=args.pcap_packets,
    )
    status = 0
    if args.check:
        status = check_against_baseline(
            Path(args.check), entry, args.min_ratio, args.min_pps
        )
    if args.out:
        append_entry(Path(args.out), entry)
        print(f"appended trajectory entry {entry['label']!r} to {args.out}")
    if not args.check and not args.out:
        json.dump(entry, sys.stdout, indent=2)
        print()
    return status


if __name__ == "__main__":
    raise SystemExit(main())

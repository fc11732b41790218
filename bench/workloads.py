"""The four workloads, driven by one harness process.

Every workload is a loop of *reps*; a rep starts fresh processes that do
set-up, then the workload's operation cold, then the same operation warm:

================  =========================  ==========================  =====================
workload          set-up                     cold                        warm
================  =========================  ==========================  =====================
``analyze_*``     import + ``get_nf``        first ``Castan.analyze``    second ``analyze``,
                                                                         same process
``service_jobs``  server spawn → healthy     submit → ``end``, store     resubmission served
                                             miss                        from the store
``score_pcap``    analysis + distill into    first ``run_score_job``     later passes, same
                  a fresh store              of a fresh process          process
================  =========================  ==========================  =====================

Every NF/job is timed once per rep; a run reports, per metric, the sum over
the workload's NFs/jobs of each one's best (minimum) over reps.  On a shared
box interference only ever adds time, and it arrives in bursts that hit one
sample in a few: over ten runs the best of two reps spread 5-17 % where
their mean spread 8-25 %.  The raw samples are all in the result file.  All
load comes from this process driving one child or one in-flight job at a
time.  Configs are passed explicitly; no ``REPRO_*`` knob is read and none
reaches a child.
"""

from __future__ import annotations

import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from repro.cache.hierarchy import MemoryHierarchy
from repro.core.config import CastanConfig
from repro.net.packet import Packet
from repro.net.pcap import read_pcap, write_pcap
from repro.nf.registry import get_nf
from repro.perf.interpreter import ConcreteInterpreter, ExecutionError
from repro.scoring.signatures import FIELD_ORDER
from repro.service.client import ServiceClient, ServiceError
from repro.service.store import ResultStore
from repro.symbex.expr import HAVE_NUMPY
from repro.testbed.measure import measure_latency
from repro.workloads.generators import make_castan_workload, make_unirand_castan_workload

ROOT = Path(__file__).resolve().parent.parent

#: An operation that takes longer than this has failed.
OP_TIMEOUT = 120.0
BOOT_TIMEOUT = 30.0

HASH_NFS = ("lb-hash-table", "nat-hash-ring", "policer-two-choice", "dedup-bloom")
TREE_NFS = ("lb-unbalanced-tree", "lb-red-black-tree", "nat-unbalanced-tree", "nat-red-black-tree")
SERVICE_NFS = (
    "lpm-patricia",
    "lpm-dpdk",
    "dpi-trie",
    "fw-conntrack",
    "chain-gateway",
    "chain-edge",
    "lb-hash-table",
)
SCORE_NF = "nat-hash-table"
#: Explicit, so ``REPRO_SCORE_*`` never decides the scorer's shape.
SCORER_OPTIONS = {"batch_size": 8192, "window_size": 65536, "top_k": 5}


@dataclass(frozen=True)
class Scale:
    """How much work one rep does, and how many reps at least."""

    analyze: dict  # CastanConfig overrides of the analyze_* children
    service: dict  # ... of the service jobs ({}: the default max_states=2000)
    score: dict  # ... of the analysis the scorer's signatures come from
    pcap_packets: int
    score_children: int  # fresh scoring processes per rep, each 1 cold + warm_passes passes
    warm_passes: int
    resubmits: int
    replay_packets: int
    nf_limit: int | None
    min_reps: dict  # workload -> reps a run does at least


#: To fit two reps of every NF in a run the analyze_* workloads halve the
#: default exploration budget instead of dropping NFs.  Where the time cap
#: allows, more samples: the best of more is what steadies a run on a shared box.
FULL = Scale(
    analyze={"max_states": 1000},
    service={},
    score={"max_states": 400},
    pcap_packets=100_000,
    score_children=2,
    warm_passes=2,
    resubmits=30,
    replay_packets=500,
    nf_limit=None,
    min_reps={"analyze_hash": 2, "analyze_tree": 3, "service_jobs": 2, "score_pcap": 2},
)
_TINY = {"max_states": 60, "rainbow_chains": 256}
SMOKE = Scale(
    analyze=_TINY,
    service=_TINY,
    score=_TINY,
    pcap_packets=2000,
    score_children=1,
    warm_passes=1,
    resubmits=3,
    replay_packets=100,
    nf_limit=2,
    min_reps={},
)


class Run:
    """One benchmark run: operation accounting, raw samples, time budget."""

    def __init__(
        self, workload: str, seed: int, seconds: float, trace: bool, scale: Scale, workdir: Path
    ):
        self.min_reps = scale.min_reps.get(workload, 1)
        self.seconds = seconds
        self.trace = trace
        self.scale = scale
        self.workdir = workdir
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failures: dict[str, str] = {}
        self.samples: dict[str, list] = {}
        #: metric -> NF/job -> its timings over the untraced reps.
        self.times: dict[str, dict[str, list[float]]] = {"setup_s": {}, "cold_s": {}, "warm_s": {}}
        self.reps = 0
        self.started = time.monotonic()
        #: Seconds of harness work (replays, input generation) inside reps.
        self.aside_s = 0.0
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        self.env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
        # Children must not differ by string-hash seed: same inputs, same work.
        self.env["PYTHONHASHSEED"] = "0"

    # -- operations -----------------------------------------------------------

    def begin(self, op: str) -> str:
        self.attempted += 1
        return op

    def fail(self, op: str, reason: str) -> None:
        self.failures.setdefault(op, reason)

    def check(self, op: str, ok: bool, what: str) -> None:
        if not ok:
            self.fail(op, f"output check failed: {what}")

    def sample(self, name: str, value) -> None:
        self.samples.setdefault(name, []).append(value)

    def time(self, metric: str, item: str, seconds: float) -> None:
        self.times[metric].setdefault(item, []).append(seconds)

    def nfs(self, names: tuple[str, ...]) -> list[str]:
        """This rep's NFs in seeded order, so drift spreads over them."""
        chosen = list(names[: self.scale.nf_limit])
        self.rng.shuffle(chosen)
        return chosen

    def another_rep(self) -> bool:
        """Start another rep only if it is expected to end within the budget."""
        self.reps += 1
        if self.trace:
            return self.reps < 2  # one untraced rep, then one traced
        if self.reps < self.min_reps:
            return True
        elapsed = time.monotonic() - self.started
        return elapsed + (elapsed - self.aside_s) / self.reps <= self.seconds

    @property
    def tracing_now(self) -> bool:
        return self.trace and self.reps == 1

    def child(self, op: str, kind: str, args: dict) -> dict | None:
        """Run one :mod:`bench.child` operation; ``None`` if it failed."""
        spawned = time.monotonic()
        command = [sys.executable, "-m", "bench.child", kind, json.dumps(args)]
        try:
            done = subprocess.run(
                command, env=self.env, capture_output=True, text=True, timeout=OP_TIMEOUT
            )
        except subprocess.TimeoutExpired as exc:
            self.fail(op, f"timeout after {OP_TIMEOUT}s; stderr: {str(exc.stderr)[-2000:]}")
            return None
        lines = done.stdout.splitlines()
        if done.returncode != 0 or len(lines) != 1:
            self.fail(
                op,
                f"exit {done.returncode}, {len(lines)} stdout lines; stderr: {done.stderr[-2000:]}",
            )
            return None
        out = json.loads(lines[0])
        out["setup_s"] = out["ready_at"] - spawned
        return out


# -- quality: replay on the independent reference ----------------------------------


def replay_quality(run: Run, op: str, nf_name: str, described: dict, config: dict) -> dict | None:
    """Replay one synthesized workload; ``None`` (and a failed op) if it breaks.

    ``gain`` is the median replayed cycles/packet of the workload over that
    of same-size uniform-random traffic on a cold DUT; ``error`` is how far a
    single cold-cache pass is from the analysis's predicted cost, as
    max(r, 1/r).  The packets must also survive a pcap round trip.
    """
    began = perf_counter()
    nf = get_nf(nf_name)
    packets = [Packet(*flow) for flow in described["packets"]]
    path = run.workdir / "roundtrip.pcap"
    write_pcap(path, packets)
    run.check(
        op,
        [p.flow_tuple for p in read_pcap(path, strict=True)] == [p.flow_tuple for p in packets],
        "packets changed in a write_pcap/read_pcap round trip",
    )
    replay = run.scale.replay_packets
    settings = CastanConfig.from_dict(config)
    try:
        start = perf_counter()
        castan = measure_latency(nf, make_castan_workload(packets), replay_packets=replay)
        unirand = measure_latency(
            nf, make_unirand_castan_workload(nf, len(packets)), replay_packets=replay
        )
        wall = perf_counter() - start
        reference = ConcreteInterpreter(
            nf.module,
            nf.entry,
            hierarchy=MemoryHierarchy(settings.hierarchy, cycle_costs=settings.cycle_costs),
            cycle_costs=settings.cycle_costs,
        )
        replayed = reference.process_packets(packets).total_cycles
    except ExecutionError as exc:
        run.fail(op, f"replay raised {exc!r}")
        return None
    finally:
        run.aside_s += perf_counter() - began
    ratio = replayed / described["best_state_cost"]
    return {
        "gain": castan.cycles.median / unirand.cycles.median,
        "error": max(ratio, 1.0 / ratio),
        "replay_pkts_per_s": 2 * replay / wall,
    }


def end_to_end(run: Run, items: int, qualities: list[dict]) -> dict:
    """The run's end-to-end metrics; needs a timing of each of ``items`` NFs/jobs."""
    timed = min(len(run.times["cold_s"]), len(run.times["warm_s"]))
    if timed < items or not run.times["setup_s"] or not qualities:
        raise SystemExit(f"no complete set of timings: {run.failures}")
    out = {
        metric: sum(min(values) for values in by_item.values())
        for metric, by_item in run.times.items()
    }
    # Largest process any rep started (children are waited for, so the
    # kernel has folded their and their workers' peaks in).
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    out["adv_gain"] = statistics.geometric_mean(q["gain"] for q in qualities)
    out["prediction_error"] = statistics.geometric_mean(q["error"] for q in qualities)
    return out


# -- per-layer numbers from traced children ----------------------------------------


def analysis_layers(children: list[dict], qualities: list[dict]) -> dict:
    """Per-layer metrics of the cold analyses of one traced rep."""
    seconds: Counter = Counter()
    calls: Counter = Counter()
    context: Counter = Counter()
    rainbow: Counter = Counter()
    for child in children:
        trace = child["cold"]["trace"]
        for layer, row in trace["layers"].items():
            seconds[layer] += row["self_s"]
            calls[layer] += row["calls"]
        context.update(trace["context"])
        rainbow.update(trace["rainbow"])
    colds = [child["cold"] for child in children]
    states = sum(cold["states_explored"] for cold in colds)
    reconciled = sum(cold["havocs_reconciled"] for cold in colds)
    failed = sum(cold["havocs_failed"] for cold in colds)
    busy = sum(
        seconds[layer]
        for layer in (
            "symbex.search_self",
            "symbex.solver_query",
            "symbex.solver_propagate",
            "cache.on_access",
        )
    )
    out = {f"{layer}_s": value for layer, value in seconds.items()}
    out.update(
        {
            "nf.build_s": sum(child["nf_build_s"] for child in children),
            "cache.on_access_calls": calls["cache.on_access"],
            "cache.predicted_dram_accesses": sum(c["predicted_dram_accesses"] for c in colds),
            "symbex.states_explored": states,
            "symbex.forks": sum(cold["forks"] for cold in colds),
            "symbex.instructions": sum(cold["trace"]["instructions"] for cold in colds),
            "symbex.search_states_per_s": states / busy if busy else 0.0,
            "symbex.solver_queries": calls["symbex.solver_query"],
            "symbex.solver_memo_hit_share": context["memo_hits"] / max(1, context["queries"]),
            "symbex.slow_path_checks": context["slow_path_checks"],
            "symbex.solver_adds": calls["symbex.solver_propagate"],
            "symbex.wave_replay_share": context["wave_replays"] / max(1, context["adds"]),
            "symbex.final_solve_calls": calls["symbex.final_solve"],
            "symbex.solved_share": sum(c["solver_status"] == "sat" for c in colds) / len(colds),
            "symbex.havocs_reconciled": reconciled,
            "symbex.havocs_failed": failed,
            "symbex.reconciled_share": reconciled / max(1, reconciled + failed),
            "hashing.rainbow_lookups": rainbow["lookups"],
            "hashing.rainbow_chain_walks": rainbow["chain_walks"],
            "hashing.rainbow_false_alarms": rainbow["false_alarms"],
            "perf.replay_pkts_per_s": statistics.median(q["replay_pkts_per_s"] for q in qualities),
        }
    )
    return out


# -- analyze_hash / analyze_tree -----------------------------------------------------


def run_analyze(run: Run, names: tuple[str, ...]) -> tuple[dict, dict]:
    """Per rep and NF one fresh child: import → get_nf → cold → warm analyze."""
    config = {"deadline_seconds": None, **run.scale.analyze}
    first: dict[str, dict] = {}
    qualities: list[dict] = []
    walls = {False: 0.0, True: 0.0}  # tracing? -> cold + warm seconds of one rep
    traced: list[dict] = []
    while True:
        tracing = run.tracing_now
        for nf in run.nfs(names):
            op = run.begin(f"rep{run.reps}:{nf}")
            out = run.child(op, "analyze", {"nf": nf, "config": config, "trace": tracing})
            if out is None:
                continue
            cold, warm = out["cold"], out["warm"]
            run.check(
                op, cold["result_digest"] == warm["result_digest"], "cold and warm results differ"
            )
            if nf not in first:
                first[nf] = cold
                quality = replay_quality(run, op, nf, cold, config)
                if quality is not None:
                    qualities.append(quality)
            run.check(
                op,
                cold["result_digest"] == first[nf]["result_digest"],
                "result differs across reps",
            )
            if tracing:
                traced.append(out)
            else:
                run.time("setup_s", nf, out["setup_s"])
                run.time("cold_s", nf, cold["wall_s"])
                run.time("warm_s", nf, warm["wall_s"])
                run.sample(f"{nf}.rss_mb", out["rss_mb"])
            if run.trace:
                walls[tracing] += cold["wall_s"] + warm["wall_s"]
        if not run.another_rep():
            break
    layers = {}
    if traced:
        layers = analysis_layers(traced, qualities)
        layers["trace.unattributed_share"] = max(
            child[label]["trace"]["unattributed_share"]
            for child in traced
            for label in ("cold", "warm")
        )
        layers["trace.overhead_share"] = walls[True] / walls[False] - 1.0
    return end_to_end(run, len(first), qualities), layers


# -- service_jobs ----------------------------------------------------------------------


def stop_server(process: subprocess.Popen) -> None:
    """Terminate the server's whole process group and wait for it."""
    for sig in (signal.SIGTERM, signal.SIGKILL):
        try:
            os.killpg(process.pid, sig)
        except ProcessLookupError:
            pass
        try:
            process.wait(timeout=10)
            break
        except subprocess.TimeoutExpired:
            continue
    process.stdout.close()


def service_job(run: Run, client, number: int, nf: str, config: dict, first: dict) -> dict | None:
    """Submit one job, stream it to ``end``, then resubmit it; ``None`` on failure."""
    op = run.begin(f"pass{number}:{nf}:miss")
    try:
        start = perf_counter()
        job = client.submit(nf, config=config)
        submit_s = perf_counter() - start
        rounds, final = 0, None
        for event in client.stream(job["job_id"]):
            if event["event"] == "round":
                rounds += 1
            elif event["event"] == "end":
                final = event["job"]
        miss_s = perf_counter() - start
        run.check(op, not job["cached"], "first submission was a store hit")
        if final["state"] != "done":
            run.fail(op, f"job ended {final['state']}: {final['error']}")
            return None
        summary = final["result"]
        run.check(
            op,
            summary["result_digest"] == first.setdefault(nf, summary)["result_digest"],
            "result differs across passes",
        )
        hits_s = []
        for index in range(run.scale.resubmits):
            hit = run.begin(f"pass{number}:{nf}:hit{index}")
            start = perf_counter()
            again = client.submit(nf, config=config)
            hits_s.append(perf_counter() - start)
            run.check(hit, again["cached"] and again["state"] == "done", "not born terminal")
            run.check(
                hit,
                again["result"]["result_digest"] == summary["result_digest"],
                "store hit digest != miss digest",
            )
    except (ServiceError, OSError) as exc:
        run.fail(op, repr(exc))
        return None
    run.sample(f"{nf}.miss_s", miss_s)
    run.sample(f"{nf}.hit_ms", [hit * 1e3 for hit in hits_s])
    run.sample("submit_ms", submit_s * 1e3)
    run.sample("round_events", rounds)
    # The worker's own analysis wall comes back in the job's perf record.
    run.sample("overhead_s", miss_s - final["perf"]["wall_seconds"])
    run.sample("hit_payload_kb", len(json.dumps(again)) / 1024)
    return {
        "op": op,
        "miss_s": miss_s,
        "hits_s": hits_s,
        "key": job["cache_key"],
        "job_id": job["job_id"],
    }


def run_service(run: Run) -> tuple[dict, dict]:
    """Per pass: fresh store + server; each NF submitted once, then resubmitted."""
    config = {"deadline_seconds": None, "search_mode": "beam", **run.scale.service}
    jobs = SERVICE_NFS[: run.scale.nf_limit]
    first: dict[str, dict] = {}
    qualities: list[dict] = []
    results = {}
    while True:
        number = run.reps
        op = run.begin(f"pass{number}:boot")
        spawned = perf_counter()
        with open(run.workdir / f"server{number}.log", "w") as log:
            server = subprocess.Popen(
                [
                    sys.executable,
                    "-m",
                    "repro.service",
                    "--port",
                    "0",
                    "--store",
                    str(run.workdir / f"store{number}"),
                ],
                env={**run.env, "PYTHONUNBUFFERED": "1"},
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
                start_new_session=True,
            )
        try:
            ready, _, _ = select.select([server.stdout], [], [], BOOT_TIMEOUT)
            line = server.stdout.readline() if ready else ""
            if "listening on http://" not in line:
                run.fail(op, f"server did not report a port: {line!r}")
                break
            port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
            client = ServiceClient(port=port, timeout=OP_TIMEOUT)
            run.check(op, client.health()["ok"], "server not healthy")
            run.time("setup_s", "boot", perf_counter() - spawned)
            for nf in run.nfs(jobs):
                outcome = service_job(run, client, number, nf, config, first)
                if outcome is None:
                    continue
                run.time("cold_s", nf, outcome["miss_s"])
                for hit_s in outcome["hits_s"]:
                    run.time("warm_s", nf, hit_s)
                if number == 0:
                    quality = replay_quality(run, outcome["op"], nf, first[nf], config)
                    if quality is not None:
                        qualities.append(quality)
                    if run.trace:
                        results[nf] = (outcome["key"], client.result(outcome["job_id"]))
        except (ServiceError, OSError) as exc:
            run.fail(op, repr(exc))
        finally:
            stop_server(server)
        if not run.another_rep():
            break
    layers = {}
    if run.trace:
        # The server's workers cannot be wrapped from here, so the layer
        # breakdown comes from one traced in-process analysis per job, with
        # the job's own NF and config.
        traced = []
        for nf in jobs:
            op = run.begin(f"traced:{nf}")
            out = run.child(op, "analyze", {"nf": nf, "config": config, "trace": True})
            if out is not None:
                traced.append(out)
        layers = analysis_layers(traced, qualities)
        layers["trace.unattributed_share"] = max(
            child["cold"]["trace"]["unattributed_share"] for child in traced
        )
        scratch = ResultStore(run.workdir / "scratch-store")
        puts, gets = [], []
        for key, result in results.values():
            start = perf_counter()
            scratch.put(key, result)
            puts.append(perf_counter() - start)
            start = perf_counter()
            scratch.get(key)
            gets.append(perf_counter() - start)
        layers.update(
            {
                "service.boot_s": statistics.median(run.times["setup_s"]["boot"]),
                "service.submit_ms": statistics.median(run.samples["submit_ms"]),
                "service.round_events": sum(run.samples["round_events"]) / run.reps,
                "service.overhead_s": sum(run.samples["overhead_s"]) / run.reps,
                "service.store_put_ms": statistics.median(puts) * 1e3,
                "service.store_get_ms": statistics.median(gets) * 1e3,
                "service.hit_payload_kb": statistics.mean(run.samples["hit_payload_kb"]),
            }
        )
    return end_to_end(run, len(jobs), qualities), layers


# -- score_pcap ------------------------------------------------------------------------


def write_traffic(run: Run, adversarial: list[Packet], path: Path) -> float:
    """Seeded background traffic with the synthesized packets as 1 % of it."""
    from repro.scoring.stream import random_flow_columns

    began = perf_counter()
    total = run.scale.pcap_packets
    injected = max(1, total // 100)
    columns = random_flow_columns(get_nf(SCORE_NF), total - injected, run.rng)
    packets = [Packet(*flow) for flow in zip(*(columns[name].tolist() for name in FIELD_ORDER))]
    packets += (adversarial * (injected // len(adversarial) + 1))[:injected]
    run.rng.shuffle(packets)
    start = perf_counter()
    write_pcap(path, packets)
    write_s = perf_counter() - start
    run.aside_s += perf_counter() - began
    return write_s


def run_score(run: Run) -> tuple[dict, dict]:
    """Per rep: warm a fresh store in one child, score the pcap in fresh others."""
    config = {"deadline_seconds": None, **run.scale.score}
    pcap = run.workdir / "traffic.pcap"
    packets = run.scale.pcap_packets
    qualities: list[dict] = []
    first = None
    matched: set[int] = set()
    traced_passes: list[dict] = []
    layers: dict = {}
    write_s = 0.0
    while True:
        tracing = run.tracing_now
        op = run.begin(f"rep{run.reps}:setup")
        store = str(run.workdir / f"store{run.reps}")
        common = {"nf": SCORE_NF, "config": config, "store": store, "trace": tracing}
        if not HAVE_NUMPY:
            run.fail(op, "score_pcap needs numpy: the scalar tier is not what it measures")
            break
        setup = run.child(op, "score_setup", common)
        if setup is None:
            break
        if first is None:
            first = setup["cold"]
            quality = replay_quality(run, op, SCORE_NF, first, config)
            if quality is not None:
                qualities.append(quality)
            write_s = write_traffic(run, [Packet(*flow) for flow in first["packets"]], pcap)
        run.check(
            op,
            setup["cold"]["result_digest"] == first["result_digest"],
            "result differs across reps",
        )
        if not tracing:
            run.time("setup_s", "score", setup["setup_s"])
        passes = 1 + run.scale.warm_passes
        for number in range(run.scale.score_children):
            op = run.begin(f"rep{run.reps}:score{number}")
            # Each pass is an operation; the child completes all of them or none.
            run.attempted += passes - 1
            scored = run.child(
                op,
                "score",
                {
                    **common,
                    "pcap": str(pcap),
                    "passes": passes,
                    "options": SCORER_OPTIONS,
                    "check_packets": SCORER_OPTIONS["batch_size"],
                },
            )
            if scored is None:
                continue
            walls = [one["wall_s"] for one in scored["passes"]]
            run.check(op, scored["verdicts_equal"], "vector verdicts != scalar reference")
            run.check(
                op,
                all(one["packets"] == packets for one in scored["passes"]),
                "scorer did not see every packet written",
            )
            matched.update(one["matched"] for one in scored["passes"])
            run.check(op, len(matched) == 1, "matched differs across passes")
            if tracing:
                traced_passes.extend(scored["passes"][1:])
            else:
                run.time("cold_s", "score", walls[0])
                for wall in walls[1:]:
                    run.time("warm_s", "score", wall)
        if tracing and traced_passes:
            best = min(traced_passes, key=lambda one: one["wall_s"])
            untraced = min(run.times["warm_s"]["score"])
            layers = analysis_layers([setup], qualities)
            for layer, row in best["trace"]["layers"].items():
                layers[f"{layer}_s"] = row["self_s"]
            layers.update(
                {
                    "scoring.distill_s": setup["distill_s"],
                    "scoring.signatures": best["signatures"],
                    "scoring.matched_packets": best["matched"],
                    "scoring.pcap_pkts_per_s": packets / untraced,
                    "scoring.kernel_pkts_per_s": packets / layers["scoring.kernel_s"],
                    "net.pcap_parse_pkts_per_s": packets / layers["net.pcap_parse_s"],
                    "net.pcap_write_pkts_per_s": packets / write_s,
                    "trace.unattributed_share": setup["cold"]["trace"]["unattributed_share"],
                    "trace.overhead_share": best["wall_s"] / untraced - 1.0,
                }
            )
        if not run.another_rep():
            break
    return end_to_end(run, 1, qualities), layers


WORKLOADS = {
    "analyze_hash": lambda run: run_analyze(run, HASH_NFS),
    "analyze_tree": lambda run: run_analyze(run, TREE_NFS),
    "service_jobs": run_service,
    "score_pcap": run_score,
}

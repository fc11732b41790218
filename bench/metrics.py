"""The benchmark's declared surface: workloads and metric names.

``BENCHMARK.json`` at the repository root is :func:`manifest` written out;
``bench/test_bench.py`` holds the two equal.  Every workload reports every
end-to-end metric (``--trace 0``) and every per-layer metric (``--trace 1``);
a per-layer metric a workload has no use for reads 0.
"""

from __future__ import annotations

RUN_SECONDS = 20

#: name -> why it is here (one line, <= 200 characters).
WORKLOADS = {
    "analyze_hash": (
        "Havoc-heavy hash NFs, cold then warm in a fresh process: solver feasibility queries "
        "from cache probing, the rainbow build and reconciliation dominate."
    ),
    "analyze_tree": (
        "The paper's algorithmic-complexity tree NFs: no havocs, no rainbow table; engine "
        "stepping plus a final model solve that exhausts its budget. Rainbow/probing work moves nothing."
    ),
    "service_jobs": (
        "Start-up-dominated NFs through a real server in beam mode, then store hits: spawn, "
        "lease, stream and store overhead, and symbex via the round scheduler."
    ),
    "score_pcap": (
        "A seeded 100k-packet pcap scored file-to-summary against a warm store: pcap parsing, "
        "column conversion and the expr column evaluator, with no search at all."
    ),
}

#: (name, unit, better, bound).  What each means per workload is in README.md.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("cold_s", "s", "lower", 0.25),
    ("warm_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
    ("adv_gain", "ratio", "higher", 0.05),
    ("prediction_error", "ratio", "lower", 0.05),
)

#: (name, unit, better).
PER_LAYER = (
    ("nf.build_s", "s", "lower"),
    ("cfg.annotate_s", "s", "lower"),
    ("cache.contention_sets_s", "s", "lower"),
    ("cache.on_access_s", "s", "lower"),
    ("cache.on_access_calls", "count", "lower"),
    ("cache.predicted_dram_accesses", "count", "higher"),
    ("symbex.search_self_s", "s", "lower"),
    ("symbex.states_explored", "count", "lower"),
    ("symbex.forks", "count", "lower"),
    ("symbex.instructions", "count", "lower"),
    ("symbex.search_states_per_s", "1/s", "higher"),
    ("symbex.solver_query_s", "s", "lower"),
    ("symbex.solver_queries", "count", "lower"),
    ("symbex.solver_memo_hit_share", "ratio", "higher"),
    ("symbex.slow_path_checks", "count", "lower"),
    ("symbex.solver_propagate_s", "s", "lower"),
    ("symbex.solver_adds", "count", "lower"),
    ("symbex.wave_replay_share", "ratio", "higher"),
    ("symbex.final_solve_s", "s", "lower"),
    ("symbex.final_solve_calls", "count", "lower"),
    ("symbex.solved_share", "ratio", "higher"),
    ("symbex.reconcile_s", "s", "lower"),
    ("symbex.havocs_reconciled", "count", "higher"),
    ("symbex.havocs_failed", "count", "lower"),
    ("symbex.reconciled_share", "ratio", "higher"),
    ("hashing.rainbow_build_s", "s", "lower"),
    ("hashing.rainbow_lookups", "count", "lower"),
    ("hashing.rainbow_chain_walks", "count", "lower"),
    ("hashing.rainbow_false_alarms", "count", "lower"),
    ("core.materialise_s", "s", "lower"),
    ("perf.replay_pkts_per_s", "pkts/s", "higher"),
    ("net.pcap_parse_s", "s", "lower"),
    ("net.pcap_parse_pkts_per_s", "pkts/s", "higher"),
    ("net.pcap_write_pkts_per_s", "pkts/s", "higher"),
    ("scoring.to_columns_s", "s", "lower"),
    ("scoring.kernel_s", "s", "lower"),
    ("scoring.kernel_pkts_per_s", "pkts/s", "higher"),
    ("scoring.pcap_pkts_per_s", "pkts/s", "higher"),
    ("scoring.matched_packets", "count", "higher"),
    ("scoring.signatures", "count", "higher"),
    ("scoring.distill_s", "s", "lower"),
    ("service.boot_s", "s", "lower"),
    ("service.submit_ms", "ms", "lower"),
    ("service.round_events", "count", "higher"),
    ("service.overhead_s", "s", "lower"),
    ("service.store_put_ms", "ms", "lower"),
    ("service.store_get_ms", "ms", "lower"),
    ("service.hit_payload_kb", "KiB", "lower"),
    ("trace.unattributed_share", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better} for name, unit, better in PER_LAYER
        ],
    }

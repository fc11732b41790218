#!/usr/bin/env python3
"""Cache-contention attack on LPM with 1-stage Direct Lookup (§5.2).

This example walks the full memory-adversarial story end to end:

1. reverse-engineer L3 contention sets of the simulated processor by timing
   probe loops (the §3.2 algorithm — run for real here on a small pool);
2. let CASTAN synthesize ~40 destinations whose lookup-table entries fall
   into one contention set;
3. replay the workload against the DUT and compare its L3 miss rate and
   latency with a flow-count-matched uniform-random control workload.

Usage::

    python examples/cache_contention_attack.py
"""

from __future__ import annotations

from repro.cache.contention import discover_contention_sets
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.nf.registry import get_nf
from repro.testbed.measure import measure_latency
from repro.workloads.generators import make_castan_workload, make_unirand_castan_workload


def main() -> int:
    nf = get_nf("lpm-direct")
    print(f"NF: {nf.name} — {nf.description}")
    table = nf.module.get_region("dl_table")
    print(f"Lookup table: {table.size_bytes / 1024:.0f} KiB "
          f"(simulated L3: {CastanConfig().hierarchy.l3_size / 1024:.0f} KiB)\n")

    # Step 1: probing-based contention-set discovery on a small pool.
    hierarchy = MemoryHierarchy(CastanConfig().hierarchy)
    stride = hierarchy.config.l3_sets_per_slice * hierarchy.config.line_size
    pool = [table.base_address + i * stride for i in range(96)]
    discovered = discover_contention_sets(hierarchy, pool)
    print(f"Probing discovered {discovered.set_count} contention sets "
          f"(sizes: {discovered.set_sizes()})")

    # Step 2: CASTAN analysis (the pipeline uses its own, larger model).
    config = CastanConfig(max_states=100, deadline_seconds=20.0, num_packets=40)
    result = Castan(config).analyze(nf)
    print(result.summary())

    # Step 3: replay and compare against a fair uniform-random control.
    castan_workload = make_castan_workload(result.packets)
    control = make_unirand_castan_workload(nf, castan_workload.flow_count)
    castan_run = measure_latency(nf, castan_workload, replay_packets=2000)
    control_run = measure_latency(nf, control, replay_packets=2000)

    print("\n                         CASTAN      UniRand-CASTAN (control)")
    print(f"median latency (ns):   {castan_run.median_latency_ns:8.1f}        "
          f"{control_run.median_latency_ns:8.1f}")
    print(f"median L3 misses/pkt:  {castan_run.counter_summary.median_l3_misses:8.1f}        "
          f"{control_run.counter_summary.median_l3_misses:8.1f}")
    print(f"median cycles/pkt:     {castan_run.counter_summary.median_cycles:8.1f}        "
          f"{control_run.counter_summary.median_cycles:8.1f}")
    print("\nThe CASTAN workload keeps evicting its own lookup-table lines from "
          "one L3 contention set, so every replayed packet pays a DRAM access; "
          "the same number of random flows fits in the cache after the first loop.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

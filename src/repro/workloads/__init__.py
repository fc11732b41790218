"""Workload generators for the evaluation (§5.1).

Generic workloads used across all NFs — *1 Packet*, *Zipfian* (s = 1.26),
*UniRand* — plus the NF-specific ones: *CASTAN* (produced by the analysis),
*UniRand CASTAN* (uniform traffic with as many flows as the CASTAN workload)
and *Manual* (hand-crafted adversarial workloads).
"""

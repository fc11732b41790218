"""Symbolic execution engine (the KLEE stand-in).

The engine interprets NFIL with symbolic packet fields, forks execution
states at branches on symbolic conditions, keeps per-state path constraints
and cycle-cost estimates, and delegates state selection to a pluggable
searcher — CASTAN's searcher maximises current + potential cost (§3.3–3.4).
Memory accesses are hooked by a pluggable cache model, and hash functions
annotated with ``castan_havoc`` are havoced for later rainbow-table
reconciliation (§3.5).
"""

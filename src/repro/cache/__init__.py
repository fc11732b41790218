"""Cache substrate: simulated memory hierarchy and contention-set modelling.

Four pieces, mirroring §3.2–3.3 of the paper:

* :mod:`repro.cache.setassoc` — a plain set-associative cache with LRU
  replacement, the building block of the hierarchy.
* :mod:`repro.cache.hierarchy` — the simulated processor memory hierarchy
  (L1d/L2/L3 with a *hidden* L3 slice-selection hash and physical page
  mapping), standing in for the Intel Xeon E5-2667v2 testbed machine.
* :mod:`repro.cache.contention` — the probing-based reverse engineering of
  L3 contention sets, run for real against the simulated hierarchy.
* :mod:`repro.cache.model` — the pluggable cache models the symbolic
  execution engine calls on every load/store; the default constrains
  symbolic pointers into discovered contention sets.
"""

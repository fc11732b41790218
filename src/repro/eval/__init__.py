"""Experiment registry: one entry per table and figure of the paper's §5.

:mod:`repro.eval.experiments` runs (and memoises) the per-NF measurement
suite — CASTAN analysis, workload generation, latency/throughput/counter
measurements — and :mod:`repro.eval.tables` formats the results as the rows
and series the paper reports.  The ``benchmarks/`` directory contains one
pytest-benchmark target per table/figure built on these functions.
"""

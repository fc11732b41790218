"""Concrete performance model: the simulated DUT CPU.

This subpackage is the stand-in for running the NF on the paper's Intel
Xeon E5-2667v2 testbed and reading hardware performance counters through
libPAPI.  It contains the per-instruction cycle cost table shared with the
analysis side, a concrete NFIL interpreter that executes packets against
the simulated memory hierarchy, and the per-packet counter records
(instructions retired, reference cycles, L3 misses) that the evaluation
tables are built from.
"""

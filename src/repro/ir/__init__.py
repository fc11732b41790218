"""NFIL: the Network Function Intermediate Language.

NFIL is this reproduction's stand-in for LLVM IR.  It is a small, untyped
(64-bit unsigned) register IR with basic blocks, explicit loads/stores to
named memory regions, calls, and a ``havoc`` instruction implementing the
paper's ``castan_havoc`` annotation.  NF sources written in the restricted
Python dialect are compiled to NFIL by :mod:`repro.frontend`; both the
symbolic execution engine (:mod:`repro.symbex`) and the concrete
cycle-accounting interpreter (:mod:`repro.perf`) consume NFIL modules.
"""

"""Control-flow graph extraction and potential-cost annotation (§3.4).

CASTAN's directed search relies on a pre-processing stage that extracts the
NF's interprocedural control-flow graph (ICFG) and annotates every node
(instruction) with an estimate of the maximum cycles that can still be
consumed before the next packet is received.  This subpackage implements
that stage: :mod:`repro.cfg.icfg` builds instruction-level CFGs and the
call graph, :mod:`repro.cfg.costs` runs the bounded path-vector propagation
that produces the per-instruction potential costs.
"""

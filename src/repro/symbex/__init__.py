"""Symbolic execution engine (the KLEE stand-in).

The engine interprets NFIL with symbolic packet fields, forks execution
states at branches on symbolic conditions, keeps per-state path constraints
and cycle-cost estimates, and delegates state selection to a pluggable
searcher — CASTAN's searcher maximises current + potential cost (§3.3–3.4).
Memory accesses are hooked by a pluggable cache model, and hash functions
annotated with ``castan_havoc`` are havoced for later rainbow-table
reconciliation (§3.5).

Public names are re-exported lazily to keep the cache/symbex packages free
of import cycles; ``from repro.symbex import SymbolicEngine`` works as usual.
"""

from repro._lazy import lazy_exports

__all__ = [
    "BinExpr",
    "BreadthFirstSearcher",
    "CastanSearcher",
    "CmpExpr",
    "Const",
    "DepthFirstSearcher",
    "ExecutionState",
    "Expr",
    "Frame",
    "HavocRecord",
    "Model",
    "RandomSearcher",
    "ReconciliationOutcome",
    "RoundStats",
    "Searcher",
    "SelectExpr",
    "Solver",
    "SolverResult",
    "StateStatus",
    "Sym",
    "SymbexStats",
    "SymbolicEngine",
    "compiled_evaluator",
    "evaluate",
    "expr_and",
    "expr_eq",
    "expr_ne",
    "make_searcher",
    "reconcile_havocs",
    "reduce_concrete",
    "reduce_expr",
    "run_beam_search",
    "select_beam",
    "simplify",
    "symbols_of",
]

_EXPORTS = {
    "BinExpr": (".expr", "BinExpr"),
    "CmpExpr": (".expr", "CmpExpr"),
    "Const": (".expr", "Const"),
    "Expr": (".expr", "Expr"),
    "SelectExpr": (".expr", "SelectExpr"),
    "Sym": (".expr", "Sym"),
    "compiled_evaluator": (".expr", "compiled_evaluator"),
    "evaluate": (".expr", "evaluate"),
    "expr_and": (".expr", "expr_and"),
    "expr_eq": (".expr", "expr_eq"),
    "expr_ne": (".expr", "expr_ne"),
    "reduce_concrete": (".expr", "reduce_concrete"),
    "reduce_expr": (".expr", "reduce_expr"),
    "simplify": (".expr", "simplify"),
    "symbols_of": (".expr", "symbols_of"),
    "Model": (".solver", "Model"),
    "Solver": (".solver", "Solver"),
    "SolverResult": (".solver", "SolverResult"),
    "ExecutionState": (".state", "ExecutionState"),
    "Frame": (".state", "Frame"),
    "StateStatus": (".state", "StateStatus"),
    "SymbexStats": (".engine", "SymbexStats"),
    "SymbolicEngine": (".engine", "SymbolicEngine"),
    "BreadthFirstSearcher": (".searcher", "BreadthFirstSearcher"),
    "CastanSearcher": (".searcher", "CastanSearcher"),
    "DepthFirstSearcher": (".searcher", "DepthFirstSearcher"),
    "RandomSearcher": (".searcher", "RandomSearcher"),
    "Searcher": (".searcher", "Searcher"),
    "make_searcher": (".searcher", "make_searcher"),
    "select_beam": (".searcher", "select_beam"),
    "RoundStats": (".batch", "RoundStats"),
    "run_beam_search": (".batch", "run_beam_search"),
    "HavocRecord": (".havoc", "HavocRecord"),
    "ReconciliationOutcome": (".havoc", "ReconciliationOutcome"),
    "reconcile_havocs": (".havoc", "reconcile_havocs"),
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

"""Operations that run in a fresh child process: ``python -m bench.child OP JSON``.

Each invocation performs one operation of a workload — an analysis pair
(cold then warm), a scorer set-up, or a run of scoring passes — and prints
exactly one JSON line on stdout.  Anything else on stdout, a non-zero exit
or a timeout makes the harness count the operation as failed.

With ``"trace": true`` the child installs :mod:`bench.spans` wrappers around
the layers' public entry points before it runs, and adds the exclusive
per-layer breakdown and the counters read off public stats objects.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from time import perf_counter

from bench.spans import NAME, PARENT, Recorder, attribute

#: Layers that are phases: everything under them counts as theirs.
ABSORBING = ("symbex.final_solve", "symbex.reconcile", "hashing.rainbow_build")


def span_layer(name: str, parent: str | None) -> str | None:
    """Layer of one span; root operation spans stay unattributed."""
    if name in ("analyze", "score"):
        return None
    if name == "solver.check":
        # The model solve of the selected state is called straight from
        # ``Castan.analyze``; every other full check is a slow-path query.
        return "symbex.final_solve" if parent == "analyze" else "symbex.solver_query"
    return name


def install_analysis_spans(recorder: Recorder) -> None:
    """Wrap the analysis pipeline's public entry points (outside-in)."""
    from repro.cache.contention import ContentionSets
    from repro.cache.model import ContentionSetCacheModel
    from repro.core import castan
    from repro.symbex.engine import SymbolicEngine
    from repro.symbex.incremental import SolverContext
    from repro.symbex.solver import Solver

    def search_counts(stats):
        return ("search", stats.instructions_executed)

    recorder.wrap(castan, "annotate_costs", "cfg.annotate")
    recorder.wrap(castan, "MemoryHierarchy", "cache.contention_sets")
    recorder.wrap(ContentionSets, "from_oracle", "cache.contention_sets")
    recorder.wrap(ContentionSetCacheModel, "on_access", "cache.on_access")
    recorder.wrap(castan, "run_beam_search", "symbex.search_self", extract=search_counts)
    recorder.wrap(SymbolicEngine, "run", "symbex.search_self", extract=search_counts)
    recorder.wrap(SolverContext, "feasible_with", "symbex.solver_query")
    recorder.wrap(SolverContext, "solve_value", "symbex.solver_query")
    recorder.wrap(Solver, "quick_feasible", "symbex.solver_query")
    recorder.wrap(Solver, "check", "solver.check")
    recorder.wrap(SolverContext, "add", "symbex.solver_propagate")
    recorder.wrap(castan, "reconcile_havocs", "symbex.reconcile")
    recorder.wrap(
        castan,
        "build_flow_rainbow_table",
        "hashing.rainbow_build",
        extract=lambda table: ("rainbow", table.stats),
    )
    recorder.wrap(castan, "packets_from_model", "core.materialise")


def install_scoring_spans(recorder: Recorder) -> None:
    """Wrap the scoring pipeline's public entry points."""
    from repro.scoring import jobs
    from repro.scoring.scorer import StreamScorer

    recorder.wrap(jobs, "iter_pcap_batches", "net.pcap_parse")
    recorder.wrap(jobs, "packets_to_fields", "scoring.to_columns")
    recorder.wrap(jobs, "fields_to_columns", "scoring.to_columns")
    recorder.wrap(StreamScorer, "feed", "scoring.kernel")
    recorder.wrap(jobs, "distill_signatures", "scoring.distill")


def describe_result(result) -> dict:
    """The service's JSON summary of a result plus the counts it leaves out."""
    from repro.service.store import result_summary

    havoc = result.havoc_outcome
    return {
        **result_summary(result),
        "forks": result.forks,
        "havocs_reconciled": len(havoc.reconciled) if havoc else 0,
        "havocs_failed": len(havoc.failed) if havoc else 0,
        "predicted_dram_accesses": sum(result.metrics.predicted_dram_accesses_per_packet),
    }


def run_op(recorder: Recorder | None, root: str, op: str, call):
    """Run ``call`` as one operation: ``(result, wall, trace)``.

    Untraced, ``trace`` is ``None``.  Traced, the operation runs under a root
    span and its spans are reduced to exclusive per-layer totals plus the
    counters the wrappers saw; the recorder is then emptied, so a child that
    runs several operations keeps bounded memory.
    """
    if recorder is None:
        start = perf_counter()
        result = call()
        return result, perf_counter() - start, None
    from repro.symbex.incremental import CONTEXT_STATS

    before = CONTEXT_STATS.as_dict()
    start = perf_counter()
    with recorder.span(root, op=op):
        result = call()
    wall = perf_counter() - start
    after = CONTEXT_STATS.as_dict()
    layers = attribute(recorder.spans, span_layer, ABSORBING)
    trace = {
        "layers": layers,
        "unattributed_share": 1.0 - sum(row["self_s"] for row in layers.values()) / wall,
        "context": {key: after[key] - before[key] for key in after},
        "instructions": 0,
        "rainbow": {"lookups": 0, "chain_walks": 0, "false_alarms": 0},
    }
    for index, (kind, value) in recorder.extracted:
        if kind == "rainbow":
            # Read now, not at build time: reconciliation ran lookups since.
            trace["rainbow"] = {key: getattr(value, key) for key in trace["rainbow"]}
        elif recorder.spans[recorder.spans[index][PARENT]][NAME] != "symbex.search_self":
            # Beam rounds call ``engine.run`` under ``run_beam_search``,
            # whose aggregate already includes them: outermost only.
            trace["instructions"] += value
    recorder.spans.clear()
    recorder.extracted.clear()
    return result, wall, trace


def op_analyze(args: dict, recorder: Recorder | None) -> dict:
    """Import → ``get_nf`` → cold ``analyze`` → fresh ``get_nf`` → warm ``analyze``."""
    from repro.core.castan import Castan
    from repro.core.config import CastanConfig
    from repro.nf.registry import get_nf

    if recorder is not None:
        install_analysis_spans(recorder)
    config = CastanConfig.from_dict(args["config"])
    start = perf_counter()
    nf = get_nf(args["nf"])
    out = {"nf_build_s": perf_counter() - start, "ready_at": time.monotonic()}
    for label in ("cold", "warm"):
        if label == "warm":
            nf = get_nf(args["nf"])
        result, wall, trace = run_op(
            recorder, "analyze", f"{args['nf']}:{label}", lambda: Castan(config).analyze(nf)
        )
        out[label] = {"wall_s": wall, "trace": trace, **describe_result(result)}
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def op_score_setup(args: dict, recorder: Recorder | None) -> dict:
    """Warm a fresh store: analysis result plus distilled signatures."""
    from repro.core.config import CastanConfig
    from repro.nf.registry import get_nf
    from repro.scoring.jobs import obtain_result, obtain_signatures
    from repro.service.store import ResultStore

    if recorder is not None:
        install_analysis_spans(recorder)
        install_scoring_spans(recorder)
    config = CastanConfig.from_dict(args["config"])
    start = perf_counter()
    nf = get_nf(args["nf"])
    out = {"nf_build_s": perf_counter() - start}
    store = ResultStore(args["store"])
    result, wall, trace = run_op(
        recorder, "analyze", f"{args['nf']}:setup", lambda: obtain_result(nf, config, store=store)
    )
    out["cold"] = {"wall_s": wall, "trace": trace, **describe_result(result)}
    _, wall, _ = run_op(
        recorder,
        "score",
        f"{args['nf']}:distill",
        lambda: obtain_signatures(nf, result, config, store=store),
    )
    out["distill_s"] = wall
    out["ready_at"] = time.monotonic()
    return out


def op_score(args: dict, recorder: Recorder | None) -> dict:
    """``run_score_job`` over one pcap, ``passes`` times against a warm store."""
    from repro.core.config import CastanConfig
    from repro.scoring.jobs import run_score_job
    from repro.scoring.scorer import (
        ScorerOptions,
        score_batch_columns,
        score_batch_fields,
        verdict_bytes,
    )
    from repro.scoring.stream import fields_to_columns, iter_pcap_batches, packets_to_fields
    from repro.service.store import ResultStore

    if recorder is not None:
        install_scoring_spans(recorder)
    config = CastanConfig.from_dict(args["config"])
    store = ResultStore(args["store"])
    options = ScorerOptions(**args["options"])
    out = {"ready_at": time.monotonic(), "passes": []}
    for index in range(args["passes"]):
        summary, wall, trace = run_op(
            recorder,
            "score",
            f"pass{index}",
            lambda: run_score_job(
                args["nf"], config, {"pcap_path": args["pcap"]}, store=store, options=options
            ),
        )
        out["passes"].append(
            {
                "wall_s": wall,
                "trace": trace,
                "packets": summary["packets"],
                "matched": summary["matched"],
                "signatures": len(summary["signatures"]),
            }
        )
    # Untimed output check: the vector tier must agree byte for byte with
    # the scalar reference on the head of the stream.
    signatures = store.get_signatures(summary["signature_store_key"]).signatures
    head = packets_to_fields(next(iter_pcap_batches(args["pcap"], args["check_packets"])))
    out["verdicts_equal"] = verdict_bytes(
        score_batch_columns(signatures, fields_to_columns(head))
    ) == verdict_bytes(score_batch_fields(signatures, head))
    return out


OPS = {"analyze": op_analyze, "score_setup": op_score_setup, "score": op_score}


def main(argv: list[str]) -> int:
    args = json.loads(argv[1])
    recorder = Recorder() if args["trace"] else None
    try:
        out = OPS[argv[0]](args, recorder)
    finally:
        if recorder is not None:
            recorder.restore()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

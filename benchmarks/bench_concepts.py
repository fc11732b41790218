"""Figures 1-3: the concept figures (memory hierarchy bit layout, annotated
ICFG potential costs, hash havoc/reconciliation flow)."""

from benchmarks.conftest import run_once
from repro.cache.hierarchy import HierarchyConfig
from repro.cfg.costs import annotate_costs, render_annotated_cfg
from repro.core.castan import Castan
from repro.core.config import CastanConfig
from repro.nf.registry import get_nf
from repro.symbex.havoc import havoc_hash_consistency


def test_fig01_memory_hierarchy_layout(benchmark, emit):
    """Figure 1: bit layout of the (simulated) processor memory hierarchy."""

    def run():
        return HierarchyConfig().describe_bit_layout()

    layout = run_once(benchmark, run)
    emit("Figure 1: simulated memory hierarchy\n" + layout)
    assert "L3 slice" in layout


def test_fig02_annotated_icfg(benchmark, emit):
    """Figure 2: ICFG nodes annotated with potential cost (loop bound M=2)."""

    def run():
        nf = get_nf("lpm-patricia")
        annotation = annotate_costs(nf.module, nf.entry, loop_bound=2)
        return render_annotated_cfg(annotation, nf.entry)

    rendering = run_once(benchmark, run)
    emit("Figure 2: annotated ICFG (LPM Patricia trie)\n" + rendering)
    assert "potential cost" in rendering


def test_fig03_hash_reconciliation(benchmark, emit):
    """Figure 3: havoc a hash, then reconcile it with a rainbow table."""

    def run():
        nf = get_nf("lb-hash-table")
        config = CastanConfig(max_states=150, deadline_seconds=8.0, num_packets=4)
        result = Castan(config).analyze(nf)
        outcome = result.havoc_outcome
        consistency = {}
        if outcome is not None:
            consistency = havoc_hash_consistency(outcome.reconciled, outcome.model)
        return result, outcome, consistency

    result, outcome, consistency = run_once(benchmark, run)
    lines = ["Figure 3: hash havoc / reconciliation flow (LB hash table)"]
    if outcome is None:
        lines.append("no havocs were recorded")
    else:
        lines.append(f"havocs recorded:   {outcome.total}")
        lines.append(f"reconciled:        {len(outcome.reconciled)}")
        lines.append(f"failed:            {len(outcome.failed)}")
        lines.append(f"solver attempts:   {outcome.attempts}")
        lines.append(f"end-to-end hash(key)==value checks: {consistency}")
    emit("\n".join(lines))
    assert result.packet_count > 0

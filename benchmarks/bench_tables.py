"""Tables 1-5 of the evaluation (§5.2-5.5).

* Table 1 — maximum throughput (Mpps) per NF and workload
* Table 2 — median instructions retired per packet
* Table 3 — median L3 misses per packet
* Table 4 — CASTAN workload sizes and analysis run times
* Table 5 — median latency deviation from the NOP baseline
"""

from benchmarks.conftest import run_once
from repro.eval.tables import (
    table1_throughput,
    table2_instructions,
    table3_l3_misses,
    table4_analysis,
    table5_deviation,
)
from repro.nf.registry import EVALUATION_NF_NAMES


def test_table1_throughput(benchmark, emit):
    rows, text = run_once(benchmark, table1_throughput)
    emit(text)
    # Throughput never exceeds the NOP bound, and UniRand pressure lowers it.
    for nf, value in rows["unirand"].items():
        assert value <= rows["nop"][nf] + 0.01


def test_table2_instructions(benchmark, emit):
    rows, text = run_once(benchmark, table2_instructions)
    emit(text)
    # Algorithmic-complexity NFs: CASTAN's workload retires at least as many
    # instructions per packet as typical Zipfian traffic.
    assert rows["castan"]["nat-unbalanced-tree"] >= rows["zipfian"]["nat-unbalanced-tree"]
    assert rows["castan"]["lpm-patricia"] >= rows["zipfian"]["lpm-patricia"]


def test_table3_l3_misses(benchmark, emit):
    rows, text = run_once(benchmark, table3_l3_misses)
    emit(text)
    # Memory-adversarial NFs: CASTAN induces at least as many L3 misses as
    # the flow-count-matched UniRand control on the 1-stage lookup table.
    assert rows["castan"]["lpm-direct"] >= rows["unirand-castan"]["lpm-direct"]


def test_table4_analysis(benchmark, emit):
    rows, text = run_once(benchmark, table4_analysis)
    emit(text)
    assert set(rows) == set(EVALUATION_NF_NAMES)
    for nf, row in rows.items():
        assert row["packets"] >= 1
        assert row["analysis_seconds"] >= 0.0


def test_table5_deviation(benchmark, emit):
    rows, text = run_once(benchmark, table5_deviation)
    emit(text)
    assert set(rows) == set(EVALUATION_NF_NAMES)
    # Every NF adds latency over the NOP baseline under typical traffic.
    assert all(row["zipfian"] > 0 for row in rows.values())

"""Formatting of the paper's tables and figure series (§5.2–5.5).

Each ``tableN_*`` function returns ``(rows, text)`` where ``rows`` is a
plain data structure (workload -> NF -> value) and ``text`` is the aligned
table the corresponding benchmark prints.  Figure helpers return the CDF
objects (one per workload) whose ASCII rendering stands in for the paper's
plots.
"""

from __future__ import annotations

from repro.eval.experiments import castan_result, latency_results, throughput_results
from repro.nf.registry import EVALUATION_NF_NAMES
from repro.testbed.cdf import CDF

#: Row order of Tables 1-3 (as in the paper, NOP first).
WORKLOAD_ROWS = ("nop", "1-packet", "zipfian", "unirand", "unirand-castan", "castan", "manual")


def format_table(title: str, rows: dict[str, dict[str, object]], columns: list[str]) -> str:
    """Render a workload × NF table as aligned text (``-`` marks a missing cell)."""
    col_width = max(12, max((len(c) for c in columns), default=12) + 1)
    header = f"{'workload':<16}" + "".join(f"{c:>{col_width}}" for c in columns)
    lines = [title, "=" * len(header), header, "-" * len(header)]
    for row_name, row in rows.items():
        cells = []
        for column in columns:
            value = row.get(column, "-")
            if isinstance(value, float):
                cells.append(f"{value:>{col_width}.2f}")
            else:
                cells.append(f"{str(value):>{col_width}}")
        lines.append(f"{row_name:<16}" + "".join(cells))
    return "\n".join(lines)


def _collect(metric) -> dict[str, dict[str, object]]:
    """Build rows[workload][nf] using ``metric(nf_name, workload_name)``."""
    rows: dict[str, dict[str, object]] = {w: {} for w in WORKLOAD_ROWS}
    for nf_name in EVALUATION_NF_NAMES:
        for workload_name in WORKLOAD_ROWS:
            value = metric(nf_name, workload_name)
            if value is not None:
                rows[workload_name][nf_name] = value
    return {w: r for w, r in rows.items() if r}


# -- Table 1: maximum throughput (Mpps) --------------------------------------------


def table1_throughput():
    results = {name: throughput_results(name) for name in EVALUATION_NF_NAMES}

    def metric(nf_name: str, workload_name: str):
        entry = results[nf_name].get(workload_name)
        return entry.max_rate_mpps if entry else None

    rows = _collect(metric)
    return rows, format_table(
        "Table 1: maximum throughput (Mpps)", rows, list(EVALUATION_NF_NAMES)
    )


# -- Table 2: median instructions retired per packet ----------------------------------


def table2_instructions():
    results = {name: latency_results(name) for name in EVALUATION_NF_NAMES}

    def metric(nf_name: str, workload_name: str):
        entry = results[nf_name].get(workload_name)
        if entry is None:
            return None
        return int(entry.counter_summary.median_instructions)

    rows = _collect(metric)
    return rows, format_table(
        "Table 2: median instructions retired per packet", rows, list(EVALUATION_NF_NAMES)
    )


# -- Table 3: median L3 misses per packet -----------------------------------------------


def table3_l3_misses():
    results = {name: latency_results(name) for name in EVALUATION_NF_NAMES}

    def metric(nf_name: str, workload_name: str):
        entry = results[nf_name].get(workload_name)
        if entry is None:
            return None
        return int(entry.counter_summary.median_l3_misses)

    rows = _collect(metric)
    return rows, format_table(
        "Table 3: median L3 misses per packet", rows, list(EVALUATION_NF_NAMES)
    )


# -- Table 4: CASTAN packets generated and analysis time ---------------------------------


def table4_analysis():
    rows: dict[str, dict[str, object]] = {}
    for nf_name in EVALUATION_NF_NAMES:
        result = castan_result(nf_name)
        rows[nf_name] = {
            "packets": result.packet_count,
            "flows": result.unique_flows,
            "analysis_seconds": round(result.analysis_seconds, 2),
            "states": result.states_explored,
        }
    lines = ["Table 4: CASTAN workload sizes and analysis run time",
             f"{'NF':<24}{'packets':>9}{'flows':>7}{'time (s)':>10}{'states':>8}"]
    lines.append("-" * len(lines[1]))
    for nf_name, row in rows.items():
        lines.append(
            f"{nf_name:<24}{row['packets']:>9}{row['flows']:>7}"
            f"{row['analysis_seconds']:>10.2f}{row['states']:>8}"
        )
    return rows, "\n".join(lines)


# -- Table 5: median latency deviation from NOP ---------------------------------------------


def table5_deviation():
    rows: dict[str, dict[str, object]] = {}
    for nf_name in EVALUATION_NF_NAMES:
        results = latency_results(nf_name)
        baseline = results["nop"]
        row: dict[str, object] = {}
        for workload_name in ("zipfian", "manual", "castan"):
            if workload_name in results:
                row[workload_name] = round(results[workload_name].deviation_from(baseline), 1)
        rows[nf_name] = row
    lines = ["Table 5: median latency deviation from NOP (ns)",
             f"{'NF':<24}{'Zipfian':>10}{'Manual':>10}{'CASTAN':>10}"]
    lines.append("-" * len(lines[1]))
    for nf_name, row in rows.items():
        zipfian = row.get("zipfian", "-")
        manual = row.get("manual", "-")
        castan = row.get("castan", "-")
        fmt = lambda v: f"{v:>10.1f}" if isinstance(v, float) else f"{str(v):>10}"
        lines.append(f"{nf_name:<24}{fmt(zipfian)}{fmt(manual)}{fmt(castan)}")
    return rows, "\n".join(lines)


# -- Figures: latency and cycle CDFs ------------------------------------------------------------


def figure_latency_cdfs(nf_name: str) -> dict[str, CDF]:
    """The latency CDFs of one NF, one per workload (plus NOP)."""
    return {w: result.latency_ns for w, result in latency_results(nf_name).items()}


def figure_cycles_cdfs(nf_name: str) -> dict[str, CDF]:
    """The reference-cycle CDFs of one NF, one per workload (plus NOP)."""
    return {w: result.cycles for w, result in latency_results(nf_name).items()}


def render_figure(title: str, cdfs: dict[str, CDF]) -> str:
    """ASCII rendering of a multi-series CDF figure."""
    lines = [title, "=" * len(title)]
    for workload_name, cdf in cdfs.items():
        lines.append(cdf.render(label=workload_name))
        lines.append("")
    return "\n".join(lines)

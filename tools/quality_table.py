#!/usr/bin/env python3
"""Per-NF quality table: what each analysis found, and how it replays.

For every NF, one deterministic analysis (no deadline) and three replays on
the testbed (``repro.testbed.measure.measure_latency``, 500 packets each, a
cold DUT per replay): the CASTAN workload, same-size uniform-random traffic
(UniRand-CASTAN, as in ``bench/``'s ``adv_gain``) and the hand-crafted
Manual workload where the NF has one::

    PYTHONPATH=src python tools/quality_table.py
    PYTHONPATH=src python tools/quality_table.py --nfs lb-hash-table dpi-trie --max-states 2000
    PYTHONPATH=src python tools/quality_table.py --search-mode beam --json quality.json

Columns: states explored, why the search stopped, solver status, havocs
reconciled / havocs on the selected path, predicted cost, median replayed
cycles per packet of CASTAN / UniRand / Manual, then CASTAN ÷ UniRand and
CASTAN ÷ Manual.  ``--json`` rows also carry ``witnessed`` / ``searched``:
how many reconciled havocs a witness model proved, and how many a model
search proved.  NFs without havocs show ``-`` (``null`` in the JSON).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.castan import Castan  # noqa: E402
from repro.core.config import CastanConfig  # noqa: E402
from repro.nf.registry import EVALUATION_NF_NAMES, get_nf  # noqa: E402
from repro.testbed.measure import measure_latency  # noqa: E402
from repro.workloads.generators import (  # noqa: E402
    make_castan_workload,
    make_manual_workload,
    make_unirand_castan_workload,
)

REPLAY_PACKETS = 500

COLUMNS = (
    ("nf", "NF", "s"),
    ("states", "states", "d"),
    ("stop", "stop", "s"),
    ("status", "solver", "s"),
    ("reconciled", "reconciled", "s"),
    ("predicted", "predicted", "d"),
    ("castan", "CASTAN", ".0f"),
    ("unirand", "UniRand", ".0f"),
    ("manual", "Manual", ".0f"),
    ("vs_unirand", "÷UniRand", ".3f"),
    ("vs_manual", "÷Manual", ".3f"),
)


def _median_cycles(nf, workload) -> float:
    return measure_latency(nf, workload, replay_packets=REPLAY_PACKETS).cycles.median


def quality_row(name: str, config: CastanConfig) -> dict:
    """Analyse one NF under ``config`` and replay its workload and baselines."""
    nf = get_nf(name)
    result = Castan(config).analyze(nf)
    castan = _median_cycles(nf, make_castan_workload(result.packets))
    unirand = _median_cycles(nf, make_unirand_castan_workload(nf, len(result.packets)))
    manual_workload = make_manual_workload(nf)
    manual = None if manual_workload is None else _median_cycles(nf, manual_workload)
    havoc = result.havoc_outcome
    return {
        "nf": name,
        "states": result.states_explored,
        "stop": result.stop_reason,
        "status": result.solver_status,
        "reconciled": None if havoc is None else f"{len(havoc.reconciled)}/{havoc.total}",
        "witnessed": None if havoc is None else havoc.witnessed,
        "searched": None if havoc is None else havoc.searched,
        "predicted": result.best_state_cost,
        "castan": castan,
        "unirand": unirand,
        "manual": manual,
        "vs_unirand": castan / unirand,
        "vs_manual": None if manual is None else castan / manual,
    }


def format_table(rows: list[dict]) -> str:
    cells = [[title for _, title, _ in COLUMNS]]
    for row in rows:
        cells.append(
            ["-" if row[key] is None else format(row[key], spec) for key, _, spec in COLUMNS]
        )
    widths = [max(len(line[i]) for line in cells) for i in range(len(COLUMNS))]
    return "\n".join(
        "  ".join([line[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(line[1:], widths[1:])])
        for line in cells
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nfs", nargs="+", default=list(EVALUATION_NF_NAMES), metavar="NF")
    parser.add_argument("--max-states", type=int, default=1000)
    parser.add_argument("--search-mode", default="monolithic", choices=("monolithic", "beam"))
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write the rows here")
    args = parser.parse_args(argv)

    config = CastanConfig(
        max_states=args.max_states, deadline_seconds=None, search_mode=args.search_mode
    )
    rows = [quality_row(name, config) for name in args.nfs]
    print(f"max_states={args.max_states} search_mode={args.search_mode} replay={REPLAY_PACKETS}")
    print(format_table(rows))
    if args.json is not None:
        args.json.write_text(
            json.dumps(
                {"max_states": args.max_states, "search_mode": args.search_mode, "rows": rows},
                indent=1,
            )
            + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())

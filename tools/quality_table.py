#!/usr/bin/env python3
"""Per-NF quality table: what each analysis found, and how it replays.

Prints :func:`repro.eval.experiments.quality_row` for every NF: one
analysis at ``EVAL_CONFIG`` (the config of the paper's tables; no
deadline) and three 500-packet replays on the testbed: the CASTAN
workload, same-size uniform-random traffic (UniRand-CASTAN, as in
``bench/``'s ``adv_gain``) and the hand-crafted Manual workload where the
NF has one::

    PYTHONPATH=src python tools/quality_table.py
    PYTHONPATH=src python tools/quality_table.py --nfs lb-hash-table dpi-trie --max-states 2000
    PYTHONPATH=src python tools/quality_table.py --search-mode beam --json quality.json

``--max-states`` and ``--search-mode`` override ``EVAL_CONFIG`` for a probe.
Columns: states explored, why the search stopped, solver status, havocs
reconciled / havocs on the selected path, predicted cost, median replayed
cycles per packet of CASTAN / UniRand / Manual, then CASTAN ÷ UniRand and
CASTAN ÷ Manual.  ``--json`` rows also carry ``witnessed`` / ``searched``:
how many reconciled havocs a witness model proved, and how many a model
search proved, and ``packets`` how many packets the workload has.  NFs
without havocs show ``-`` (``null`` in the JSON).  ``tests/test_quality.py``
holds the same rows to floors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.eval.experiments import EVAL_CONFIG, QUALITY_REPLAY_PACKETS, quality_row  # noqa: E402
from repro.nf.registry import EVALUATION_NF_NAMES  # noqa: E402

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
    parser.add_argument("--max-states", type=int, default=EVAL_CONFIG.max_states)
    parser.add_argument(
        "--search-mode", default=EVAL_CONFIG.search_mode, choices=("monolithic", "beam")
    )
    parser.add_argument("--json", type=Path, metavar="PATH", help="also write the rows here")
    args = parser.parse_args(argv)

    config = dataclasses.replace(
        EVAL_CONFIG, max_states=args.max_states, search_mode=args.search_mode
    )
    rows = [quality_row(name, config) for name in args.nfs]
    print(
        f"max_states={args.max_states} search_mode={args.search_mode} "
        f"replay={QUALITY_REPLAY_PACKETS}"
    )
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

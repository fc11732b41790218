"""Workload quality at the evaluation config, held to floors and targets.

Every evaluation NF is analysed at ``EVAL_CONFIG`` and replayed on the
simulated testbed (500 packets per workload) by
``repro.eval.experiments.quality_row``, the row ``tools/quality_table.py``
prints.  The paper's tables read the same memoised analyses.  No deadline
and a simulated DUT make every number deterministic.

*Floors.*  ``RECORDED`` holds each NF's CASTAN ÷ UniRand and, where the NF
has a Manual workload, CASTAN ÷ Manual.  A case fails when a ratio drops
below 98 % of its recorded value.  A change that moves an NF's emitted
packets on purpose re-records that NF's entry (``python
tools/quality_table.py --nfs NF`` prints both ratios); a drop must be argued
for in the change, never absorbed by lowering the entry silently.

*Targets.*  ``TARGETS`` are what open ROADMAP items promise, marked
``xfail(strict=True)`` with today's value in the reason.  A change that
reaches one turns its case into an XPASS, which fails: remove the marker
there and raise the NF's floor.  The list only shrinks.

Not checked here yet (ROADMAP item 16(d)): that a ``sat`` NF's model
satisfies the selected path constraint.
"""

from __future__ import annotations

import functools

import pytest

from repro.eval.experiments import quality_row
from repro.eval.tables import table4_analysis
from repro.nf.registry import EVALUATION_NF_NAMES

#: nf -> (CASTAN ÷ UniRand, CASTAN ÷ Manual or None), as recorded.
RECORDED = {
    "lpm-patricia": (3.895, 0.2916),
    "lpm-direct": (25.5, None),
    "lpm-dpdk": (17.33, None),
    "lb-hash-table": (1.011, None),
    "lb-hash-ring": (1.716, None),
    "lb-unbalanced-tree": (1.0, 0.8833),
    "lb-red-black-tree": (1.0, None),
    "nat-hash-table": (1.011, None),
    "nat-hash-ring": (1.742, None),
    "nat-unbalanced-tree": (1.417, 0.3375),
    "nat-red-black-tree": (1.0, None),
    "fw-conntrack": (1.087, 0.3369),
    "policer-two-choice": (1.625, None),
    "dedup-bloom": (1.005, 1.026),
    "dpi-trie": (1.652, 0.6485),
    "chain-gateway": (0.3076, None),
    "chain-edge": (0.1959, None),
}

FLOOR_SHARE = 0.98


def _target(nf: str, check, reason: str):
    return pytest.param(nf, check, id=nf, marks=pytest.mark.xfail(strict=True, reason=reason))


def _sat(row: dict) -> bool:
    return row["status"] == "sat"


TARGETS = [
    _target("chain-gateway", lambda row: row["vs_unirand"] >= 1.0, "item 13: ÷UniRand 0.31"),
    _target("chain-edge", lambda row: row["vs_unirand"] >= 1.0, "item 13: ÷UniRand 0.20"),
    _target("lb-hash-table", lambda row: row["vs_unirand"] > 1.2, "items 5, 14: ÷UniRand 1.01"),
    _target("nat-hash-table", lambda row: row["vs_unirand"] > 1.2, "items 5, 14: ÷UniRand 1.01"),
    _target("dedup-bloom", lambda row: row["vs_unirand"] > 1.2, "items 5, 14: ÷UniRand 1.00"),
    _target("lb-unbalanced-tree", _sat, "item 4: unsat"),
    _target("lb-red-black-tree", _sat, "item 4: unsat"),
    _target("nat-unbalanced-tree", _sat, "item 4: unsat"),
    _target("nat-red-black-tree", _sat, "item 4: unsat"),
    _target("lpm-patricia", lambda row: row["vs_unirand"] >= 13, "item 12: ÷UniRand 3.90"),
    _target("dpi-trie", lambda row: row["vs_manual"] >= 1.0, "item 12: ÷Manual 0.65"),
    _target("fw-conntrack", lambda row: row["packets"] >= 20, "item 3: 5 packets"),
]


@functools.cache
def _row(nf: str) -> dict:
    return quality_row(nf)


def test_every_evaluation_nf_has_a_floor():
    assert sorted(RECORDED) == sorted(EVALUATION_NF_NAMES)


@pytest.mark.parametrize("nf", sorted(RECORDED))
def test_floor(nf):
    row = _row(nf)
    vs_unirand, vs_manual = RECORDED[nf]
    assert row["vs_unirand"] >= FLOOR_SHARE * vs_unirand, row
    if vs_manual is None:
        assert row["vs_manual"] is None, row
    else:
        assert row["vs_manual"] >= FLOOR_SHARE * vs_manual, row


@pytest.mark.parametrize("nf, check", TARGETS)
def test_target(nf, check):
    assert check(_row(nf)), _row(nf)


def test_table4_reports_the_gated_analyses():
    """Table 4 reads the analyses the floors hold: same states, same packets."""
    rows, _ = table4_analysis()
    for nf in EVALUATION_NF_NAMES:
        row = _row(nf)
        assert (rows[nf]["states"], rows[nf]["packets"]) == (row["states"], row["packets"]), nf

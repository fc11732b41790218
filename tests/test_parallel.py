"""Tests for the process-parallel subsystem (repro.parallel).

Covers the two guarantees the parallel layer makes:

* a pickled expression (a result's havoc records travel that way) loads back
  as the same interned node;
* the portfolio runner produces byte-identical workloads and equal
  best-state costs to a sequential run.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.config import CastanConfig
from repro.core.workload import workload_digest
from repro.ir.instructions import BinOpKind, CmpKind
from repro.parallel.portfolio import PortfolioRunner
from repro.symbex.expr import Const, Sym, make_binop, make_cmp

DIFFERENTIAL_NFS = (
    "lpm-patricia",
    "nat-hash-table",
    "lb-red-black-tree",
    "fw-conntrack",
    "policer-two-choice",
    "dedup-bloom",
    "dpi-trie",
)


def _digest(result) -> str:
    return workload_digest(result.packets)


def test_expr_pickle_reinterns():
    """A pickled expression loads back as the *same* interned node."""
    expr = make_cmp(
        CmpKind.ULT,
        make_binop(BinOpKind.ADD, Sym("pkt0.src_ip", 32), Const(7)),
        Const(1000),
    )
    assert pickle.loads(pickle.dumps(expr)) is expr


# -- differential: parallel vs sequential --------------------------------------


@pytest.mark.parametrize("nf_name", DIFFERENTIAL_NFS)
def test_portfolio_matches_sequential(nf_name):
    """workers=2 portfolio output is byte-identical to the sequential run."""
    config = CastanConfig(max_states=40, deadline_seconds=None, num_packets=4)
    sequential = PortfolioRunner(config=config, workers=0).run_map((nf_name,))[nf_name]
    parallel = PortfolioRunner(config=config, workers=2).run_map((nf_name,))[nf_name]
    assert _digest(parallel) == _digest(sequential)
    assert parallel.best_state_cost == sequential.best_state_cost
    assert parallel.states_explored == sequential.states_explored


def test_portfolio_merges_in_input_order():
    config = CastanConfig(max_states=30, deadline_seconds=None, num_packets=3)
    results = PortfolioRunner(config=config, workers=2).run(DIFFERENTIAL_NFS)
    assert tuple(result.nf_name for result in results) == DIFFERENTIAL_NFS

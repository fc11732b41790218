"""The symbolic layer's one memo type: bounded, counting, registered."""

import numpy as np
import pytest

from repro.ir.instructions import BinOpKind
from repro.symbex import expr as expr_module
from repro.symbex import memo as memo_module
from repro.symbex.expr import Const, Sym, column_evaluator, evaluate, make_binop
from repro.symbex.memo import MISSING, BoundedMemo


@pytest.fixture
def private_registry(monkeypatch):
    """Keep memos built by a test out of the process-wide registry."""
    monkeypatch.setattr(memo_module, "MEMOS", [])
    return memo_module.MEMOS


def test_bounded_memo_never_exceeds_its_limit_and_counts(private_registry):
    memo = BoundedMemo("probe")
    assert private_registry == [memo]
    memo.limit = 3
    for key in range(10):
        assert memo.get(key) is None
        memo[key] = key * key
        assert len(memo) <= 3
    assert (memo.hits, memo.misses, memo.clears) == (0, 10, 3)
    assert memo.get(9) == 81 and memo.get(0, MISSING) is MISSING
    assert memo.counters() == {"probe_hits": 1, "probe_misses": 11, "probe_clears": 3}
    memo.reset_counters()
    assert memo.counters() == {"probe_hits": 0, "probe_misses": 0, "probe_clears": 0}


def test_bounded_memo_stores_none_behind_the_missing_sentinel(private_registry):
    memo = BoundedMemo("nones")
    memo["key"] = None
    assert memo.get("key", MISSING) is None
    assert (memo.hits, memo.misses) == (1, 0)


def test_clear_memos_empties_every_registered_memo(private_registry):
    first, second = BoundedMemo("first"), BoundedMemo("second")
    first[1] = second[2] = "value"
    memo_module.clear_memos()
    assert not first and not second


def test_column_evaluator_cache_is_bounded(monkeypatch):
    memo = expr_module._COLUMN_EVALUATORS
    monkeypatch.setattr(memo, "limit", 4)
    x = Sym("x", 16)
    roots = [make_binop(BinOpKind.ADD, x, Const(offset)) for offset in range(1, 13)]
    for root in roots:
        assert column_evaluator(root) is not None
        assert len(memo) <= 4
    assert memo.clears >= 2
    # A rebuilt evaluator after a self-clear computes the same values.
    column = np.asarray([7], dtype=np.uint64)
    assert int(column_evaluator(roots[0])({"x": column})[0]) == evaluate(roots[0], {"x": 7}) == 8

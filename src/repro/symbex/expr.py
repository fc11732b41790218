"""Symbolic expressions over 64-bit unsigned machine words.

Expressions are small immutable trees: constants, named symbols (with a
declared bit width), binary operations reusing the NFIL operator set,
comparisons (producing 0/1) and selects.  Construction performs constant
folding and a handful of algebraic simplifications so that path constraints
stay small and the solver's pattern matching sees normalised shapes.

Expressions are **hash-consed**: every constructor interns its node, so
structurally equal expressions are pointer-equal, ``==``/``hash`` are O(1)
identity operations, and per-node analyses (``symbols_of``, ``expr_depth``,
``simplify``) are computed once and cached on the node.  This is what makes
the incremental solver contexts (``repro.symbex.incremental``) cheap: memo
tables can key on expression identity, and the substitution fast path can
skip whole subtrees whose symbols are untouched.

Interned nodes live for the process lifetime; long-running drivers can call
:func:`clear_expression_caches` between independent analyses.

Two concrete-execution fast paths are built on top of the interning:

* every node lazily caches its **scalar evaluator** (:func:`dag_evaluator`,
  one step per unique DAG node) so repeated concrete evaluation — the
  solver's backtracking consistency checks, :func:`evaluate` — costs plain
  integer operations instead of tree substitution;
* :func:`reduce_expr` is an exact, memoised equivalent of
  ``simplify(substitute(expr, assignment))``: fully-covered expressions go
  through the scalar evaluator without interning any intermediate node,
  and partially-covered reductions are memoised on (node, assignment
  projection) so backtracking and repeated ``Solver.check`` calls stop
  re-deriving the same reductions.
"""

from __future__ import annotations

import importlib.util

from repro.ir.instructions import BINOP_FUNCS, CMP_FUNCS, BinOpKind, CmpKind
from repro.ir.values import MACHINE_BITS, MACHINE_MASK
from repro.symbex.memo import BoundedMemo, clear_memos

_EMPTY_SYMBOLS: frozenset = frozenset()
_EMPTY_NAMES: frozenset = frozenset()


class Expr:
    """Base class of all symbolic expressions.

    Subclasses intern their instances in ``__new__``; identity equality and
    hashing are therefore structural.  The hash is computed once at intern
    time and cached in a slot (``__hash__`` below), so hot memo tables keyed
    on expressions skip the C-level ``object.__hash__`` call.

    Pickling goes through each subclass's ``__reduce__``, which rebuilds the
    node via the interning constructor: a round-trip within one process
    returns the *same* interned object, and a cross-process round-trip (a
    result's havoc records loaded from the store or a worker's result queue)
    re-interns the whole tree so identity equality holds in the destination
    process too.
    """

    __slots__ = ("symbols", "symbol_names", "depth", "_simplified", "_hash", "_evaluator")

    # Interning makes structural equality identity equality; keep object's
    # __eq__ (identity) for O(1) dict/set operations.  __hash__ returns the
    # identity hash captured at intern time.

    def __hash__(self) -> int:
        return self._hash

    def __copy__(self) -> "Expr":
        return self

    def __deepcopy__(self, memo) -> "Expr":
        return self


class Const(Expr):
    """A concrete 64-bit value."""

    __slots__ = ("value",)

    _intern: dict[int, "Const"] = {}

    def __new__(cls, value: int) -> "Const":
        value &= MACHINE_MASK
        cached = cls._intern.get(value)
        if cached is None:
            cached = object.__new__(cls)
            cached._hash = object.__hash__(cached)
            cached.value = value
            cached.symbols = _EMPTY_SYMBOLS
            cached.symbol_names = _EMPTY_NAMES
            cached.depth = 1
            cached._simplified = cached
            cached._evaluator = lambda assignment, _v=value: _v
            cls._intern[value] = cached
        return cached

    def __reduce__(self):
        return (Const, (self.value,))

    def __repr__(self) -> str:
        return f"Const(value={self.value})"

    def __str__(self) -> str:
        return f"0x{self.value:x}" if self.value > 9 else str(self.value)


class Sym(Expr):
    """A named symbolic input with a bit width (default: full word)."""

    __slots__ = ("name", "bits")

    _intern: dict[tuple[str, int], "Sym"] = {}

    def __new__(cls, name: str, bits: int = MACHINE_BITS) -> "Sym":
        key = (name, bits)
        cached = cls._intern.get(key)
        if cached is None:
            cached = object.__new__(cls)
            cached._hash = object.__hash__(cached)
            cached.name = name
            cached.bits = bits
            cached.symbols = frozenset((cached,))
            cached.symbol_names = frozenset((name,))
            cached.depth = 1
            cached._simplified = cached
            cached._evaluator = lambda assignment, _n=name, _m=(1 << bits) - 1: (
                assignment[_n] & _m
            )
            cls._intern[key] = cached
        return cached

    @property
    def mask(self) -> int:
        return (1 << self.bits) - 1

    def __reduce__(self):
        return (Sym, (self.name, self.bits))

    def __repr__(self) -> str:
        return f"Sym(name={self.name!r}, bits={self.bits})"

    def __str__(self) -> str:
        return self.name


class BinExpr(Expr):
    """A binary arithmetic/bitwise operation."""

    __slots__ = ("op", "lhs", "rhs")

    _intern: dict[tuple, "BinExpr"] = {}

    def __new__(cls, op: BinOpKind, lhs: Expr, rhs: Expr) -> "BinExpr":
        key = (op, lhs, rhs)
        cached = cls._intern.get(key)
        if cached is None:
            cached = object.__new__(cls)
            cached._hash = object.__hash__(cached)
            cached.op = op
            cached.lhs = lhs
            cached.rhs = rhs
            cached.symbols = lhs.symbols | rhs.symbols
            cached.symbol_names = lhs.symbol_names | rhs.symbol_names
            cached.depth = 1 + max(lhs.depth, rhs.depth)
            cached._simplified = None
            cached._evaluator = None
            cls._intern[key] = cached
        return cached

    def __reduce__(self):
        return (BinExpr, (self.op, self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"BinExpr(op={self.op!r}, lhs={self.lhs!r}, rhs={self.rhs!r})"

    def __str__(self) -> str:
        return f"({self.lhs} {self.op.value} {self.rhs})"


class CmpExpr(Expr):
    """A comparison; evaluates to 1 (true) or 0 (false)."""

    __slots__ = ("pred", "lhs", "rhs")

    _intern: dict[tuple, "CmpExpr"] = {}

    def __new__(cls, pred: CmpKind, lhs: Expr, rhs: Expr) -> "CmpExpr":
        key = (pred, lhs, rhs)
        cached = cls._intern.get(key)
        if cached is None:
            cached = object.__new__(cls)
            cached._hash = object.__hash__(cached)
            cached.pred = pred
            cached.lhs = lhs
            cached.rhs = rhs
            cached.symbols = lhs.symbols | rhs.symbols
            cached.symbol_names = lhs.symbol_names | rhs.symbol_names
            cached.depth = 1 + max(lhs.depth, rhs.depth)
            cached._simplified = None
            cached._evaluator = None
            cls._intern[key] = cached
        return cached

    def __reduce__(self):
        return (CmpExpr, (self.pred, self.lhs, self.rhs))

    def __repr__(self) -> str:
        return f"CmpExpr(pred={self.pred!r}, lhs={self.lhs!r}, rhs={self.rhs!r})"

    def __str__(self) -> str:
        return f"({self.lhs} {self.pred.value} {self.rhs})"


class SelectExpr(Expr):
    """``cond ? if_true : if_false`` with a 0/1 condition."""

    __slots__ = ("cond", "if_true", "if_false")

    _intern: dict[tuple, "SelectExpr"] = {}

    def __new__(cls, cond: Expr, if_true: Expr, if_false: Expr) -> "SelectExpr":
        key = (cond, if_true, if_false)
        cached = cls._intern.get(key)
        if cached is None:
            cached = object.__new__(cls)
            cached._hash = object.__hash__(cached)
            cached.cond = cond
            cached.if_true = if_true
            cached.if_false = if_false
            cached.symbols = cond.symbols | if_true.symbols | if_false.symbols
            cached.symbol_names = (
                cond.symbol_names | if_true.symbol_names | if_false.symbol_names
            )
            cached.depth = 1 + max(cond.depth, if_true.depth, if_false.depth)
            cached._simplified = None
            cached._evaluator = None
            cls._intern[key] = cached
        return cached

    def __reduce__(self):
        return (SelectExpr, (self.cond, self.if_true, self.if_false))

    def __repr__(self) -> str:
        return (
            f"SelectExpr(cond={self.cond!r}, if_true={self.if_true!r}, "
            f"if_false={self.if_false!r})"
        )

    def __str__(self) -> str:
        return f"({self.cond} ? {self.if_true} : {self.if_false})"


TRUE = Const(1)
FALSE = Const(0)


def clear_expression_caches() -> None:
    """Drop all interned expressions (for long-running drivers and tests).

    Existing expression objects stay valid; new structurally-equal nodes
    created afterwards will no longer be pointer-equal to old ones, so only
    call this between independent analyses.  Every memo of the layer
    (:mod:`repro.symbex.memo`) is emptied too: they key on interned nodes or
    their ids, so recycled object ids cannot resurrect stale entries.
    """
    for cls in (Const, Sym, BinExpr, CmpExpr, SelectExpr):
        cls._intern.clear()
    # Keep the module-level singletons canonical so identity comparisons
    # against TRUE/FALSE still hold after a clear.
    Const._intern[FALSE.value] = FALSE
    Const._intern[TRUE.value] = TRUE
    clear_memos()


def const(value: int) -> Const:
    return Const(value & MACHINE_MASK)


#: Partial reductions, keyed on (node, the assignment's values for the
#: node's ``symbol_names`` in that frozenset's iteration order).  The
#: frozenset belongs to the interned node, so its order is fixed for the
#: node's lifetime and the projection is a consistent key.
_REDUCE_MEMO = BoundedMemo("reduce")


def reduce_expr(expr: Expr, assignment: dict[str, int]) -> Expr:
    """Exactly ``simplify(substitute(expr, assignment))``, but fast.

    Three tiers, all returning the identical interned node the slow form
    would return (the incremental solver and the backtracking search rely on
    this equivalence for byte-identical outputs):

    1. no assigned symbol occurs in ``expr`` → ``simplify(expr)`` (cached);
    2. *every* symbol is assigned → the scalar evaluator computes the
       concrete value directly — no intermediate node is interned;
    3. partial coverage → the substitution runs once and is memoised on
       (node, projection of the assignment onto the node's symbols).

    Constants are interned, so the solver's backtracking consistency checks
    (the hottest loop of ``Solver.check``) test a pre-normalised constraint
    with ``reduce_expr(constraint, assignment) is FALSE``.
    """
    names = expr.symbol_names
    if not names or not assignment:
        return simplify(expr)
    hit = missing = False
    for name in names:  # O(|names|), names is small; never iterate the assignment
        if name in assignment:
            hit = True
        else:
            missing = True
    if not hit:
        return simplify(expr)
    if not missing:
        return Const((expr._evaluator or dag_evaluator(expr))(assignment))
    key = (expr, tuple(map(assignment.get, names)))
    reduced = _REDUCE_MEMO.get(key)
    if reduced is None:
        reduced = _REDUCE_MEMO[key] = simplify(substitute(expr, assignment))
    return reduced


def make_binop(op: BinOpKind, lhs: Expr, rhs: Expr) -> Expr:
    """Build a binary operation with constant folding and simplification."""
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return Const(BINOP_FUNCS[op](lhs.value, rhs.value))
    # Identity simplifications that keep solver patterns clean.
    if isinstance(rhs, Const):
        if rhs.value == 0 and op in (BinOpKind.ADD, BinOpKind.SUB, BinOpKind.OR,
                                     BinOpKind.XOR, BinOpKind.SHL, BinOpKind.LSHR):
            return lhs
        if rhs.value == 0 and op is BinOpKind.AND:
            return Const(0)
        if rhs.value == MACHINE_MASK and op is BinOpKind.AND:
            return lhs
        if rhs.value == 1 and op is BinOpKind.MUL:
            return lhs
        if rhs.value == 0 and op is BinOpKind.MUL:
            return Const(0)
    if isinstance(lhs, Const):
        if lhs.value == 0 and op in (BinOpKind.ADD, BinOpKind.OR, BinOpKind.XOR):
            return rhs
        if lhs.value == 0 and op in (BinOpKind.AND, BinOpKind.MUL, BinOpKind.SHL,
                                     BinOpKind.LSHR, BinOpKind.UDIV, BinOpKind.UREM):
            return Const(0)
        if lhs.value == 1 and op is BinOpKind.MUL:
            return rhs
    # Masking a symbol to (or beyond) its declared width is a no-op.
    if (
        op is BinOpKind.AND
        and isinstance(rhs, Const)
        and isinstance(lhs, Sym)
        and (lhs.mask & rhs.value) == lhs.mask
    ):
        return lhs
    # Collapse nested shifts by constants: (x >> a) >> b = x >> (a+b).
    if (
        op is BinOpKind.LSHR
        and isinstance(rhs, Const)
        and isinstance(lhs, BinExpr)
        and lhs.op is BinOpKind.LSHR
        and isinstance(lhs.rhs, Const)
    ):
        return make_binop(BinOpKind.LSHR, lhs.lhs, Const(lhs.rhs.value + rhs.value))
    # Collapse nested constant additions: (x + a) + b = x + (a+b).
    if (
        op is BinOpKind.ADD
        and isinstance(rhs, Const)
        and isinstance(lhs, BinExpr)
        and lhs.op is BinOpKind.ADD
        and isinstance(lhs.rhs, Const)
    ):
        return make_binop(BinOpKind.ADD, lhs.lhs, Const(lhs.rhs.value + rhs.value))
    # Collapse nested constant masks: (x & a) & b = x & (a&b).
    if (
        op is BinOpKind.AND
        and isinstance(rhs, Const)
        and isinstance(lhs, BinExpr)
        and lhs.op is BinOpKind.AND
        and isinstance(lhs.rhs, Const)
    ):
        return make_binop(BinOpKind.AND, lhs.lhs, Const(lhs.rhs.value & rhs.value))
    return BinExpr(op, lhs, rhs)


_NEGATED_PRED = {
    CmpKind.EQ: CmpKind.NE,
    CmpKind.NE: CmpKind.EQ,
    CmpKind.ULT: CmpKind.UGE,
    CmpKind.ULE: CmpKind.UGT,
    CmpKind.UGT: CmpKind.ULE,
    CmpKind.UGE: CmpKind.ULT,
}


def make_cmp(pred: CmpKind, lhs: Expr, rhs: Expr) -> Expr:
    """Build a comparison with constant folding."""
    if isinstance(lhs, Const) and isinstance(rhs, Const):
        return Const(CMP_FUNCS[pred](lhs.value, rhs.value))
    # Comparisons of a 0/1 comparison result against 0 or 1 collapse to the
    # inner comparison (possibly negated): this is what branch conditions on
    # compare instructions produce, and the solver relies on the flat form.
    if isinstance(lhs, CmpExpr) and isinstance(rhs, Const) and rhs.value in (0, 1):
        keep_inner = {
            (CmpKind.EQ, 1): True,
            (CmpKind.NE, 0): True,
            (CmpKind.UGE, 1): True,
            (CmpKind.UGT, 0): True,
            (CmpKind.EQ, 0): False,
            (CmpKind.NE, 1): False,
            (CmpKind.ULT, 1): False,
            (CmpKind.ULE, 0): False,
        }.get((pred, rhs.value))
        if keep_inner is True:
            return lhs
        if keep_inner is False:
            return CmpExpr(_NEGATED_PRED[lhs.pred], lhs.lhs, lhs.rhs)
    if lhs is rhs:
        if pred in (CmpKind.EQ, CmpKind.ULE, CmpKind.UGE):
            return TRUE
        if pred in (CmpKind.NE, CmpKind.ULT, CmpKind.UGT):
            return FALSE
    # A symbol compared against a constant beyond its width is decidable.
    if isinstance(lhs, Sym) and isinstance(rhs, Const) and rhs.value > lhs.mask:
        if pred in (CmpKind.EQ, CmpKind.UGT, CmpKind.UGE):
            return FALSE
        if pred in (CmpKind.NE, CmpKind.ULT, CmpKind.ULE):
            return TRUE
    return CmpExpr(pred, lhs, rhs)


def make_select(cond: Expr, if_true: Expr, if_false: Expr) -> Expr:
    if isinstance(cond, Const):
        return if_true if cond.value != 0 else if_false
    if if_true is if_false:
        return if_true
    return SelectExpr(cond, if_true, if_false)


def expr_eq(lhs: Expr, rhs: Expr) -> Expr:
    return make_cmp(CmpKind.EQ, lhs, rhs)


def expr_ne(lhs: Expr, rhs: Expr) -> Expr:
    return make_cmp(CmpKind.NE, lhs, rhs)


def expr_not(value: Expr) -> Expr:
    """Logical negation of a 0/1 condition expression."""
    if isinstance(value, Const):
        return FALSE if value.value else TRUE
    if isinstance(value, CmpExpr):
        return CmpExpr(_NEGATED_PRED[value.pred], value.lhs, value.rhs)
    return make_cmp(CmpKind.EQ, value, Const(0))


def simplify(expr: Expr) -> Expr:
    """Re-normalise an expression bottom-up (idempotent, cached per node)."""
    cached = expr._simplified
    if cached is not None:
        return cached
    if isinstance(expr, BinExpr):
        result = make_binop(expr.op, simplify(expr.lhs), simplify(expr.rhs))
    elif isinstance(expr, CmpExpr):
        result = make_cmp(expr.pred, simplify(expr.lhs), simplify(expr.rhs))
    elif isinstance(expr, SelectExpr):
        result = make_select(
            simplify(expr.cond), simplify(expr.if_true), simplify(expr.if_false)
        )
    else:
        result = expr
    result._simplified = result  # simplification is idempotent
    expr._simplified = result
    return result


def symbols_of(expr: Expr) -> frozenset[Sym]:
    """All symbols occurring in ``expr`` (cached on the node, O(1))."""
    return expr.symbols


def evaluate(expr: Expr, assignment: dict[str, int]) -> int:
    """Evaluate ``expr`` under a complete assignment of its symbols.

    Raises ``KeyError`` if any symbol of ``expr`` is missing from
    ``assignment``, including one read only by the untaken arm of a select
    (:func:`dag_evaluator` evaluates both).  Every caller passes a model or
    packet that assigns all of the expression's symbols, or catches the
    ``KeyError`` to mean "not assigned".  Runs through the node's cached
    evaluator, so repeated evaluation of the same (interned) expression is
    pure integer work.
    """
    return (expr._evaluator or dag_evaluator(expr))(assignment)


#: Subtrees at least this deep get their substitutions memoised; shallower
#: ones are cheaper to recompute than to key.
_SUBSTITUTE_MEMO_MIN_DEPTH = 4

#: Deep substitutions, keyed like ``_REDUCE_MEMO``.
_SUBSTITUTE_MEMO = BoundedMemo("substitute")


def substitute(expr: Expr, assignment: dict[str, int]) -> Expr:
    """Replace any symbols present in ``assignment`` by constants.

    Subtrees mentioning no assigned symbol are returned unchanged (O(1)
    thanks to the per-node symbol-name cache), so substitution cost scales
    with the touched part of the tree, not its total size.  Deep touched
    subtrees are additionally memoised on (node, assignment projection):
    hash-consing makes key subexpressions (packed flow keys, havoc chains)
    recur across many constraints, and the backtracking search re-projects
    them under the same partial assignments over and over.
    """
    names = expr.symbol_names
    if not names or not assignment:
        return expr
    for name in names:
        if name in assignment:
            break
    else:
        return expr
    if isinstance(expr, Sym):
        if expr.name in assignment:
            return Const(assignment[expr.name] & expr.mask)
        return expr
    key = None
    if expr.depth >= _SUBSTITUTE_MEMO_MIN_DEPTH:
        key = (expr, tuple(map(assignment.get, names)))
        cached = _SUBSTITUTE_MEMO.get(key)
        if cached is not None:
            return cached
    if isinstance(expr, BinExpr):
        result = make_binop(
            expr.op, substitute(expr.lhs, assignment), substitute(expr.rhs, assignment)
        )
    elif isinstance(expr, CmpExpr):
        result = make_cmp(
            expr.pred, substitute(expr.lhs, assignment), substitute(expr.rhs, assignment)
        )
    elif isinstance(expr, SelectExpr):
        result = make_select(
            substitute(expr.cond, assignment),
            substitute(expr.if_true, assignment),
            substitute(expr.if_false, assignment),
        )
    else:
        raise TypeError(f"cannot substitute into {expr!r}")
    if key is not None:
        _SUBSTITUTE_MEMO[key] = result
    return result


def expr_depth(expr: Expr) -> int:
    """Tree depth of an expression (used to cap solver effort)."""
    return expr.depth


# -- columnar (many-lanes) evaluation ------------------------------------------------
#
# The scoring layer evaluates the *same* expression under many assignments
# at once: one column per symbol, one lane per packet.  The per-op implementations below
# mirror BINOP_FUNCS / CMP_FUNCS exactly on uint64 columns — wrap-around
# ADD/SUB/MUL, shifts >= 64 yielding 0, total division (x/0 = MACHINE_MASK,
# x%0 = x) and 0/1 comparisons — so a columnar evaluation of lane i always
# equals the scalar evaluation under that lane's assignment.

# numpy is the [vector] extra.  Scoring requires it; the analysis only uses
# it to hash columns faster, with identical output either way.
# HAVE_NUMPY ("numpy is importable") is read from the module spec, and numpy
# itself loads on the first columnar call, so the symbolic pipeline never
# pays its import.
HAVE_NUMPY = importlib.util.find_spec("numpy") is not None
_np = None


def load_numpy():
    """The numpy module, imported on first use; ``None`` without numpy.

    A numpy that is found but fails to import turns :data:`HAVE_NUMPY`
    False, so the analysis hashes with its scalar reference exactly as when
    numpy is missing (``tests/test_imports.py`` runs the pipeline both ways
    and compares its output).
    """
    global HAVE_NUMPY, _np
    if _np is None and HAVE_NUMPY:
        try:
            import numpy
        except ImportError:  # pragma: no cover - exercised via tests/test_imports.py
            HAVE_NUMPY = False
        else:
            _np = numpy
    return _np


def require_numpy():
    """The numpy module, or an ``ImportError`` that names the [vector] extra.

    The boundary of everything columnar (the scorer, its streams and the
    columnar frame parser): there is no scalar stand-in to fall back to.
    """
    np = load_numpy()
    if np is None:
        raise ImportError(
            "scoring needs numpy, which is not importable here: "
            "install the [vector] extra (pip install -e .[vector])"
        )
    return np


def _vec_tables(np):
    u64 = np.uint64
    zero = u64(0)
    mask = u64(MACHINE_MASK)
    one = u64(1)

    def udiv(x, y):
        nz = np.not_equal(y, zero)
        return np.where(nz, np.floor_divide(x, np.where(nz, y, one)), mask)

    def urem(x, y):
        nz = np.not_equal(y, zero)
        return np.where(nz, np.remainder(x, np.where(nz, y, one)), x)

    binop = {
        BinOpKind.ADD: np.add,
        BinOpKind.SUB: np.subtract,
        BinOpKind.MUL: np.multiply,
        BinOpKind.UDIV: udiv,
        BinOpKind.UREM: urem,
        BinOpKind.AND: np.bitwise_and,
        BinOpKind.OR: np.bitwise_or,
        BinOpKind.XOR: np.bitwise_xor,
        # numpy's uint64 shifts already give 0 for widths of 64 or more.
        BinOpKind.SHL: np.left_shift,
        BinOpKind.LSHR: np.right_shift,
    }

    def mk_cmp(fn):
        def cmp(x, y, _fn=fn):
            return _fn(x, y).astype(u64)

        return cmp

    cmp = {
        CmpKind.EQ: mk_cmp(np.equal),
        CmpKind.NE: mk_cmp(np.not_equal),
        CmpKind.ULT: mk_cmp(np.less),
        CmpKind.ULE: mk_cmp(np.less_equal),
        CmpKind.UGT: mk_cmp(np.greater),
        CmpKind.UGE: mk_cmp(np.greater_equal),
    }
    return binop, cmp


#: numpy-ufunc twins of BINOP_FUNCS / CMP_FUNCS, built by the first
#: :func:`column_evaluator` call (None until then).
VEC_BINOP_FUNCS = VEC_CMP_FUNCS = None


def _postorder(expr: Expr) -> list[Expr]:
    """The unique nodes of ``expr``'s DAG, children before parents.

    Iterative (no recursion limit on deep hash chains); interning makes
    identity the same as structural equality, so each node appears once.
    """
    order: list[Expr] = []
    seen: set[int] = set()
    stack: list[tuple[Expr, bool]] = [(expr, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        kind = node.__class__
        if kind is BinExpr or kind is CmpExpr:
            stack.append((node.lhs, False))
            stack.append((node.rhs, False))
        elif kind is SelectExpr:
            stack.append((node.cond, False))
            stack.append((node.if_true, False))
            stack.append((node.if_false, False))
    return order


def _dag_schedule(
    expr: Expr, binops: dict, cmps: dict, word, sym_mask
) -> tuple[list[tuple], list[tuple[int, ...]]]:
    """``expr`` as an evaluation *schedule*: one step per unique DAG node.

    Interned expressions are DAGs, not trees: a hash unrolled symbolically
    references each round's partial state several times, so a per-reference
    walk re-derives shared subtrees once per *reference* — exponential work
    on exactly the expressions the scoring layer cares about.  A runner
    executes the steps in order into a slot array, so every node is computed
    exactly once per call, and the last slot is the result.

    Step encodings: ``(0, word(value))`` for a constant, ``(1, name,
    sym_mask(sym))`` for a symbol, ``(2, fn, lhs, rhs)`` for a binary
    operation or comparison (``fn`` from ``binops`` / ``cmps``) and ``(3,
    cond, if_true, if_false)`` for a select, with operands as slot indices.

    The second output lists, per step, the slots whose *last* reader that
    step is: a runner that drops them once the step has run holds only the
    live frontier of the DAG.  The result slot has no reader and is never
    listed.
    """
    order = _postorder(expr)
    slot_of = {id(node): slot for slot, node in enumerate(order)}
    steps: list[tuple] = []
    last_reader: dict[int, int] = {}
    for index, node in enumerate(order):
        kind = node.__class__
        if kind is Const:
            steps.append((0, word(node.value)))
            continue
        if kind is Sym:
            steps.append((1, node.name, sym_mask(node)))
            continue
        if kind is BinExpr:
            operands = (slot_of[id(node.lhs)], slot_of[id(node.rhs)])
            steps.append((2, binops[node.op], *operands))
        elif kind is CmpExpr:
            operands = (slot_of[id(node.lhs)], slot_of[id(node.rhs)])
            steps.append((2, cmps[node.pred], *operands))
        elif kind is SelectExpr:
            operands = (
                slot_of[id(node.cond)],
                slot_of[id(node.if_true)],
                slot_of[id(node.if_false)],
            )
            steps.append((3, *operands))
        else:
            raise TypeError(f"cannot evaluate {node!r}")
        for slot in operands:
            last_reader[slot] = index
    release: list[list[int]] = [[] for _ in steps]
    for slot, index in last_reader.items():
        release[index].append(slot)
    return steps, [tuple(slots) for slots in release]


_COLUMN_EVALUATORS = BoundedMemo("column_evaluators")


def column_evaluator(expr: Expr):
    """A callable mapping ``{symbol name: uint64 column}`` to a result column.

    Lane ``i`` of the result equals ``evaluate(expr, {n: int(col[n][i])})``
    for every expression: the per-op kernels replicate the exact 64-bit
    semantics of :data:`BINOP_FUNCS` / :data:`CMP_FUNCS`, and a select
    evaluates both branches (they are total functions) and merges them
    lanewise.  Runs :func:`_dag_schedule`, so each unique node is computed
    once, and drops each column after its last reader, so a call holds only
    the DAG's live frontier.  Evaluators are cached per interned node.
    Raises ``ImportError`` (:func:`require_numpy`) without numpy.
    """
    global VEC_BINOP_FUNCS, VEC_CMP_FUNCS
    ev = _COLUMN_EVALUATORS.get(expr)
    if ev is not None:
        return ev
    np = require_numpy()
    if VEC_BINOP_FUNCS is None:
        VEC_BINOP_FUNCS, VEC_CMP_FUNCS = _vec_tables(np)
    steps, release = _dag_schedule(
        expr,
        VEC_BINOP_FUNCS,
        VEC_CMP_FUNCS,
        np.uint64,
        lambda sym: None if sym.bits == MACHINE_BITS else np.uint64(sym.mask),
    )
    plan = list(zip(steps, release))

    def ev(columns, _plan=plan, _np=np, _zero=np.uint64(0)):
        slots = [None] * len(_plan)
        for index, (step, dead) in enumerate(_plan):
            tag = step[0]
            if tag == 2:
                slots[index] = step[1](slots[step[2]], slots[step[3]])
            elif tag == 1:
                column = columns[step[1]]
                slots[index] = column if step[2] is None else _np.bitwise_and(column, step[2])
            elif tag == 0:
                slots[index] = step[1]
            else:
                slots[index] = _np.where(
                    _np.not_equal(slots[step[1]], _zero), slots[step[2]], slots[step[3]]
                )
            for slot in dead:
                slots[slot] = None
        return slots[-1]

    _COLUMN_EVALUATORS[expr] = ev
    return ev


def _pair(if_true: int, if_false: int) -> tuple[int, int]:
    return (if_true, if_false)


def _pick(cond: int, arms: tuple[int, int]) -> int:
    return arms[0] if cond else arms[1]


def dag_evaluator(expr: Expr):
    """The node's scalar evaluator: each unique DAG node is computed once.

    The returned callable maps an assignment dict to the expression's value:
    symbols read ``assignment[name] & mask`` and every operator follows
    :data:`BINOP_FUNCS` / :data:`CMP_FUNCS`.  It runs :func:`_dag_schedule`,
    so its cost is linear in the number of *unique* nodes even on heavily
    shared DAGs like the symbolically unrolled flow hash, where a walk per
    reference is exponential.  A select evaluates both arms (every operator,
    ``UDIV``/``UREM`` included, is total, so no value changes), which means
    every symbol of ``expr`` must be assigned: a missing one raises
    ``KeyError`` even when only an untaken arm reads it.

    Built once and cached on the interned node (``_evaluator``); ``Const``
    and ``Sym`` nodes carry a preset one.  The constants are pre-filled into
    a template slot list that each call copies, then the symbols are read
    and the operator steps run, the root's last; a select is two operator
    steps, ``_pick(cond, _pair(if_true, if_false))``.
    """
    ev = expr._evaluator
    if ev is not None:
        return ev
    steps, _ = _dag_schedule(expr, BINOP_FUNCS, CMP_FUNCS, int, lambda sym: sym.mask)
    template = [0] * len(steps)
    reads = []
    ops = []
    for slot, step in enumerate(steps):
        tag = step[0]
        if tag == 0:
            template[slot] = step[1]
        elif tag == 1:
            reads.append((slot, step[1], step[2]))
        elif tag == 2:
            ops.append((slot, step[1], step[2], step[3]))
        else:
            template.append(0)
            arms = len(template) - 1
            ops.append((arms, _pair, step[2], step[3]))
            ops.append((slot, _pick, step[1], arms))
    *body, (_, root_fn, root_x, root_y) = ops

    def ev(assignment, _template=template, _reads=reads, _body=body,
           _fn=root_fn, _x=root_x, _y=root_y):
        slots = _template.copy()
        for slot, name, mask in _reads:
            slots[slot] = assignment[name] & mask
        for slot, fn, x, y in _body:
            slots[slot] = fn(slots[x], slots[y])
        return _fn(slots[_x], slots[_y])

    expr._evaluator = ev
    return ev


# -- extraction: serialization and symbol renaming -----------------------------------
#
# The adversarial-signature layer (repro.scoring) persists predicates —
# mask/shift/compare trees over packet fields — as JSON next to the PR 8
# result store, and lifts the engine's per-packet havoc key expressions
# (symbols like ``pkt3.src_port``) into per-packet-stream predicates over the
# canonical field symbols.  Both operations live here because they must track
# the node classes exactly.

_EXPR_TAGS = {"const", "sym", "bin", "cmp", "select"}

#: Format tag of the serialized expression envelope.  The payload is a
#: *node table*, not a nested tree: expressions are interned DAGs, and a
#: per-reference tree rendering of (say) an unrolled hash — where every
#: round's intermediate feeds several later rounds — expands exponentially
#: in both serialization time and JSON size.  The table lists each unique
#: node exactly once, in dependency order, with children as integer indices.
EXPR_DICT_FORMAT = "expr-dag-v1"


def expr_to_dict(expr: Expr) -> dict:
    """A JSON-safe, sharing-preserving rendering of an expression DAG.

    Returns ``{"k": "expr-dag-v1", "nodes": [...], "root": <index>}`` where
    ``nodes`` holds one entry per *unique* node in iterative postorder and
    children are referenced by table index.  Size and time are linear in
    the number of unique nodes regardless of how often they are shared.

    Operators serialize by enum *name* (``"ADD"``, ``"ULT"``), which is the
    stable identifier — the dialect token (``op.value``) is display syntax.
    """
    nodes: list[dict] = []
    index: dict[int, int] = {}
    for node in _postorder(expr):
        kind = type(node)
        if kind is Const:
            entry = {"k": "const", "v": node.value}
        elif kind is Sym:
            entry = {"k": "sym", "name": node.name, "bits": node.bits}
        elif kind is BinExpr:
            entry = {
                "k": "bin",
                "op": node.op.name,
                "lhs": index[id(node.lhs)],
                "rhs": index[id(node.rhs)],
            }
        elif kind is CmpExpr:
            entry = {
                "k": "cmp",
                "pred": node.pred.name,
                "lhs": index[id(node.lhs)],
                "rhs": index[id(node.rhs)],
            }
        elif kind is SelectExpr:
            entry = {
                "k": "select",
                "cond": index[id(node.cond)],
                "if_true": index[id(node.if_true)],
                "if_false": index[id(node.if_false)],
            }
        else:
            raise TypeError(f"cannot serialize {node!r}")
        index[id(node)] = len(nodes)
        nodes.append(entry)
    return {"k": EXPR_DICT_FORMAT, "nodes": nodes, "root": index[id(expr)]}


def expr_from_dict(data: dict) -> Expr:
    """Rebuild an expression from :func:`expr_to_dict` output.

    Reconstruction goes through the normalising ``make_*`` constructors,
    which are idempotent on already-normalised trees — a round trip of a
    predicate built through them returns the *same* interned node, and
    shared children rebuild once (by table index), never per reference.
    """
    if not isinstance(data, dict) or data.get("k") != EXPR_DICT_FORMAT:
        raise ValueError(f"not a serialized expression: {data!r}")
    raw_nodes = data["nodes"]
    root = int(data["root"])
    if not isinstance(raw_nodes, list) or not 0 <= root < len(raw_nodes):
        raise ValueError(f"malformed expression table: {data!r}")
    built: list[Expr] = []

    def child(entry: dict, field: str, limit: int) -> Expr:
        ref = int(entry[field])
        if not 0 <= ref < limit:
            raise ValueError(f"forward or out-of-range node reference: {entry!r}")
        return built[ref]

    for position, entry in enumerate(raw_nodes):
        if not isinstance(entry, dict) or entry.get("k") not in _EXPR_TAGS:
            raise ValueError(f"not a serialized expression node: {entry!r}")
        kind = entry["k"]
        if kind == "const":
            node = Const(int(entry["v"]))
        elif kind == "sym":
            node = Sym(str(entry["name"]), bits=int(entry["bits"]))
        elif kind == "bin":
            node = make_binop(
                BinOpKind[entry["op"]],
                child(entry, "lhs", position),
                child(entry, "rhs", position),
            )
        elif kind == "cmp":
            node = make_cmp(
                CmpKind[entry["pred"]],
                child(entry, "lhs", position),
                child(entry, "rhs", position),
            )
        else:
            node = make_select(
                child(entry, "cond", position),
                child(entry, "if_true", position),
                child(entry, "if_false", position),
            )
        built.append(node)
    return built[root]


def rename_symbols(expr: Expr, mapping: dict[str, Sym]) -> Expr:
    """Rebuild ``expr`` with every symbol in ``mapping`` replaced.

    Replacement symbols keep their own declared widths (a renamed symbol is
    masked to the *new* width on evaluation).  Subtrees mentioning no mapped
    symbol are returned unchanged, exactly like :func:`substitute`.
    """
    names = expr.symbol_names
    if not names:
        return expr
    for name in names:
        if name in mapping:
            break
    else:
        return expr
    kind = type(expr)
    if kind is Sym:
        return mapping.get(expr.name, expr)
    if kind is BinExpr:
        return make_binop(
            expr.op, rename_symbols(expr.lhs, mapping), rename_symbols(expr.rhs, mapping)
        )
    if kind is CmpExpr:
        return make_cmp(
            expr.pred, rename_symbols(expr.lhs, mapping), rename_symbols(expr.rhs, mapping)
        )
    if kind is SelectExpr:
        return make_select(
            rename_symbols(expr.cond, mapping),
            rename_symbols(expr.if_true, mapping),
            rename_symbols(expr.if_false, mapping),
        )
    raise TypeError(f"cannot rename symbols in {expr!r}")

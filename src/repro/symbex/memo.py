"""One bounded, counting memo for the symbolic layer's pure analyses.

The solver is asked about both sides of every branch and about every
cache-model candidate, so the layer memoises what it derives from interned
expression nodes: reductions, substitutions, propagation plans, inversions,
scorer evaluators and the incremental contexts' fingerprints, verdicts and
recorded waves.  Every such memo is a :class:`BoundedMemo`:

* it holds at most :data:`MEMO_LIMIT` entries and empties itself when full
  (every entry is a pure function of its key, so clearing costs only future
  sharing, never a different answer);
* it counts its hits, misses and self-clears, so a memo that does not pay
  shows it (``CONTEXT_STATS.as_dict()`` reports every memo's counters);
* it registers itself in :data:`MEMOS`, and :func:`clear_memos` empties them
  all.  The memos key on interned nodes or on their ``id()``, so they must
  not outlive the intern tables: ``clear_expression_caches`` calls it.

Only ``get`` is counted and only ``memo[key] = value`` is bounded; callers
use exactly those two.
"""

from __future__ import annotations

#: Entries one memo holds before it clears itself.
MEMO_LIMIT = 1 << 17

#: ``get`` default for memos whose stored values may be ``None``.
MISSING = object()

#: Every memo created, in creation order.
MEMOS: list["BoundedMemo"] = []


class BoundedMemo(dict):
    """A ``dict`` that clears itself when full and counts its use."""

    __slots__ = ("name", "limit", "hits", "misses", "clears")

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name
        self.limit = MEMO_LIMIT
        self.hits = 0
        self.misses = 0
        #: Times the memo filled up and emptied itself.
        self.clears = 0
        MEMOS.append(self)

    def get(self, key, default=None):
        value = dict.get(self, key, MISSING)
        if value is MISSING:
            self.misses += 1
            return default
        self.hits += 1
        return value

    def __setitem__(self, key, value) -> None:
        if len(self) >= self.limit:
            self.clear()
            self.clears += 1
        dict.__setitem__(self, key, value)

    def counters(self) -> dict[str, int]:
        """``{name}_hits`` / ``_misses`` / ``_clears`` as flat integer keys."""
        return {
            f"{self.name}_hits": self.hits,
            f"{self.name}_misses": self.misses,
            f"{self.name}_clears": self.clears,
        }

    def reset_counters(self) -> None:
        self.hits = self.misses = self.clears = 0


def clear_memos() -> None:
    """Empty every memo (tests, warm-process measurements, intern clears)."""
    for memo in MEMOS:
        memo.clear()

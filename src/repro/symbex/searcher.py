"""State-selection strategies ("searchers", §3.4, §4).

KLEE decides which pending state to explore next through a pluggable
searcher; CASTAN's custom searcher orders states by their estimated cost
(current cycles consumed plus the annotated potential cost of the next
instruction) and always picks the most expensive.  DFS/BFS/random searchers
are provided for the ablation benchmarks.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque

from repro.symbex.state import ExecutionState


class Searcher:
    """Interface: a mutable pool of pending execution states."""

    def add(self, state: ExecutionState) -> None:
        raise NotImplementedError

    def pop(self) -> ExecutionState:
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def extend(self, states) -> None:
        """Add ``states`` in order: the pool ends up as after ``add`` on each."""
        for state in states:
            self.add(state)

    def drain(self) -> list[ExecutionState]:
        """Empty the pool, returning its states in the order ``pop`` would."""
        drained = []
        while len(self):
            drained.append(self.pop())
        return drained

    @property
    def empty(self) -> bool:
        return len(self) == 0

    @property
    def name(self) -> str:
        return type(self).__name__


class CastanSearcher(Searcher):
    """Max-cost priority search (the paper's directed heuristic).

    States are ordered by ``state.priority`` (current + potential cost);
    ties go to the state inserted most recently, which keeps the search
    depth-first-ish among equally promising states — the behaviour the
    paper relies on to "pick the worst among almost equal candidates".
    A small bonus is applied to states marked as preferred loop iterations
    so that, all else being equal, the engine keeps deepening loops.
    """

    def __init__(self, loop_iteration_bonus: int = 1) -> None:
        self._heap: list[tuple[int, int, ExecutionState]] = []
        self._counter = itertools.count()
        self.loop_iteration_bonus = loop_iteration_bonus

    def _entry(self, state: ExecutionState) -> tuple[int, int, ExecutionState]:
        priority = state.priority
        if state.preferred_loop_iteration:
            priority += self.loop_iteration_bonus
        # Python's heapq is a min-heap: negate priority; negate the counter
        # so that, on ties, the most recently added state pops first.  The
        # counter is unique, so entries are totally ordered without ever
        # comparing states, and pop order is the sorted order of the entries
        # however the heap was built.
        return (-priority, -next(self._counter), state)

    def add(self, state: ExecutionState) -> None:
        heapq.heappush(self._heap, self._entry(state))

    def pop(self) -> ExecutionState:
        return heapq.heappop(self._heap)[2]

    def extend(self, states) -> None:
        self._heap.extend(map(self._entry, states))
        heapq.heapify(self._heap)

    def drain(self) -> list[ExecutionState]:
        self._heap.sort()
        drained = [entry[2] for entry in self._heap]
        self._heap.clear()
        return drained

    def __len__(self) -> int:
        return len(self._heap)


class DepthFirstSearcher(Searcher):
    """LIFO exploration (KLEE's DFS) — ablation baseline."""

    def __init__(self) -> None:
        self._stack: list[ExecutionState] = []

    def add(self, state: ExecutionState) -> None:
        self._stack.append(state)

    def pop(self) -> ExecutionState:
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)


class BreadthFirstSearcher(Searcher):
    """FIFO exploration — ablation baseline."""

    def __init__(self) -> None:
        self._queue: deque[ExecutionState] = deque()

    def add(self, state: ExecutionState) -> None:
        self._queue.append(state)

    def pop(self) -> ExecutionState:
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)


class RandomSearcher(Searcher):
    """Uniformly random state selection — ablation baseline."""

    def __init__(self, seed: int = 0) -> None:
        self._states: list[ExecutionState] = []
        self._rng = random.Random(seed)

    def add(self, state: ExecutionState) -> None:
        self._states.append(state)

    def pop(self) -> ExecutionState:
        index = self._rng.randrange(len(self._states))
        self._states[index], self._states[-1] = self._states[-1], self._states[index]
        return self._states.pop()

    def __len__(self) -> int:
        return len(self._states)


SEARCHERS = {
    "castan": CastanSearcher,
    "dfs": DepthFirstSearcher,
    "bfs": BreadthFirstSearcher,
    "random": RandomSearcher,
}

#: Searchers whose behaviour depends on a PRNG seed.
_SEEDED_SEARCHERS = frozenset({"random"})


def make_searcher(name: str, seed: int | None = None, **kwargs) -> Searcher:
    """Instantiate a searcher by name (``castan``, ``dfs``, ``bfs``, ``random``).

    ``seed`` is forwarded to searchers that are randomised (currently
    ``random``) so ablation runs honor the analysis seed; deterministic
    searchers ignore it.
    """
    try:
        factory = SEARCHERS[name]
    except KeyError:
        raise ValueError(f"unknown searcher {name!r}; options: {sorted(SEARCHERS)}") from None
    if seed is not None and name in _SEEDED_SEARCHERS:
        kwargs["seed"] = seed
    return factory(**kwargs)


def select_beam(states: list[ExecutionState], width: int) -> list[ExecutionState]:
    """Pick the top-``width`` frontier states for the next beam round.

    States are ranked by estimated total cost — ``state.priority``, i.e.
    current + annotated potential cost, the same estimate the CASTAN
    searcher orders by — with (packets_processed, current_cost) breaking
    ties.  Ranking by realised cost alone would always prefer a cheap state
    parked at the packet boundary over a mid-packet state being driven down
    an expensive subtree, throwing away exactly the paths the beam exists to
    keep.  Final ties break toward the earliest-created state (lowest sid),
    which makes beam selection deterministic across runs.
    """
    if width <= 0:
        return []
    ranked = sorted(
        states,
        key=lambda s: (-s.priority, -s.packets_processed, -s.current_cost, s.sid),
    )
    return ranked[:width]

"""Outside-in spans: timing recorded from the benchmark's own files.

A :class:`Recorder` keeps spans in memory (name, start, end, parent, op id)
and installs itself only by wrapping *public* callables of the program —
module-level names, methods, classmethods — which :meth:`Recorder.restore`
puts back.  Nothing under ``src/`` knows it is being timed.

Self time is the arithmetic every per-layer number rests on: a span's
duration minus the part of it its direct children cover.  Summed over all
spans of an operation it equals the operation's wall time, so attributing
each span's self time to exactly one layer (:func:`attribute`) yields an
exclusive breakdown whose remainder is the root span's own self time.
"""

from __future__ import annotations

import inspect
from contextlib import contextmanager
from time import perf_counter

#: Field positions of one span record (a list, for cheap in-place close).
NAME, START, END, PARENT, OP = range(5)


class Recorder:
    """In-memory span store plus the wrap/restore machinery."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: ``(span index, extracted value)`` for wraps given an ``extract``.
        self.extracted: list[tuple[int, object]] = []
        #: Identifier shared by every span of the current operation.
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.op])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, op: str | None = None):
        """Record the block as one span; ``op`` names a new operation."""
        if op is not None:
            self.op = op
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    # -- installation ---------------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None = None, extract=None) -> None:
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``owner`` is a module or a class; plain functions, classes used as
        constructors, methods, classmethods and generator functions are
        handled.  ``extract(result)`` (optional) reduces the return value to
        something small that is kept in :attr:`extracted` next to the span's
        index — counters read off public stats objects.
        """
        if attr.startswith("_"):
            raise ValueError(f"refusing to wrap non-public name {attr!r}")
        original = vars(owner)[attr]
        function = original.__func__ if isinstance(original, classmethod) else original
        timed = self._timed(function, name or attr, extract)
        setattr(owner, attr, classmethod(timed) if isinstance(original, classmethod) else timed)
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        """Put every wrapped callable back (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _timed(self, function, name: str, extract):
        open_span, close_span = self.open, self.close

        if inspect.isgeneratorfunction(function):
            # Time only what the generator itself runs: one span per
            # resumption, so the consumer's work between items is not ours.
            def timed_generator(*args, **kwargs):
                iterator = function(*args, **kwargs)
                while True:
                    index = open_span(name)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close_span(index)
                    yield item

            return timed_generator

        extracted = self.extracted

        def timed(*args, **kwargs):
            index = open_span(name)
            try:
                result = function(*args, **kwargs)
            finally:
                close_span(index)
            if extract is not None:
                extracted.append((index, extract(result)))
            return result

        return timed


def self_times(spans: list[list]) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    selfs = [span[END] - span[START] for span in spans]
    for span in spans:
        if span[PARENT] >= 0:
            selfs[span[PARENT]] -= span[END] - span[START]
    return selfs


def attribute(spans: list[list], layer_of, absorbing=()) -> dict[str, dict]:
    """Exclusive per-layer totals: ``{layer: {"self_s", "calls"}}``.

    ``layer_of(name, parent_name)`` maps a span to its layer (``None`` =
    unattributed).  A span whose layer is in ``absorbing`` is a *phase*: all
    its descendants count towards it, whatever they would map to alone —
    solver calls under havoc reconciliation are reconciliation time.
    """
    selfs = self_times(spans)
    layers: list[str | None] = []
    absorbed: list[bool] = []
    totals: dict[str, dict] = {}
    for index, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0 and absorbed[parent]:
            layer, phase = layers[parent], True
        else:
            layer = layer_of(span[NAME], spans[parent][NAME] if parent >= 0 else None)
            phase = layer in absorbing
        layers.append(layer)
        absorbed.append(phase)
        if layer is None:
            continue
        row = totals.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += selfs[index]
        # A phase counts once; its absorbed descendants are not calls of it.
        if not (parent >= 0 and absorbed[parent]):
            row["calls"] += 1
    return totals

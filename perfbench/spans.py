"""In-memory spans for the traced run, and their self-time arithmetic.

A span is ``(name, start, end, parent, op)``: ``parent`` is the index of the
enclosing span (``-1`` at the root) and ``op`` the operation it belongs to.
A span's self time is its duration minus the part of it that its child
spans cover.  Spans are kept in a list and written out once, at the end.
"""

from __future__ import annotations

from array import array
import functools
import sys
import time


class SpanRecorder:
    """Single-threaded nested span recorder.

    Fields live in flat arrays rather than one object per span, so a run of
    a few hundred thousand spans adds nothing for the cyclic garbage
    collector to scan.
    """

    def __init__(self) -> None:
        self.names: "list[str]" = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.ops = array("q")
        self._stack: "list[int]" = []
        self.op = -1

    def begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        now = time.perf_counter()
        if not self._stack or self._stack.pop() != index:
            raise RuntimeError("span closed out of order")
        self.ends[index] = now

    @property
    def spans(self) -> "list[tuple]":
        """Every span as ``(name, start, end, parent, op)``."""
        return list(zip(self.names, self.starts, self.ends, self.parents, self.ops))

    def wrap(self, fn, name: str):
        """``fn`` recording one ``name`` span per call."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                end(index)

        return traced


def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> "list[float]":
    """Self time of every span: duration minus the union its children cover
    (children clipped to the parent's interval)."""
    children: "dict[int, list]" = {}
    for name, start, end, parent, _op in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_name, start, end, _parent, _op) in enumerate(spans):
        kids = [
            (max(s, start), min(e, end))
            for s, e in children.get(i, ())
            if min(e, end) > max(s, start)
        ]
        out.append((end - start) - _covered(kids))
    return out


def self_time_by_name(spans) -> "dict[str, float]":
    """Summed self time per span name."""
    totals: "dict[str, float]" = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] = totals.get(span[0], 0.0) + own
    return totals


def count_by_name(spans) -> "dict[str, int]":
    counts: "dict[str, int]" = {}
    for span in spans:
        counts[span[0]] = counts.get(span[0], 0) + 1
    return counts


def patch_everywhere(original, replacement, prefix: str = "repro") -> "list":
    """Rebind every module-level reference to ``original`` under ``prefix``.

    Functions imported by name (``from m import f``) are separate bindings,
    so each importing module is patched.  Returns the undo list for
    :func:`unpatch`.
    """
    undo = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == prefix or name.startswith(prefix + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, original))
    return undo


def unpatch(undo) -> None:
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)

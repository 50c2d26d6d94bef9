"""In-memory spans around the public entry points of levelkgp.

A span records its name, start, end and the span that was open when it
started (its parent).  Spans stay in memory and are written out once,
when the run ends.  The layer of a span is its name up to the first
dot, so ``gp.policy_at`` belongs to ``gp``; spans named ``bench.*`` are
the benchmark's own work and belong to no layer of the program.

Wrappers are installed on module and class attributes from outside the
package and removed again by ``unwrap_all``; nothing inside ``src/`` is
edited.  The run is single-threaded, so one stack gives every parent.
"""

from __future__ import annotations

import functools
import gzip
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterable, Optional


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "size")

    def __init__(self, id: int, name: str, start: float, end: float,
                 parent: Optional[int], size: Optional[int] = None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        # optional work size, e.g. the number of levels one query covers
        self.size = size

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, self.clock(), float("nan"), parent)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = self.clock()
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed while {top.name} is open")

    @contextmanager
    def span(self, name: str):
        s = self.open(name)
        try:
            yield s
        finally:
            self.close(s)

    def wrap(self, owner, attr: str, name: str,
             on_result: Optional[Callable[[Span, object, tuple, dict], None]] = None):
        """Replace ``owner.attr`` by a function that records a span per call.

        ``on_result(span, result, args, kwargs)`` runs after the span has
        closed, so its own cost stays out of the span.
        """
        raw = owner.__dict__[attr]
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            s = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(s)
            if on_result is not None:
                on_result(s, result, args, kwargs)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, raw))

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("id,parent,name,start,end,size\n")
            for s in self.spans:
                parent = "" if s.parent is None else s.parent
                size = "" if s.size is None else s.size
                fh.write(f"{s.id},{parent},{s.name},{s.start!r},{s.end!r},{size}\n")


def covered_length(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Each span's duration minus the time its child spans cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children.get(s.id, ()), s.start, s.end)
        for s in spans
    }


def subtree_ids(spans: Iterable[Span], prefix: str) -> set[int]:
    """Ids of spans named with the prefix and of every span below them."""
    found: set[int] = set()
    for s in spans:  # a parent is always created before its children
        if s.name.startswith(prefix) or s.parent in found:
            found.add(s.id)
    return found


def layer_self_times(spans: Iterable[Span], skip: frozenset = frozenset()) -> dict[str, float]:
    """Self time summed per layer, leaving out the spans whose ids are in skip."""
    spans = list(spans)
    own = self_times(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        if s.id not in skip:
            out[s.layer] += own[s.id]
    return dict(out)

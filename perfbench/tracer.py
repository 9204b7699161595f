"""In-memory spans and counters recorded around calls into the package.

A span is ``[name, start, end, parent, op]``: ``start`` and ``end`` are
``time.perf_counter()`` readings, ``parent`` indexes the span that was open when
this one began (``-1`` for an operation's root span) and ``op`` is the id of the
operation every span of one request shares.  Spans stay in memory and are
written out once, when the run ends.

A span's self time is its duration minus the part of its interval covered by
its child spans.  The self time of an operation's root span is therefore the
operation wall time that no layer span covers.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from typing import Callable

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    """Records spans and per-operation counters while an operation is open."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.op: int | None = None
        self.op_labels: dict[int, str] = {}
        # objects a wrapper wants to remember for the rest of the open operation
        self.op_state: dict[str, dict] = {}
        self._stack: list[int] = []

    def begin(self, name: str, start: float | None = None) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter() if start is None else start, None, parent, self.op])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int, end: float | None = None) -> None:
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][NAME]!r} closed out of order")
        self._stack.pop()
        self.spans[index][END] = time.perf_counter() if end is None else end

    def begin_op(self, op: int, label: str) -> int:
        if self.op is not None:
            raise RuntimeError("operations do not nest")
        self.op = op
        self.op_labels[op] = label
        self.op_state = {}
        return self.begin("op")

    def end_op(self, index: int) -> None:
        self.end(index)
        self.op = None
        self.op_state = {}

    def add(self, metric: str, value: float) -> None:
        if self.op is not None:
            self.counts[self.op][metric] += value

    def wrap(self, name: str | Callable, fn: Callable, after: Callable | None = None) -> Callable:
        """Wrap ``fn`` so each call inside an open operation records a span.

        ``name`` may be a callable ``(args, kwargs) -> str`` for functions whose
        layer depends on an argument.  ``after(tracer, result, args, kwargs)``
        runs once the span has closed, to record counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            index = self.begin(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(self, result, args, kwargs)
            return result

        return wrapper

    def count_calls(self, metric: str, fn: Callable) -> Callable:
        """Wrap ``fn`` to count calls made inside an open operation, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.add(metric, 1)
            return fn(*args, **kwargs)

        return wrapper

    def graft(self, spans: list[list], counts: dict[str, float]) -> None:
        """Attach spans recorded by another process under the open span."""
        if self.op is None:
            raise RuntimeError("graft needs an open operation")
        base = len(self.spans)
        parent = self._stack[-1]
        for name, start, end, child_parent, _ in spans:
            self.spans.append([name, start, end, parent if child_parent < 0 else base + child_parent, self.op])
        for metric, value in counts.items():
            self.add(metric, value)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts, "op_labels": self.op_labels}, fh)


def covered(interval: tuple[float, float], children: list[tuple[float, float]]) -> float:
    """Length of the part of ``interval`` that the union of ``children`` covers."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children if min(b, hi) > max(a, lo))
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of every span, in span order."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        (span[END] - span[START]) - covered((span[START], span[END]), children.get(i, []))
        for i, span in enumerate(spans)
    ]

"""In-memory span recorder for the traced replay.

A span is ``(name, start_ns, end_ns, parent, op_id)``: ``parent`` is the
index of the enclosing span in ``spans`` (``None`` for an operation's root
span) and every span of one operation shares its ``op_id``.  Spans stay in
memory while the benchmark runs and are written out once at the end.
Times are read from the process CPU clock, like the untraced run's.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from typing import Callable, Iterator


class Tracer:
    """Records a span around each layer call made through :meth:`call`."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int | None, int | None]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._parent: int | None = None
        self._op_id: int | None = None

    @contextlib.contextmanager
    def op(self, op_id: int) -> Iterator[None]:
        """Root span of one operation; layer spans inside it are its children."""
        index = len(self.spans)
        self.spans.append(("op", 0, 0, None, op_id))
        self._parent, self._op_id = index, op_id
        start = time.process_time_ns()
        try:
            yield
        finally:
            self.spans[index] = ("op", start, time.process_time_ns(), None, op_id)
            self._parent = self._op_id = None

    def call(self, name: str, fn: Callable, *args):
        start = time.process_time_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, time.process_time_ns(),
                               self._parent, self._op_id))

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def totals(self) -> tuple[dict[str, int], dict[str, int]]:
        """(calls, busy nanoseconds) per span name."""
        calls: dict[str, int] = defaultdict(int)
        busy: dict[str, int] = defaultdict(int)
        for name, start, end, _, _ in self.spans:
            calls[name] += 1
            busy[name] += end - start
        return calls, busy

    def write(self, path: str) -> None:
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w", encoding="utf-8") as out:
            out.write(json.dumps({"fields": ["name", "start_ns", "end_ns",
                                             "parent", "op"]}) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


class NullTracer:
    """Same interface as :class:`Tracer`, recording nothing."""

    def call(self, name: str, fn: Callable, *args):
        return fn(*args)

    def count(self, name: str, amount: int = 1) -> None:
        pass

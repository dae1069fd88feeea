"""In-memory span recorder that wraps library functions by attribute.

Every wrapped call records one span: its name, start, end, the span that was
open when it began (its parent) and the benchmark operation it belongs to.
A wrapper replaces the attribute on the object the *caller* looks the name up
on, so a function that another module imported by name has to be wrapped in
that module as well.  Spans stay in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int] = []
        self.notes: dict[int, dict] = {}
        self.absent: list[str] = []
        self.op = -1  # operation index new spans belong to; -1 is set-up
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._by_name: dict = {}
        self._indexed = 0  # number of spans in _by_name

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self.op)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def wrap(self, owner, attr: str, name: str, note=None) -> None:
        """Record a span named ``name`` around every call of ``owner.attr``.

        ``note(args, result)`` may return a small dict kept with the span.  A
        missing attribute is listed in ``absent`` instead of failing the run,
        and a note that no longer fits the function's signature is kept as
        an error instead of failing the operation.
        """
        fn = vars(owner).get(attr)
        if fn is None:
            self.absent.append(f"{owner.__name__}.{attr}")
            return

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if note is not None:
                try:
                    self.notes[idx] = note(args, result)
                except Exception as exc:  # a changed signature must not fail the operation
                    self.notes[idx] = {"note_error": f"{type(exc).__name__}: {exc}"}
            return result

        setattr(owner, attr, traced)
        self._restore.append((owner, attr, fn))

    def unwrap_all(self) -> None:
        while self._restore:
            owner, attr, fn = self._restore.pop()
            setattr(owner, attr, fn)

    # -- analysis ---------------------------------------------------------

    def durations(self) -> list[float]:
        return [e - s for s, e in zip(self.starts, self.ends)]

    def self_times(self) -> list[float]:
        """Duration minus the time covered by child spans (children never overlap)."""
        dur = self.durations()
        out = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                out[parent] -= dur[idx]
        return out

    def within(self, idx: int, ancestor: str) -> int:
        """Index of the nearest enclosing span named ``ancestor``, or -1."""
        idx = self.parents[idx]
        while idx >= 0 and self.names[idx] != ancestor:
            idx = self.parents[idx]
        return idx

    def select(self, name: str, ops=None, under: str | None = None) -> list[int]:
        """Spans named ``name`` in operations ``ops``, optionally inside ``under``."""
        if self._indexed != len(self.names):
            self._by_name = defaultdict(list)
            for i, n in enumerate(self.names):
                self._by_name[n].append(i)
            self._indexed = len(self.names)
        return [
            i
            for i in self._by_name.get(name, ())
            if (ops is None or self.ops[i] in ops)
            and (under is None or self.within(i, under) >= 0)
        ]

    def counts(self, op: int) -> dict:
        """Calls per span name within one operation."""
        return dict(Counter(n for n, o in zip(self.names, self.ops) if o == op))

    def write(self, path) -> None:
        table = sorted(set(self.names))
        index = {n: k for k, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "names": table,
                    "fields": ["name", "start_s", "end_s", "parent", "op"],
                    "spans": [
                        [index[n], round(s - t0, 9), round(e - t0, 9), p, o]
                        for n, s, e, p, o in zip(
                            self.names, self.starts, self.ends, self.parents, self.ops
                        )
                    ],
                    "notes": {str(k): v for k, v in self.notes.items()},
                },
                fh,
            )

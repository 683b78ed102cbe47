"""Outside-in span tracer for the traced benchmark run.

The program is measured *from outside*: each table entry names an
attribute in the namespace that consumes it (``"module:attr.path"``) and
the tracer swaps in a wrapper for the duration of the traced phase,
restoring the original afterwards.  Nothing under ``src/`` is edited.

A span is ``[name, start_ns, end_ns, parent, root, attrs]`` kept in
memory; ``parent`` and ``root`` are indices (``-1`` = none).  A *root* is
one unit of user-visible work (one training step, one served batch).
Self time is duration minus the children's durations, and per root

    sum(self times) + unattributed == root wall        (integer ns)

holds exactly; :meth:`Tracer.check_conservation` verifies it from the
gaps between spans, so an overlapping or escaping span fails the run.

A table entry whose target does not resolve is an error, never a skip:
a silently unwrapped layer would read as "free".
"""

from __future__ import annotations

import importlib
import inspect
from time import perf_counter_ns
from typing import Any, Callable, Iterable

SPAN, COUNT, ROOT = "span", "count", "root"

NAME, START, END, PARENT, ROOT_IDX, ATTRS = range(6)


class TracerError(Exception):
    """A target that does not resolve, or a broken span structure."""


class Tracer:
    """Wraps targets, records spans and per-root call counts."""

    def __init__(self, clock: Callable[[], int] = perf_counter_ns) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.roots: list[list[int]] = []      # [start_ns, end_ns]
        self.counts: dict[str, int] = {}      # calls made inside roots
        self._stack: list[int] = []
        self._root = -1
        self._installed: list[tuple[Any, str, Any]] = []

    # -- roots ---------------------------------------------------------

    def begin_root(self, now: int | None = None) -> None:
        if self._root >= 0:
            raise TracerError("begin_root with a root already open")
        if self._stack:
            raise TracerError("begin_root inside an open span")
        self.roots.append([self.clock() if now is None else now, -1])
        self._root = len(self.roots) - 1

    def end_root(self, now: int | None = None) -> None:
        """Close the open root, if any."""
        if self._root < 0:
            return
        if self._stack:
            raise TracerError("end_root inside an open span")
        self.roots[self._root][1] = self.clock() if now is None else now
        self._root = -1

    # -- wrapping ------------------------------------------------------

    def _wrap(self, fn: Callable, name: str, kind: str,
              attrs: Callable | None) -> Callable:
        tr = self
        if kind == COUNT:
            def counted(*args, **kwargs):
                if tr._root >= 0:
                    tr.counts[name] = tr.counts.get(name, 0) + 1
                return fn(*args, **kwargs)
            return counted

        def traced(*args, **kwargs):
            if kind == ROOT:
                now = tr.clock()
                tr.end_root(now)
                tr.begin_root(now)
            rec = [name, 0, 0, tr._stack[-1] if tr._stack else -1,
                   tr._root, None]
            tr._stack.append(len(tr.spans))
            tr.spans.append(rec)
            rec[START] = tr.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = tr.clock()
                tr._stack.pop()
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result
        return traced

    def install(self, table: Iterable[tuple]) -> None:
        """Wrap every ``(target, name, kind[, attrs])`` entry.

        Resolves all targets before wrapping any, so an unresolved one
        raises :class:`TracerError` with nothing left half-patched.
        """
        resolved = []
        for entry in table:
            target, name, kind = entry[:3]
            attrs = entry[3] if len(entry) > 3 else None
            owner, attr = resolve(target)
            resolved.append((owner, attr, name, kind, attrs))
        for owner, attr, name, kind, attrs in resolved:
            static = inspect.getattr_static(owner, attr)
            fn = getattr(owner, attr)
            wrapper = self._wrap(fn, name, kind, attrs)
            if isinstance(static, staticmethod):
                wrapper = staticmethod(wrapper)
            elif isinstance(static, classmethod):
                raise TracerError(f"{owner!r}.{attr}: classmethods are "
                                  "not supported")
            self._installed.append((owner, attr, static))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, static = self._installed.pop()
            setattr(owner, attr, static)

    # -- analysis ------------------------------------------------------

    def check_conservation(self) -> None:
        """Verify nesting and the exact per-root identity.

        For each root the unattributed time is computed from the *gaps*
        between its top-level spans, independently of the self times, so
        the identity only holds if spans nest properly, stay inside
        their root and do not overlap.
        """
        spans = self.spans
        own = self.self_times()
        top: dict[int, list[int]] = {}
        for i, s in enumerate(spans):
            if s[END] < s[START]:
                raise TracerError(f"span {i} {s[NAME]} ends before it starts")
            p = s[PARENT]
            if p >= 0:
                ps = spans[p]
                if not (ps[START] <= s[START] and s[END] <= ps[END]):
                    raise TracerError(
                        f"span {i} {s[NAME]} escapes its parent {ps[NAME]}")
                if ps[ROOT_IDX] != s[ROOT_IDX]:
                    raise TracerError(
                        f"span {i} {s[NAME]} and its parent are in "
                        "different roots")
            elif s[ROOT_IDX] >= 0:
                top.setdefault(s[ROOT_IDX], []).append(i)
        self_sum: dict[int, int] = {}
        for i, s in enumerate(spans):
            if own[i] < 0:
                raise TracerError(
                    f"span {i} {s[NAME]}: children outlast it (overlap)")
            if s[ROOT_IDX] >= 0:
                self_sum[s[ROOT_IDX]] = self_sum.get(s[ROOT_IDX], 0) + own[i]
        for r, (start, end) in enumerate(self.roots):
            if end < start:
                raise TracerError(f"root {r} was never closed")
            cursor, gaps = start, 0
            for i in top.get(r, ()):
                s = spans[i]
                if s[START] < cursor:
                    raise TracerError(
                        f"span {i} {s[NAME]} overlaps its predecessor "
                        f"in root {r}")
                gaps += s[START] - cursor
                cursor = s[END]
            if cursor > end:
                raise TracerError(f"root {r}: a span outlasts the root")
            gaps += end - cursor
            if self_sum.get(r, 0) + gaps != end - start:
                raise TracerError(
                    f"root {r}: self {self_sum.get(r, 0)} + unattributed "
                    f"{gaps} != wall {end - start} ns")

    def self_times(self) -> list[int]:
        """Self time of every span (duration minus children), in ns."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own


def resolve(target: str) -> tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, final attribute name)."""
    module_name, sep, path = target.partition(":")
    if not sep or not path:
        raise TracerError(f"target {target!r} is not 'module:attr.path'")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise TracerError(f"target {target!r}: {exc}") from exc
    *parents, attr = path.split(".")
    for part in parents:
        if not hasattr(owner, part):
            raise TracerError(f"target {target!r}: no attribute {part!r}")
        owner = getattr(owner, part)
    if not hasattr(owner, attr):
        raise TracerError(f"target {target!r}: no attribute {attr!r}")
    return owner, attr

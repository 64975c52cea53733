"""An in-memory span recorder that times calls from outside the program.

:meth:`Tracer.patch` replaces a public function or method with a wrapper
that records a span (name, start, end, parent, thread) around each call.
Spans stay in memory and :meth:`Tracer.write` saves them as JSON lines at
the end.  A span's parent is the innermost open span of the same thread,
and its self time is its duration minus the part its children cover.

The wrappers are inert in other processes (a forked pool worker inherits
them) and while :attr:`Tracer.enabled` is false, so the benchmark's own
input generation and correctness checks are never recorded.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


#: Marks a class attribute that :meth:`Tracer.replace` found on a base class.
_INHERITED = object()


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread")

    def __init__(self, name: str, start: float, parent: "Span | None", thread: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.thread = thread

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_time(start: float, end: float, children) -> float:
    """``end - start`` minus the union of the child intervals inside it."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(children):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return (end - start) - covered


class Tracer:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        #: Extra quantities measured at the same boundaries (bytes, hits).
        self.counts: Counter = Counter()
        #: ``owner.attr`` targets that do not exist in this version.
        self.missing: set[str] = set()
        self.enabled = False
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _active(self) -> bool:
        return self.enabled and os.getpid() == self._pid

    def add(self, key: str, amount: float = 1) -> None:
        """Add to one of :attr:`counts` (thread-safe)."""
        with self._lock:
            self.counts[key] += amount

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own work)."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def open(self, name: str) -> "Span | None":
        if not self._active():
            return None
        stack = self._stack()
        span = Span(
            name,
            time.perf_counter(),
            stack[-1] if stack else None,
            threading.current_thread().name,
        )
        stack.append(span)
        return span

    def close(self, span: "Span | None") -> None:
        if span is None:
            return
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def patch(self, owner, attr: str, name, on_exit=None) -> bool:
        """Wrap ``owner.attr`` in a span called ``name``; False if it is missing.

        ``name`` is a string or a callable ``(args, kwargs) -> str``.
        ``on_exit(args, kwargs, result)`` runs after the span closes, so
        what it measures is not charged to the span.  A class attribute is
        looked up through the class's bases, as a call would find it.  A
        missing attribute is recorded in :attr:`missing` instead of failing.
        """
        raw = inspect.getattr_static(owner, attr, None)
        if raw is None:
            self.missing.add(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False
        kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        fn = raw.__func__ if kind is not None else raw
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active():
                return fn(*args, **kwargs)
            span = tracer.open(name if isinstance(name, str) else name(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_exit is not None:
                on_exit(args, kwargs, result)
            return result

        self.replace(owner, attr, kind(traced) if kind is not None else traced)
        return True

    def replace(self, owner, attr: str, new) -> None:
        """Set ``owner.attr`` to ``new`` until :meth:`unpatch`."""
        self._undo.append((owner, attr, vars(owner).get(attr, _INHERITED)))
        setattr(owner, attr, new)

    def unpatch(self) -> None:
        """Restore every patched attribute (last patched first)."""
        while self._undo:
            owner, attr, raw = self._undo.pop()
            if raw is _INHERITED:
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # --------------------------------------------------------------- queries

    def self_times(self) -> dict:
        """``{span: self seconds}`` for every recorded span."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        return {
            span: self_time(span.start, span.end, children.get(span, ()))
            for span in self.spans
        }

    def write(self, path) -> None:
        """Save the spans as JSON lines: id, name, start, end, parent, thread."""
        ids = {span: index for index, span in enumerate(self.spans)}
        with open(path, "w") as handle:
            for span, index in ids.items():
                parent = ids.get(span.parent) if span.parent is not None else None
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": span.name,
                            "start": span.start,
                            "end": span.end,
                            "parent": parent,
                            "thread": span.thread,
                        }
                    )
                    + "\n"
                )


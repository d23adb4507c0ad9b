"""Spans recorded from outside the program under test.

The benchmark times its own calls into each layer and, for calls made
*inside* the program (``backend.forecast`` from the cycler, the LETKF
transform from the solver, ``ServingAPI.handle`` on the server thread),
wraps bound public attributes of instances the benchmark owns. Nothing
under ``src/`` is edited and none of the program's own telemetry is
read. Spans are kept in memory and written as JSON lines at exit.

One span is ``(id, name, start, end, parent, cycle, attrs)``: ``start``
and ``end`` are ``time.perf_counter`` seconds, ``parent`` the id of the
span that caused it (``None`` for a root), ``cycle`` the
``(radar, t_valid)`` identifier shared by every span of one request.
Self time is a span's duration minus the part its children cover.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager, nullcontext
from time import perf_counter

__all__ = ["Tracer", "SpanTree", "NULL_TRACER", "TRACE_HEADER"]

#: request header that carries the client span id to the server thread
TRACE_HEADER = "X-Trace-Parent"


class _NullTracer:
    """Tracing off: every hook is a no-op, nothing is wrapped."""

    enabled = False

    def span(self, name, *, parent=None):
        return nullcontext()

    def wrapped(self, obj, attr, name, **hooks):
        return nullcontext()


NULL_TRACER = _NullTracer()


class Tracer:
    """In-memory span recorder with a per-thread current-span stack."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.ids = itertools.count(1)
        self._local = threading.local()
        #: ``(radar, t_valid)`` of the request being traced; set by the
        #: driver loop, read by spans on every thread
        self.cycle = None

    def stack(self) -> list[int]:
        """The calling thread's open spans, innermost last."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, parent: int | None = None) -> "_Span":
        """Context manager recording one span; yields its attribute
        dict, which holds the span's ``id`` while the span is open."""
        return _Span(self, name, parent)

    @contextmanager
    def wrapped(self, obj, attr: str, name: str, *, call=None,
                parent_of=None, observe=None):
        """Wrap ``obj.attr`` in a span for the duration of the block.

        ``call`` stands in for an attribute that is ``None`` (a hook
        left unset); ``parent_of(args, kwargs)`` names the causing span
        when it lives on another thread (a call it names none for is
        not recorded); ``observe(span_attrs, args, kwargs, result)``
        records counts at the same boundary.
        """
        had = attr in vars(obj)
        original = getattr(obj, attr)
        target = original if original is not None else call

        spans, ids, stack_of = self.spans, self.ids, self.stack

        # _Span's bookkeeping, written out: on a tile request (200 us
        # of one core, thousands a second) the five calls a `with
        # self.span(...)` makes cost 1.5 % of the request; this way the
        # whole of tracing costs it ~3 %
        def wrapper(*args, **kwargs):
            parent = None
            if parent_of is not None:
                parent = parent_of(args, kwargs)
                if parent is None:      # caused by an untraced request
                    return target(*args, **kwargs)
            stack = stack_of()
            if parent is None and stack:
                parent = stack[-1]
            sid = next(ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = target(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
            attrs = None
            if observe is not None:
                attrs = {}
                observe(attrs, args, kwargs, result)
            spans.append((sid, name, start, end, parent, self.cycle, attrs))
            return result

        setattr(obj, attr, wrapper)
        try:
            yield
        finally:
            if had:
                setattr(obj, attr, original)
            else:
                delattr(obj, attr)

    def record(self, sid: int, name: str, start: float, end: float) -> None:
        """A root span the caller timed itself; ``sid`` is drawn from
        :attr:`ids` beforehand, so that it can travel with the call."""
        self.spans.append((sid, name, start, end, None, self.cycle, None))

    def write_jsonl(self, path) -> None:
        with open(path, "w") as f:
            for sid, name, start, end, parent, cycle, attrs in self.spans:
                row = {"id": sid, "name": name, "start": start, "end": end,
                       "parent": parent, "cycle": cycle}
                if attrs:
                    row["attrs"] = attrs
                f.write(json.dumps(row) + "\n")


class _Span:
    """One open span (a plain class: cheaper than a generator)."""

    __slots__ = ("tracer", "name", "parent", "attrs", "start")

    def __init__(self, tracer: Tracer, name: str, parent: int | None):
        self.tracer = tracer
        self.name = name
        self.parent = parent

    def __enter__(self) -> dict:
        tracer = self.tracer
        stack = tracer.stack()
        sid = next(tracer.ids)
        if self.parent is None and stack:
            self.parent = stack[-1]
        stack.append(sid)
        self.attrs = {"id": sid}
        self.start = perf_counter()
        return self.attrs

    def __exit__(self, *exc) -> None:
        end = perf_counter()
        tracer = self.tracer
        tracer.stack().pop()
        sid = self.attrs.pop("id")
        tracer.spans.append(
            (sid, self.name, self.start, end, self.parent, tracer.cycle, self.attrs)
        )


class SpanTree:
    """Index over recorded spans: children, durations, self times."""

    def __init__(self, spans: list[tuple]):
        self.by_id = {s[0]: s for s in spans}
        self.children: dict[int | None, list[tuple]] = {}
        for s in spans:
            self.children.setdefault(s[4], []).append(s)

    @staticmethod
    def ms(span: tuple) -> float:
        return (span[3] - span[2]) * 1e3

    def roots(self, name: str) -> list[tuple]:
        return [s for s in self.children.get(None, []) if s[1] == name]

    def descendants(self, span: tuple) -> list[tuple]:
        out, todo = [], [span]
        while todo:
            kids = self.children.get(todo.pop()[0], [])
            out.extend(kids)
            todo.extend(kids)
        return out

    def breakdown(self, root: tuple) -> tuple[dict[str, float], dict[str, float]]:
        """``(total, self)`` milliseconds per span name below ``root``.

        Self time is a span's duration minus its direct children's.
        """
        total: dict[str, float] = {}
        own: dict[str, float] = {}
        for s in self.descendants(root):
            ms = self.ms(s)
            kids = sum(self.ms(k) for k in self.children.get(s[0], []))
            total[s[1]] = total.get(s[1], 0.0) + ms
            own[s[1]] = own.get(s[1], 0.0) + ms - kids
        return total, own

    def child_ms(self, root: tuple) -> float:
        return sum(self.ms(k) for k in self.children.get(root[0], []))

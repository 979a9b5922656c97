"""Out-of-process-style layer tracing for the end-to-end benchmark.

The benchmark measures the program's layers from outside: it replaces
public functions and methods with timing wrappers, records one span per
call and restores the originals afterwards.  Nothing in ``src/`` knows
about it.

A span records its name, thread, start, end, parent span and the id of
the request (query, job or benchmark pass) it belongs to; a child
inherits its parent's request id.  Spans stay in memory until the run
ends, then go out as Chrome trace-event JSON (open it in Perfetto) and
as a self-time table.  A span's self time is its duration minus the time
its direct children cover; children always nest inside their parent on
the same thread, so the subtraction is exact.

Callers resolve names at call time through the module that *uses* a
function (``from x import f`` binds ``f`` in the caller), so a wrapper
must be installed on the calling module's attribute, and methods on
their class.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator, NamedTuple

#: span names starting with this prefix are the benchmark's own frames
#: (passes, client round trips); they are never attributed to a layer
BENCH_PREFIX = "bench."


class Span(NamedTuple):
    """One finished timed call.

    A flat tuple of atomic values (the parent is referenced by id), so
    the garbage collector stops tracking recorded spans and a growing
    trace does not slow the collections of the program under test.
    """

    id: int
    parent: int | None
    name: str
    tid: int
    start: float
    end: float
    req: Any
    counts: dict[str, float] | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    """A span still on its thread's stack."""

    __slots__ = ("id", "parent", "name", "req", "start")

    def __init__(self, id: int, parent: int | None, name: str, req: Any):
        self.id = id
        self.parent = parent
        self.name = name
        self.req = req
        self.start = 0.0


#: ``counts(args, kwargs, result) -> {counter: value}`` for one call
CountsOf = Callable[[tuple, dict, Any], "dict[str, float]"]
#: ``req(args, kwargs) -> request id`` for a call that starts a request
ReqOf = Callable[[tuple, dict], Any]


class Tracer:
    """Span recorder plus the monkeypatch bookkeeping to install it.

    ``install`` applies every registered wrapper; ``restore`` puts the
    original attributes back, so untraced passes run pristine code.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._targets: list[tuple[Any, str, str, CountsOf | None, ReqOf | None, bool]] = []
        self._saved: list[tuple[Any, str, Any]] = []
        self.epoch = time.perf_counter()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, req: Any) -> _Open:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            req = parent.req if req is None else req
        span = _Open(next(self._ids), parent and parent.id, name, req)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: _Open, counts: dict[str, float] | None = None) -> None:
        end = time.perf_counter()
        self._stack().pop()
        # list.append is atomic under the interpreter lock
        self.spans.append(
            Span(span.id, span.parent, span.name, threading.get_ident(),
                 span.start, end, span.req, counts)
        )

    def span(self, name: str, req: Any = None) -> "_SpanContext":
        """Context manager for a span opened by the benchmark itself."""
        return _SpanContext(self, name, req)

    # -- wrappers ----------------------------------------------------------

    def register(
        self,
        owner: Any,
        attr: str,
        name: str,
        counts: CountsOf | None = None,
        req: ReqOf | None = None,
        generator: bool = False,
    ) -> None:
        """Trace ``owner.attr`` as span ``name`` once installed.

        ``generator=True`` times every ``next()`` of the returned
        iterator as its own span (lazy producers do their work there).
        """
        self._targets.append((owner, attr, name, counts, req, generator))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, counts, req, generator in self._targets:
            raw = (
                owner.__dict__[attr]
                if isinstance(owner, type)
                else getattr(owner, attr)
            )
            self._saved.append((owner, attr, raw))
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(raw.__func__, name, counts, req, generator))
            else:
                wrapped = self._wrap(raw, name, counts, req, generator)
            setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()

    def _wrap(
        self,
        fn: Callable,
        name: str,
        counts: CountsOf | None,
        req_of: ReqOf | None,
        generator: bool,
    ) -> Callable:
        tracer = self

        if generator:

            def traced_iter(*args, **kwargs):
                return tracer._iterate(fn(*args, **kwargs), name, counts)

            traced_iter.__wrapped__ = fn  # type: ignore[attr-defined]
            return traced_iter

        def traced(*args, **kwargs):
            span = tracer._open(name, req_of(args, kwargs) if req_of else None)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(span)
                raise
            tracer._close(span, counts(args, kwargs, result) if counts else None)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _iterate(self, inner: Iterator, name: str, counts: CountsOf | None) -> Iterator:
        while True:
            span = self._open(name, None)
            try:
                item = next(inner)
            except StopIteration:
                self._close(span)
                return
            except BaseException:
                self._close(span)
                raise
            self._close(span, counts((), {}, item) if counts else None)
            yield item

    @staticmethod
    def span_cost(calls: int = 20000) -> float:
        """Seconds one traced call adds over an untraced one (a no-op)."""

        def noop() -> None:
            return None

        traced = Tracer()._wrap(noop, "bench.calibrate", None, None, False)
        timings = []
        for fn in (noop, traced):
            start = time.perf_counter()
            for _ in range(calls):
                fn()
            timings.append(time.perf_counter() - start)
        return max(0.0, (timings[1] - timings[0]) / calls)

    # -- reports -----------------------------------------------------------

    def chrome_trace(self) -> dict[str, Any]:
        """Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        tids: dict[int, int] = {}
        events = []
        for span in self.spans:
            tid = tids.setdefault(span.tid, len(tids) + 1)
            args: dict[str, Any] = {"id": span.id}
            if span.parent is not None:
                args["parent"] = span.parent
            if span.req is not None:
                args["req"] = str(span.req)
            if span.counts:
                args.update(span.counts)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span.start - self.epoch) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": 1,
                    "tid": tid,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.chrome_trace()))


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str, req: Any):
        self._tracer = tracer
        self._name = name
        self._req = req
        self.span: _Open | None = None

    def __enter__(self) -> _Open:
        self.span = self._tracer._open(self._name, self._req)
        return self.span

    def __exit__(self, *exc) -> None:
        assert self.span is not None
        self._tracer._close(self.span)


class LayerStats:
    """Self time, call count and summed counters per span name."""

    def __init__(self, spans: list[Span]):
        children: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in spans:
            self.self_s[span.name] += span.duration - children.get(span.id, 0.0)
            self.calls[span.name] += 1
            for key, value in (span.counts or {}).items():
                self.counts[span.name][key] += value

    def busy(self, *names: str) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def count(self, name: str, key: str) -> float:
        return self.counts.get(name, {}).get(key, 0.0)

    def attributed(self) -> float:
        """Self time spent in named layers (not in benchmark frames)."""
        return sum(
            s for name, s in self.self_s.items() if not name.startswith(BENCH_PREFIX)
        )

    def table(self, wall: float) -> list[tuple[str, float, float, int]]:
        """``(layer, self seconds, share of wall, calls)`` rows, largest
        first, closed by an ``other`` row for time outside every layer
        (clamped at zero when concurrent threads overlap)."""
        rows = [
            (name, s, s / wall if wall > 0 else 0.0, self.calls[name])
            for name, s in self.self_s.items()
            if not name.startswith(BENCH_PREFIX)
        ]
        rows.sort(key=lambda row: -row[1])
        other = max(0.0, wall - self.attributed())
        rows.append(("other", other, other / wall if wall > 0 else 0.0, 0))
        return rows

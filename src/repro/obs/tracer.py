"""Hierarchical tracing spans with pluggable sinks.

A *span* is a named, timed region of execution with optional key/value
attributes::

    from repro.obs import span

    with span("chortle.map_tree", tree=root) as s:
        ...
        s.set("luts", cand.cost)

Spans nest: the tracer keeps a per-tracer stack, so a span opened while
another is live records that span as its parent, and sinks receive
finished :class:`SpanRecord` objects carrying ``span_id`` / ``parent_id``
/ ``depth`` so the tree can be rebuilt.

Sinks are pluggable and stackable:

* :class:`MemorySink` — collects records in a list (tests, profiling);
* :class:`JsonLinesSink` — one JSON object per finished span, appended
  to a file (machine-readable traces);
* :class:`StderrSink` — human-readable one-liner per span on stderr.

When **no** sink is attached, :meth:`Tracer.span` returns a shared no-op
context manager after a single attribute lookup — instrumented code pays
essentially nothing when tracing is off, so spans can live on hot paths.

Records are emitted when a span *finishes*, i.e. in post-order: children
appear before their parent.  Sequential sibling spans therefore appear
in execution order.
"""

from __future__ import annotations

import atexit
import io
import json
import sys
import threading
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, TextIO, Tuple, Union


@dataclass
class SpanRecord:
    """One finished span, as delivered to sinks."""

    span_id: int
    parent_id: Optional[int]
    depth: int  # 0 for root spans
    name: str
    start: float  # perf_counter timestamp at entry
    duration: float  # seconds
    attrs: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "depth": self.depth,
            "name": self.name,
            "start": round(self.start, 9),
            "duration": round(self.duration, 9),
            "attrs": self.attrs,
        }


class Sink:
    """Base class for span sinks."""

    def emit(self, record: SpanRecord) -> None:
        raise NotImplementedError

    def close(self) -> None:  # pragma: no cover - trivial default
        pass


class MemorySink(Sink):
    """Collects finished spans in memory (finish order, children first)."""

    def __init__(self) -> None:
        self.records: List[SpanRecord] = []

    def emit(self, record: SpanRecord) -> None:
        self.records.append(record)

    def clear(self) -> None:
        self.records = []

    def by_name(self, name: str) -> List[SpanRecord]:
        return [r for r in self.records if r.name == name]

    def roots(self) -> List[SpanRecord]:
        return [r for r in self.records if r.parent_id is None]

    def children(self, record: SpanRecord) -> List[SpanRecord]:
        return [r for r in self.records if r.parent_id == record.span_id]

    def stage_timings(self, prefix: str = "") -> Dict[str, float]:
        """Total seconds per span name (optionally filtered by prefix)."""
        timings: Dict[str, float] = {}
        for record in self.records:
            if prefix and not record.name.startswith(prefix):
                continue
            timings[record.name] = timings.get(record.name, 0.0) + record.duration
        return timings


class JsonLinesSink(Sink):
    """Writes one JSON object per finished span to a file or stream.

    The sink is crash-safe: every record is flushed as soon as it is
    written (an aborted run's trace therefore ends at a line boundary
    rather than mid-record), and file handles the sink opened itself
    are additionally closed at interpreter exit via ``atexit``, so a
    run that never reaches its own ``close()`` still leaves a complete,
    parseable trace behind.
    """

    def __init__(self, target: Union[str, io.TextIOBase]) -> None:
        if isinstance(target, str):
            # The sink owns this handle; close() releases it.
            self._handle = open(target, "w", encoding="utf-8")  # noqa: SIM115
            self._owns_handle = True
            atexit.register(self.close)
        else:
            self._handle = target
            self._owns_handle = False
        # Spans may finish on a library caller's own threads; the lock
        # keeps each JSON line contiguous in the output.
        self._lock = threading.Lock()

    def emit(self, record: SpanRecord) -> None:
        line = json.dumps(record.to_dict(), sort_keys=True)
        with self._lock:
            self._handle.write(line)
            self._handle.write("\n")
            self._handle.flush()

    def close(self) -> None:
        if self._owns_handle:
            atexit.unregister(self.close)
            if not self._handle.closed:
                self._handle.close()
        else:
            self._handle.flush()


class StderrSink(Sink):
    """Prints a human-readable line per finished span to stderr."""

    def __init__(self, stream: Optional[TextIO] = None) -> None:
        self._stream = stream if stream is not None else sys.stderr

    def emit(self, record: SpanRecord) -> None:
        attrs = ""
        if record.attrs:
            attrs = " " + " ".join(
                "%s=%r" % (k, v) for k, v in sorted(record.attrs.items())
            )
        print(
            "[trace] %s%s %.3fms%s"
            % ("  " * record.depth, record.name, record.duration * 1e3, attrs),
            file=self._stream,
        )


class _NullSpan:
    """Shared do-nothing span used when no sink is attached."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, key: str, value: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An active span; created only when at least one sink is attached."""

    __slots__ = ("_tracer", "name", "attrs", "span_id", "parent_id", "depth", "_start")

    def __init__(self, tracer: Tracer, name: str, attrs: Dict[str, object]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id = 0
        self.parent_id: Optional[int] = None
        self.depth = 0
        self._start = 0.0

    def set(self, key: str, value: object) -> None:
        """Attach (or overwrite) an attribute while the span is live."""
        self.attrs[key] = value

    def __enter__(self) -> _LiveSpan:
        tracer = self._tracer
        self.span_id = tracer._new_span_id()
        stack = tracer._stack
        if stack:
            self.parent_id = stack[-1].span_id
            self.depth = len(stack)
        stack.append(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        end = time.perf_counter()
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] is self:
            tracer._stack.pop()
        record = SpanRecord(
            span_id=self.span_id,
            parent_id=self.parent_id,
            depth=self.depth,
            name=self.name,
            start=self._start,
            duration=end - self._start,
            attrs=self.attrs,
        )
        for sink in tracer._sinks:
            sink.emit(record)
        return False


class Tracer:
    """Span factory with a stack of live spans and a tuple of sinks.

    The live-span stack is thread-local: spans opened on a caller's own
    threads become roots of their own tree instead of corrupting the
    parent/depth bookkeeping of spans on other threads.  Span ids stay
    globally unique under a lock; sinks are shared across threads.
    Spans finished in worker processes come home through :meth:`adopt`.
    """

    def __init__(self) -> None:
        self._sinks: Tuple[Sink, ...] = ()
        self._local = threading.local()
        self._id_lock = threading.Lock()
        self._next_id = 0

    @property
    def _stack(self) -> List[_LiveSpan]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_span_id(self) -> int:
        with self._id_lock:
            self._next_id += 1
            return self._next_id

    @property
    def enabled(self) -> bool:
        return bool(self._sinks)

    def span(self, name: str, **attrs: object) -> Union[_NullSpan, _LiveSpan]:
        """Open a span; a shared no-op object when no sink is attached."""
        if not self._sinks:
            return _NULL_SPAN
        return _LiveSpan(self, name, attrs)

    def add_sink(self, sink: Sink) -> Sink:
        self._sinks = self._sinks + (sink,)
        return sink

    def remove_sink(self, sink: Sink) -> None:
        self._sinks = tuple(s for s in self._sinks if s is not sink)

    def clear_sinks(self) -> None:
        self._sinks = ()

    def reset(self) -> None:
        """Drop every sink and every thread's open spans.

        A forked worker process inherits both from its parent.  Kept,
        they would write the worker's spans, with ids from the worker's
        copy of the counter, straight into the parent's trace file.
        """
        self._sinks = ()
        self._local = threading.local()

    def adopt(self, records: Sequence[SpanRecord]) -> None:
        """Emit spans finished in a worker process as if opened here.

        The worker numbered its spans from its own counter, so each
        record gets a fresh id from this tracer's; the batch's roots are
        attached under the span open on the calling thread, which must
        be the span the work was submitted under.  Start times need no
        offset: ``perf_counter`` is CLOCK_MONOTONIC on Linux, one clock
        for every local process.
        """
        if not self._sinks or not records:
            return
        stack = self._stack
        top = stack[-1].span_id if stack else None
        ids = {record.span_id: self._new_span_id() for record in records}
        for record in records:
            parent = record.parent_id
            adopted = replace(
                record,
                span_id=ids[record.span_id],
                parent_id=top if parent is None else ids[parent],
                depth=record.depth + len(stack),
            )
            for sink in self._sinks:
                sink.emit(adopted)


_TRACER = Tracer()


def get_tracer() -> Tracer:
    """The process-wide tracer used by the instrumented passes."""
    return _TRACER


def span(name: str, **attrs: object) -> Union[_NullSpan, _LiveSpan]:
    """Open a span on the global tracer (no-op when tracing is off)."""
    tracer = _TRACER
    if not tracer._sinks:
        return _NULL_SPAN
    return _LiveSpan(tracer, name, attrs)


class capture:
    """Context manager attaching a fresh :class:`MemorySink` temporarily::

        with capture() as sink:
            map_area(net)
        print(sink.stage_timings("pipeline."))
    """

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._tracer = tracer if tracer is not None else _TRACER
        self._sink = MemorySink()

    def __enter__(self) -> MemorySink:
        self._tracer.add_sink(self._sink)
        return self._sink

    def __exit__(self, *exc_info: object) -> bool:
        self._tracer.remove_sink(self._sink)
        return False


def render_span_tree(records: List[SpanRecord],
                     stream: Optional[TextIO] = None) -> str:
    """Format finished spans as an indented tree (execution order).

    ``records`` is finish-ordered (as collected by a sink); the tree is
    rebuilt from parent ids and siblings sorted by start time.
    """
    by_parent: Dict[Optional[int], List[SpanRecord]] = {}
    for record in records:
        by_parent.setdefault(record.parent_id, []).append(record)
    for siblings in by_parent.values():
        siblings.sort(key=lambda r: r.start)

    lines: List[str] = []

    def walk(record: SpanRecord, depth: int) -> None:
        attrs = ""
        if record.attrs:
            attrs = "  [%s]" % ", ".join(
                "%s=%r" % (k, v) for k, v in sorted(record.attrs.items())
            )
        lines.append(
            "%s%-*s %9.3fms%s"
            % ("  " * depth, max(1, 40 - 2 * depth), record.name,
               record.duration * 1e3, attrs)
        )
        for child in by_parent.get(record.span_id, []):
            walk(child, depth + 1)

    for root in by_parent.get(None, []):
        walk(root, 0)
    text = "\n".join(lines)
    if stream is not None:
        print(text, file=stream)
    return text

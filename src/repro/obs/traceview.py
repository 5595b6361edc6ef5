"""Trace analytics: span trees, self-time attribution, folded stacks.

The tracer (:mod:`repro.obs.tracer`) emits flat, finish-ordered
:class:`~repro.obs.tracer.SpanRecord` streams; this module turns them
back into analyzable structure:

* :func:`build_span_tree` — rebuild the parent/child tree from a
  record list (a :class:`~repro.obs.tracer.MemorySink` capture or a
  ``--trace`` JSONL file loaded with :func:`load_trace`);
* **self-time** — each :class:`SpanNode` knows its *self* seconds
  (duration minus the time covered by its direct children), the number
  that actually attributes cost to a stage.  Inclusive parents such as
  ``flow.stage.*`` or ``cli.map`` have large totals but near-zero self
  time; the hot DP leaves are the other way around.  Because self time
  telescopes, the self seconds of every span in a tree sum exactly to
  the root's duration — a hotspot table therefore accounts for the
  whole wall clock of the traced region;
* :func:`aggregate_by_name` / :func:`hotspots` — per-name totals
  (count, total seconds, self seconds) and the top-N table behind
  ``chortle perf top``;
* :func:`critical_path` — the chain of spans from the longest root
  down its heaviest child at every level: the sequence of stages an
  optimization must shorten to move the end-to-end wall clock;
* :func:`folded_stacks` — ``parent;child;leaf <microseconds>`` lines
  (self time per unique stack), the folded format consumed by
  Brendan Gregg's ``flamegraph.pl`` and by speedscope
  (``chortle perf flame``).

Parallel traces: a ``jobs > 1`` run maps trees (or suite cells) in
worker processes, and their spans come home under the span they were
submitted from (``chortle.parallel`` or ``bench.suite``); tree spans
carry a ``worker`` attribute.  Siblings from different workers overlap
in time, so their durations can sum past the parent's: the parent's
self time floors at 0 and the tree's self times sum to more than the
elapsed wall clock — CPU seconds across workers, not wall seconds.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import PerfError
from repro.obs.tracer import SpanRecord


@dataclass
class SpanNode:
    """One span with its children resolved; the unit of trace analysis."""

    record: SpanRecord
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.record.name

    @property
    def duration(self) -> float:
        return self.record.duration

    @property
    def self_seconds(self) -> float:
        """Duration not covered by direct children (floored at zero).

        The floor guards against timer jitter making children sum to
        epsilon more than their parent; it never hides real time.
        """
        covered = sum(child.record.duration for child in self.children)
        return max(0.0, self.record.duration - covered)


def build_span_tree(records: Sequence[SpanRecord]) -> List[SpanNode]:
    """Rebuild the span forest from a flat record list.

    Records whose parent never finished (aborted runs, trace files cut
    off mid-run) become roots rather than being dropped — a truncated
    trace still accounts for every span it contains.  Children are
    sorted by start time, roots likewise.
    """
    nodes: Dict[int, SpanNode] = {
        record.span_id: SpanNode(record) for record in records
    }
    roots: List[SpanNode] = []
    for record in records:
        node = nodes[record.span_id]
        parent = (
            nodes.get(record.parent_id) if record.parent_id is not None else None
        )
        if parent is None:
            roots.append(node)
        else:
            parent.children.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: n.record.start)
    roots.sort(key=lambda n: n.record.start)
    return roots


def load_trace(path: str) -> List[SpanRecord]:
    """Parse a ``--trace`` JSONL file back into span records.

    A malformed *final* line is dropped silently — it is the signature
    of a run that died mid-write — while a malformed interior line
    raises :class:`~repro.errors.PerfError` with its line number.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise PerfError("cannot read trace %r: %s" % (path, exc)) from exc
    records: List[SpanRecord] = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            data = json.loads(line)
            records.append(
                SpanRecord(
                    span_id=int(data["span_id"]),
                    parent_id=(
                        None
                        if data.get("parent_id") is None
                        else int(data["parent_id"])
                    ),
                    depth=int(data.get("depth", 0)),
                    name=str(data["name"]),
                    start=float(data["start"]),
                    duration=float(data["duration"]),
                    attrs=dict(data.get("attrs") or {}),
                )
            )
        except (ValueError, KeyError, TypeError) as exc:
            if lineno == len(lines):
                break  # truncated final line of an aborted run
            raise PerfError(
                "malformed trace line %d in %r: %s" % (lineno, path, exc)
            ) from None
    return records


@dataclass
class NameStat:
    """Aggregate timing for one span name across a trace."""

    name: str
    count: int = 0
    total_seconds: float = 0.0
    self_seconds: float = 0.0

    @property
    def mean_self_seconds(self) -> float:
        return self.self_seconds / self.count if self.count else 0.0


def _walk(roots: Sequence[SpanNode]) -> List[SpanNode]:
    """Every node of the forest, preorder (iterative: traces get deep)."""
    out: List[SpanNode] = []
    stack = list(reversed(list(roots)))
    while stack:
        node = stack.pop()
        out.append(node)
        stack.extend(reversed(node.children))
    return out


def aggregate_by_name(roots: Sequence[SpanNode]) -> List[NameStat]:
    """Per-name (count, total, self) aggregates, largest self time first."""
    stats: Dict[str, NameStat] = {}
    for node in _walk(roots):
        stat = stats.get(node.name)
        if stat is None:
            stat = stats[node.name] = NameStat(node.name)
        stat.count += 1
        stat.total_seconds += node.duration
        stat.self_seconds += node.self_seconds
    return sorted(stats.values(), key=lambda s: (-s.self_seconds, s.name))


def hotspots(
    records: Sequence[SpanRecord], top: int = 15
) -> Tuple[List[NameStat], float]:
    """The top-N self-time names and the trace's total root seconds."""
    roots = build_span_tree(records)
    wall = sum(root.duration for root in roots)
    return aggregate_by_name(roots)[:top], wall


def critical_path(roots: Sequence[SpanNode]) -> List[SpanNode]:
    """Longest root, then the heaviest child at every level down to a leaf."""
    if not roots:
        return []
    node = max(roots, key=lambda n: n.duration)
    path = [node]
    while node.children:
        node = max(node.children, key=lambda n: n.duration)
        path.append(node)
    return path


def folded_stacks(
    records: Sequence[SpanRecord], scale: float = 1e6
) -> List[str]:
    """``a;b;c <value>`` lines — self time per unique stack, scaled.

    ``scale=1e6`` yields integer microseconds, the convention both
    ``flamegraph.pl`` and speedscope's "folded stacks" importer expect.
    Identical stacks (same name chain) are merged; zero-valued stacks
    are dropped.  Semicolons inside span names are replaced with ``:``
    so they cannot corrupt the stack separator.
    """
    merged: Dict[Tuple[str, ...], int] = {}

    def clean(name: str) -> str:
        return name.replace(";", ":").replace(" ", "_")

    stack: List[str] = []

    def visit(node: SpanNode) -> None:
        stack.append(clean(node.name))
        value = int(round(node.self_seconds * scale))
        if value > 0:
            key = tuple(stack)
            merged[key] = merged.get(key, 0) + value
        for child in node.children:
            visit(child)
        stack.pop()

    for root in build_span_tree(records):
        visit(root)
    return [
        "%s %d" % (";".join(names), value)
        for names, value in sorted(merged.items())
    ]


# -- rendering ---------------------------------------------------------------


def render_hotspots(
    stats: Sequence[NameStat],
    wall_seconds: Optional[float] = None,
    title: str = "hotspots (self time)",
) -> str:
    """The ``chortle perf top`` table: one row per name, self time first."""
    lines = [title]
    width = max([len(s.name) for s in stats] + [5])
    lines.append(
        "%-*s %9s %6s %9s %7s" % (width, "span", "self", "%", "total", "count")
    )
    total_self = sum(s.self_seconds for s in stats)
    denom = wall_seconds if wall_seconds else total_self
    for stat in stats:
        pct = 100.0 * stat.self_seconds / denom if denom else 0.0
        lines.append(
            "%-*s %8.3fs %5.1f%% %8.3fs %7d"
            % (
                width,
                stat.name,
                stat.self_seconds,
                pct,
                stat.total_seconds,
                stat.count,
            )
        )
    if wall_seconds is not None:
        coverage = 100.0 * total_self / wall_seconds if wall_seconds else 0.0
        lines.append(
            "listed self time: %.3fs of %.3fs wall (%.1f%%)"
            % (total_self, wall_seconds, coverage)
        )
    return "\n".join(lines)


def render_critical_path(path: Sequence[SpanNode]) -> str:
    """One line per hop: name, duration, and self time at that level."""
    lines = ["critical path (heaviest child at every level):"]
    for i, node in enumerate(path):
        lines.append(
            "%s%-40s %8.3fs total, %8.3fs self"
            % ("  " * i, node.name, node.duration, node.self_seconds)
        )
    return "\n".join(lines)

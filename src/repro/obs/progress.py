"""Progress streaming: per-cell heartbeat events for long sweeps.

A benchmark or lint sweep is minutes of silence unless something
reports progress.  :class:`ProgressEmitter` is that something: the
suite runner and ``lint --suite`` hand it one ``cell_started`` /
``cell_finished`` pair per (circuit, K, mapper) cell, and it emits
structured :class:`ProgressEvent` records — rendered as single-line
heartbeats on a stream (``--progress``), forwarded to an optional
callback, and/or appended as JSON lines.

The callback/JSONL paths are the streaming substrate the ROADMAP's
mapping-as-a-service item needs: a server can hand ``run_suite`` an
emitter whose callback pushes each event to the requesting client, with
no coupling to how the suite is executed (serial cells emit both
``started`` and ``finished``; process-parallel cells emit ``finished``
as results arrive, since worker processes cannot call back mid-cell).

ETA is the classic remaining-work estimate: mean seconds per finished
cell times cells outstanding.  Events also land in the metrics
registry (``progress.cells_started`` / ``progress.cells_finished``),
so even a sweep run without an emitter can be checked for liveness.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, TextIO

from repro.obs.metrics import metrics

STARTED = "started"
FINISHED = "finished"


@dataclass
class ProgressEvent:
    """One heartbeat: a cell starting or finishing inside a sweep."""

    kind: str  # STARTED | FINISHED
    circuit: str
    k: int
    mapper: str
    phase: str  # "" for a mapping sweep; "lint" inside lint --suite
    finished: int  # cells finished so far (including this one if FINISHED)
    total: int
    elapsed_seconds: float
    seconds: Optional[float] = None  # this cell's duration (FINISHED only)
    eta_seconds: Optional[float] = None

    def cell(self) -> str:
        return "%s K=%d %s" % (self.circuit, self.k, self.mapper)

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "circuit": self.circuit,
            "k": self.k,
            "mapper": self.mapper,
            "phase": self.phase,
            "finished": self.finished,
            "total": self.total,
            "elapsed_seconds": round(self.elapsed_seconds, 4),
            "seconds": None if self.seconds is None else round(self.seconds, 4),
            "eta_seconds": (
                None if self.eta_seconds is None else round(self.eta_seconds, 1)
            ),
        }

    def render(self) -> str:
        """The human-readable heartbeat line."""
        if self.kind == STARTED:
            return "[progress] %d/%d %s%s ..." % (
                self.finished,
                self.total,
                self.cell(),
                " (%s)" % self.phase if self.phase else "",
            )
        eta = (
            " eta %.1fs" % self.eta_seconds
            if self.eta_seconds is not None
            else ""
        )
        return "[progress] %d/%d %s%s done in %.2fs, elapsed %.1fs%s" % (
            self.finished,
            self.total,
            self.cell(),
            " (%s)" % self.phase if self.phase else "",
            self.seconds if self.seconds is not None else 0.0,
            self.elapsed_seconds,
            eta,
        )


class ProgressEmitter:
    """Turns cell start/finish notifications into heartbeat events.

    ``total`` is the number of cells expected (ETA needs it; pass 0 if
    unknown and no ETA is computed).  ``stream`` receives one rendered
    line per event (``None`` silences it); ``callback`` receives every
    :class:`ProgressEvent` object; ``json_stream`` receives one JSON
    line per event.  All three sinks are independent.  Thread-safe, so
    a library caller may report cells from its own threads.
    """

    def __init__(
        self,
        total: int,
        stream: Optional[TextIO] = None,
        callback: Optional[Callable[[ProgressEvent], None]] = None,
        json_stream: Optional[TextIO] = None,
    ) -> None:
        self.total = total
        self._stream = stream
        self._callback = callback
        self._json_stream = json_stream
        self._lock = threading.Lock()
        self._started_at = time.perf_counter()
        self._finished = 0
        self._finished_seconds = 0.0
        self.events: int = 0

    @classmethod
    def to_stderr(cls, total: int) -> "ProgressEmitter":
        """The CLI ``--progress`` emitter: heartbeat lines on stderr."""
        return cls(total, stream=sys.stderr)

    def _emit(self, event: ProgressEvent) -> None:
        self.events += 1
        if self._stream is not None:
            print(event.render(), file=self._stream, flush=True)
        if self._json_stream is not None:
            self._json_stream.write(json.dumps(event.to_dict(), sort_keys=True))
            self._json_stream.write("\n")
            self._json_stream.flush()
        if self._callback is not None:
            self._callback(event)

    def _eta(self) -> Optional[float]:
        """Mean seconds per finished cell times the cells outstanding."""
        if not self._finished or self.total <= 0:
            return None
        remaining = self.total - self._finished
        if remaining <= 0:
            return 0.0
        return self._finished_seconds / self._finished * remaining

    def cell_started(
        self, circuit: str, k: int, mapper: str, phase: str = ""
    ) -> None:
        metrics.count("progress.cells_started")
        with self._lock:
            event = ProgressEvent(
                kind=STARTED,
                circuit=circuit,
                k=k,
                mapper=mapper,
                phase=phase,
                finished=self._finished,
                total=self.total,
                elapsed_seconds=time.perf_counter() - self._started_at,
            )
            self._emit(event)

    def cell_finished(
        self,
        circuit: str,
        k: int,
        mapper: str,
        seconds: float,
        phase: str = "",
    ) -> None:
        metrics.count("progress.cells_finished")
        with self._lock:
            self._finished += 1
            self._finished_seconds += seconds
            event = ProgressEvent(
                kind=FINISHED,
                circuit=circuit,
                k=k,
                mapper=mapper,
                phase=phase,
                finished=self._finished,
                total=self.total,
                elapsed_seconds=time.perf_counter() - self._started_at,
                seconds=seconds,
                eta_seconds=self._eta(),
            )
            self._emit(event)

    @property
    def finished(self) -> int:
        return self._finished


def resolve_progress(
    progress: object, total: int
) -> Optional[ProgressEmitter]:
    """Normalize a user-facing progress option.

    Accepts ``None``/``False`` (no progress), ``True`` (heartbeat lines
    on stderr), or an explicit :class:`ProgressEmitter` — mirroring how
    ``resolve_cache`` treats the cache option.  A fresh emitter gets
    ``total``; an explicit one keeps whatever total it was built with
    unless it was constructed with 0, in which case the runner's count
    is filled in.
    """
    if progress is None or progress is False:
        return None
    if progress is True:
        return ProgressEmitter.to_stderr(total)
    if isinstance(progress, ProgressEmitter):
        if progress.total <= 0:
            progress.total = total
        return progress
    raise TypeError(
        "progress must be None, bool, or ProgressEmitter, got %r"
        % type(progress).__name__
    )

"""Process-pool workers for tree-level and suite-level parallel mapping.

Two fan-out granularities, both deterministic, both running on the
persistent fork-once pool of :mod:`repro.perf.pool`:

* :func:`map_trees_processes` — one swept network, its forest's trees
  chunked round-robin across the shared pool.  The subject network is
  *registered* once and crosses into workers by fork inheritance (or a
  one-time blob on the spawn fallback) instead of riding in every chunk
  payload; each worker builds the forest and per-tree topological
  orders once per subject and keeps them for its lifetime.  The parent
  reassembles root candidates in forest order, so emission — and
  therefore the whole circuit — is bit-identical to a serial run.

* :func:`run_cells_processes` — the benchmark runner's (circuit, K,
  mapper) cells fanned across workers.  Cells sharing one circuit at
  different K share one registered subject (payloads carry a token, not
  the network).  Workers return plain report dicts and the parent
  restores them in submission order, so a parallel suite sweep produces
  the same rows in the same order as a serial one (only the timing
  fields reflect the parallel run).

Because the pool is long-lived, each worker's process-local memo cache
(:func:`repro.perf.memo.get_cache`) stays warm across chunks, cells,
and whole suites.

Worker functions live at module top level so they pickle under the
``spawn`` start method.  Workers count into their own process-local
metrics registry and send the counts home: a tree chunk returns its
whole counter delta, which the parent adds to its own registry, while a
suite cell's counters already ride home in its report dict.

**Spans.**  When the parent's tracer has a sink at submit time, the
payload carries a trace flag; the worker then captures the spans it
finishes (one ``chortle.map_tree`` per tree, or a cell's ``bench.run``
tree) and returns them with its result, and the parent re-numbers and
attaches them under the submitting span
(:meth:`~repro.obs.tracer.Tracer.adopt`).  With no sink, nothing is
captured or shipped.

**Telemetry.**  Every fan-out attributes where worker time went, so a
disappointing speedup can be explained instead of guessed at.  Each
submitted work unit records:

* *queue wait* — seconds between the parent submitting the unit and a
  worker starting it (``time.perf_counter`` is CLOCK_MONOTONIC-backed
  on Linux, hence comparable across local processes; negative skew is
  clamped to zero);
* *task seconds* — in-worker compute time for the unit;
* *pickle bytes* — the serialized size of the submitted payload (a
  token-sized constant, not the subject network);
* *subject misses* — tasks resubmitted with a subject blob because a
  worker predated the subject's registration;
* *worker cache traffic* — hit/miss/eviction deltas from each worker's
  process-local memo cache, shipped home with the results.

The parent folds all of it into the process-wide metrics registry
under ``perf.parallel.*`` (microsecond-integer counters so
``counter_delta`` attribution works, plus seconds histograms); the
benchmark's ``pool.*`` layer metrics are read from these counters.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import pickle
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.network.network import BooleanNetwork
from repro.obs import capture, get_tracer, metrics
from repro.obs.tracer import SpanRecord
from repro.perf.pool import (
    get_pool,
    register_subject,
    resolve_subject,
    subject_blob,
)

#: Worker-local cache counters shipped home, and their parent-side names.
_CACHE_COUNTERS = ("hits", "misses", "evictions")

#: First element of a worker result when the subject was not resolvable;
#: the parent resubmits the task with the pickled subject attached.
_MISS = "__subject_miss__"


def _chunk_round_robin(n: int, jobs: int) -> List[List[int]]:
    """Indices ``0..n-1`` dealt round-robin into ``jobs`` chunks."""
    chunks: List[List[int]] = [[] for _ in range(jobs)]
    for index in range(n):
        chunks[index % jobs].append(index)
    return [chunk for chunk in chunks if chunk]


# -- telemetry ---------------------------------------------------------------


def _worker_telemetry(
    submitted_at: float, started_at: float, delta: Dict[str, int]
) -> Dict[str, float]:
    """Built inside a worker when its unit finishes; shipped to the parent."""
    telemetry: Dict[str, float] = {
        "queue_wait": max(0.0, started_at - submitted_at),
        "task_seconds": time.perf_counter() - started_at,
    }
    for key in _CACHE_COUNTERS:
        telemetry["cache_" + key] = delta.get("perf.cache." + key, 0)
    return telemetry


def record_worker_telemetry(
    telemetry: Dict[str, float], pickle_bytes: int = 0
) -> None:
    """Fold one unit's worker telemetry into the parent registry."""
    metrics.count("perf.parallel.tasks")
    metrics.count(
        "perf.parallel.queue_wait_us", int(telemetry["queue_wait"] * 1e6)
    )
    metrics.count("perf.parallel.task_us", int(telemetry["task_seconds"] * 1e6))
    if pickle_bytes:
        metrics.count("perf.parallel.pickle_bytes", pickle_bytes)
    for key in _CACHE_COUNTERS:
        count = int(telemetry.get("cache_" + key, 0))
        if count:
            metrics.count("perf.parallel.cache_" + key, count)
    metrics.observe("perf.parallel.queue_wait", telemetry["queue_wait"])
    metrics.observe("perf.parallel.task_seconds", telemetry["task_seconds"])


def _submit_with_bytes(pool, fn, payload) -> Tuple[object, int]:
    """Submit to the shared pool, measuring the payload's pickle cost."""
    future = pool.submit(fn, payload)
    return future, len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))


@contextlib.contextmanager
def _shipped_spans(trace: bool) -> Iterator[List[SpanRecord]]:
    """Worker side: the spans finished in the block, when ``trace`` is set."""
    if not trace:
        yield []
        return
    with capture() as sink:
        yield sink.records


# -- tree-level workers ------------------------------------------------------

#: Worker-side cache: subject token -> forest.  Lives for the worker
#: process's life, so a subject's forest is built once per worker no
#: matter how many chunks, K values, or suites visit.
_WORKER_FORESTS: Dict[str, object] = {}


def _worker_forest(token: str, net):
    forest = _WORKER_FORESTS.get(token)
    if forest is None:
        from repro.core.forest import build_forest

        forest = _WORKER_FORESTS[token] = build_forest(net)
    return forest


def _map_tree_chunk(payload: tuple):
    """Map one chunk of forest trees inside a worker process.

    Returns ``(results, telemetry, counter delta, spans)``; the delta
    covers tree mapping only, since the parent builds its own forest.
    """
    started_at = time.perf_counter()
    (
        token,
        blob,
        k,
        split_threshold,
        indices,
        worker,
        use_shared_cache,
        trace,
        submitted_at,
    ) = payload
    from repro.core.chortle import map_one_tree
    from repro.core.tree_mapper import TreeMapper
    from repro.perf.memo import get_cache

    net = resolve_subject(token, blob)
    if net is None:
        return _MISS, token
    forest = _worker_forest(token, net)
    counters_before = metrics.counters()
    cache = get_cache() if use_shared_cache else None
    mapper = TreeMapper(k, split_threshold=split_threshold, cache=cache)
    with _shipped_spans(trace) as spans:
        results = [
            (index, map_one_tree(mapper, net, forest.trees[index], worker))
            for index in indices
        ]
    delta = metrics.counter_delta(counters_before)
    return (
        results,
        _worker_telemetry(submitted_at, started_at, delta),
        delta,
        spans,
    )


def map_trees_processes(
    net: BooleanNetwork,
    num_trees: int,
    k: int,
    split_threshold: int,
    jobs: int,
    use_shared_cache: bool = False,
) -> List[object]:
    """Root candidates for every tree of ``net``'s forest, in forest order.

    ``net`` must already be swept.  The network is registered with the
    shared pool's subject registry and payloads carry only its token;
    workers that predate the registration miss once and are resent the
    pickled subject.  Chunk ``w`` holds the trees whose index is ``w``
    modulo ``jobs`` and tags their spans ``worker=w``.  Each worker keeps
    its own process-local memo cache when ``use_shared_cache`` is set —
    processes cannot share the parent's in-memory cache, but repeated
    shapes still hit, and the traffic comes home as counters.  Call this
    inside the span the trees' spans should be attached under.
    """
    token = register_subject(net)
    pool = get_pool(jobs)
    tracer = get_tracer()
    trace = tracer.enabled
    results: List[object] = [None] * num_trees

    def submit(worker: int, chunk: List[int], blob: Optional[bytes]):
        payload = (
            token, blob, k, split_threshold, chunk, worker, use_shared_cache,
            trace, time.perf_counter(),
        )
        future, nbytes = _submit_with_bytes(pool, _map_tree_chunk, payload)
        return future, nbytes, worker, chunk

    pending = [
        submit(worker, chunk, None)
        for worker, chunk in enumerate(_chunk_round_robin(num_trees, jobs))
    ]
    while pending:
        retries = []
        for future, payload_bytes, worker, chunk in pending:
            outcome = future.result()
            if outcome[0] == _MISS:
                metrics.count("perf.parallel.subject_miss")
                retries.append(submit(worker, chunk, subject_blob(token)))
                continue
            chunk_results, telemetry, counters, spans = outcome
            record_worker_telemetry(telemetry, pickle_bytes=payload_bytes)
            for name, value in counters.items():
                metrics.count(name, value)
            tracer.adopt(spans)
            for index, cand in chunk_results:
                results[index] = cand
        pending = retries
    return results


# -- suite-level workers -----------------------------------------------------


def _run_suite_cell(payload: tuple):
    """Run one (circuit, K, mapper) benchmark cell inside a worker.

    Returns ``(report dict, telemetry, spans)``; the cell's counters
    travel in the report dict.
    """
    started_at = time.perf_counter()
    (
        token,
        blob,
        k,
        mapper_name,
        verify,
        use_cache,
        trace,
        submitted_at,
    ) = payload
    from repro.bench.runner import run_one_cell

    net = resolve_subject(token, blob)
    if net is None:
        return _MISS, token
    counters_before = metrics.counters()
    with _shipped_spans(trace) as spans:
        report = run_one_cell(
            net,
            k,
            mapper_name,
            verify=verify,
            cache=use_cache,
        )
    delta = metrics.counter_delta(counters_before)
    return (
        report.to_dict(),
        _worker_telemetry(submitted_at, started_at, delta),
        spans,
    )


def run_cells_processes(
    cells: Sequence[Tuple[BooleanNetwork, int, str]],
    jobs: int,
    verify: bool = False,
    use_cache: bool = False,
    on_result: Optional[Callable[[int, dict], None]] = None,
) -> List[dict]:
    """Report dicts for every cell, in the order the cells were given.

    Cells are shipped as ``(subject_token, k, mapper)`` tuples — several
    cells sweeping one circuit across K values or mappers register the
    circuit once and share the token, so the per-cell payload is a few
    hundred bytes regardless of network size.  Workers return
    ``MappingReport.to_dict()`` payloads; the caller turns them back
    into reports.  ``on_result(cell_index, report_dict)`` is invoked as
    each cell *completes* (completion order, not submission order) —
    the hook progress streaming hangs off.  Call this inside the span
    the cells' ``bench.run`` spans should be attached under.
    """
    jobs = min(jobs, len(cells)) or 1
    # Register every subject before the pool spins up: freshly-forked
    # workers inherit the whole registry, so no cell pays a miss-retry.
    tokens = [register_subject(net) for net, _k, _mapper in cells]
    pool = get_pool(jobs)
    tracer = get_tracer()
    trace = tracer.enabled

    def cell_payload(index: int, blob: Optional[bytes]) -> tuple:
        _net, k, mapper_name = cells[index]
        return (
            tokens[index], blob, k, mapper_name, verify, use_cache, trace,
            time.perf_counter(),
        )

    futures: Dict[object, int] = {}
    payload_bytes: Dict[int, int] = {}
    for index in range(len(cells)):
        future, nbytes = _submit_with_bytes(
            pool, _run_suite_cell, cell_payload(index, None)
        )
        futures[future] = index
        payload_bytes[index] = nbytes

    rows: List[dict] = [{} for _ in cells]
    while futures:
        done, _ = concurrent.futures.wait(
            list(futures), return_when=concurrent.futures.FIRST_COMPLETED
        )
        for future in done:
            index = futures.pop(future)
            outcome = future.result()
            if outcome[0] == _MISS:
                metrics.count("perf.parallel.subject_miss")
                net = cells[index][0]
                retry, nbytes = _submit_with_bytes(
                    pool,
                    _run_suite_cell,
                    cell_payload(index, subject_blob(register_subject(net))),
                )
                futures[retry] = index
                payload_bytes[index] += nbytes
                continue
            row, telemetry, spans = outcome
            record_worker_telemetry(
                telemetry, pickle_bytes=payload_bytes[index]
            )
            tracer.adopt(spans)
            rows[index] = row
            if on_result is not None:
                on_result(index, row)
    return rows

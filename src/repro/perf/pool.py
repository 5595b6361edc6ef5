"""Fork-once persistent worker pool with a shared subject registry.

Before this module, every process fan-out built a fresh
``ProcessPoolExecutor`` and pickled the whole subject network into every
chunk payload — worker start-up and serialization costs that made
process-parallel mapping *slower* than serial on anything but huge
networks.  The pool here is created once and reused across all trees of
a network and all cells of a suite, and subjects ship through a
registry instead of through payloads:

* **fork** (Linux, the default wherever available): the parent registers
  the subject in a module-global dict *before* workers exist; forked
  workers inherit the parent's memory image, so the subject crosses the
  process boundary as copy-on-write pages — zero pickle bytes.
* **spawn** (fallback): new workers are seeded by the pool initializer
  with a snapshot of the registry taken at pool creation.
* **miss-retry**: a subject registered *after* a worker was forked (or
  after the spawn snapshot) is absent in that worker; the worker returns
  a miss sentinel and the caller resubmits the task with the pickled
  subject attached, which the worker then caches for the rest of its
  life.  Every subject is pickled at most once per worker, instead of
  once per chunk.

Under either start method the initializer also resets the worker's
tracer: a forked worker would otherwise inherit the parent's trace sinks
and open spans.  Worker spans reach the parent's trace only when the
parent asks for them (see :mod:`repro.perf.parallel`).

Because workers are long-lived, their process-local memo caches
(:func:`repro.perf.memo.get_cache`) survive across cells and suites —
a cold suite run self-warms as structurally repeating shapes recur.

``reset_pool()`` tears the singleton down (benchmark legs that must
measure cold workers; tests).  An ``atexit`` hook shuts the pool down
on interpreter exit.
"""

from __future__ import annotations

import atexit
import concurrent.futures
import itertools
import multiprocessing
import pickle
from typing import Dict, Optional

from repro.obs import get_tracer, metrics

__all__ = [
    "WorkerPool",
    "get_pool",
    "reset_pool",
    "pool_start_method",
    "register_subject",
    "subject_blob",
    "resolve_subject",
]

_FORK_AVAILABLE = "fork" in multiprocessing.get_all_start_methods()


def pool_start_method() -> str:
    """``fork`` where the platform offers it, else ``spawn``."""
    return "fork" if _FORK_AVAILABLE else "spawn"


# -- the subject registry ----------------------------------------------------
#
# One module-global dict plays three roles: the parent's registry, the
# fork-inherited image inside fork workers, and the per-worker cache of
# spawn-seeded / retry-shipped subjects.

_SUBJECTS: Dict[str, object] = {}
_SUBJECT_TOKENS: Dict[int, str] = {}  # id(subject) -> token, parent side
_SUBJECT_BLOBS: Dict[str, bytes] = {}  # lazy pickles for retry/seeding
_TOKEN_SEQ = itertools.count(1)


def register_subject(subject: object) -> str:
    """Register a subject (parent side); returns its shipping token.

    Registering the same object again returns the same token, which is
    how suite cells sharing one circuit at different K dedupe down to a
    single shipped subject.
    """
    token = _SUBJECT_TOKENS.get(id(subject))
    if token is not None and _SUBJECTS.get(token) is subject:
        return token
    token = "s%d" % next(_TOKEN_SEQ)
    _SUBJECT_TOKENS[id(subject)] = token
    _SUBJECTS[token] = subject
    return token


def subject_blob(token: str) -> bytes:
    """The pickled subject for miss-retry, pickled at most once."""
    blob = _SUBJECT_BLOBS.get(token)
    if blob is None:
        blob = pickle.dumps(_SUBJECTS[token], pickle.HIGHEST_PROTOCOL)
        _SUBJECT_BLOBS[token] = blob
    return blob


def resolve_subject(token: str, blob: Optional[bytes]) -> Optional[object]:
    """Worker side: the subject for ``token``, or ``None`` on a miss.

    Resolution order: the registry (fork inheritance, spawn seeding, or
    an earlier retry), then the attached ``blob`` (cached for subsequent
    tasks).  ``None`` tells the caller to resubmit with the blob.
    """
    subject = _SUBJECTS.get(token)
    if subject is not None:
        return subject
    if blob is not None:
        subject = pickle.loads(blob)
        _SUBJECTS[token] = subject
        return subject
    return None


def _init_worker(snapshot: Dict[str, object]) -> None:
    """Pool initializer: a clean tracer, then the registry snapshot.

    Fork workers get an empty snapshot (they inherited the registry);
    spawn workers get the registry as it stood at pool creation.
    """
    get_tracer().reset()
    _SUBJECTS.update(snapshot)


# -- the pool ----------------------------------------------------------------


class WorkerPool:
    """One long-lived ``ProcessPoolExecutor`` plus its shipping metadata."""

    def __init__(self, jobs: int, start_method: Optional[str] = None):
        self.jobs = jobs
        self.start_method = start_method or pool_start_method()
        self.broken = False
        # Fork workers fork lazily at submit and inherit _SUBJECTS by
        # memory image; spawn workers start empty and need the snapshot.
        snapshot = {} if self.start_method == "fork" else dict(_SUBJECTS)
        self.executor = concurrent.futures.ProcessPoolExecutor(
            max_workers=jobs,
            mp_context=multiprocessing.get_context(self.start_method),
            initializer=_init_worker,
            initargs=(snapshot,),
        )
        metrics.count("perf.pool.created")

    def submit(self, fn, *args) -> concurrent.futures.Future:
        try:
            return self.executor.submit(fn, *args)
        except concurrent.futures.process.BrokenProcessPool:
            self.broken = True
            raise

    def shutdown(self) -> None:
        self.executor.shutdown(wait=True, cancel_futures=True)


_POOL: Optional[WorkerPool] = None
_ATEXIT_ARMED = False


def get_pool(jobs: int) -> WorkerPool:
    """The shared pool, sized for at least ``jobs`` workers.

    Reuses the live pool when it is healthy and large enough (the whole
    point: warm workers, warm worker caches); recreates it — at the max
    of the old and requested sizes — when it is too small or broken.
    """
    global _POOL, _ATEXIT_ARMED
    if _POOL is not None and not _POOL.broken and _POOL.jobs >= jobs:
        metrics.count("perf.pool.reused")
        return _POOL
    if _POOL is not None:
        jobs = max(jobs, _POOL.jobs)
        _POOL.shutdown()
    _POOL = WorkerPool(jobs)
    if not _ATEXIT_ARMED:
        atexit.register(reset_pool)
        _ATEXIT_ARMED = True
    return _POOL


def reset_pool() -> None:
    """Shut the shared pool down (cold-worker benchmark legs; tests).

    Registered subjects stay registered: a future pool's fork workers
    re-inherit them for free, and spawn workers re-seed from the
    snapshot at creation.
    """
    global _POOL
    if _POOL is not None:
        _POOL.shutdown()
        _POOL = None

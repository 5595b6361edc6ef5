"""Measured perf trajectory: the harness behind ``chortle bench-perf``.

Times the Table 1-4 suite through the chortle engine in four phases —

* ``serial_uncached`` — the reference configuration: one cell at a time,
  no memo cache.  Every other phase's ``speedup_vs_serial`` is measured
  against this wall clock.
* ``cold_cache``      — same sweep with a fresh structural node-table
  cache (:class:`~repro.perf.memo.NodeTableCache`).  Pays the misses,
  but repeated tree shapes within the sweep already hit.
* ``warm_cache``      — the sweep again on the now-populated cache.
* ``parallel``        — uncached, with ``jobs`` worker threads mapping
  forest trees concurrently inside each cell.

— plus, unless disabled, a **jobs × phase matrix** of process-executor
legs over the fork-once worker pool (:mod:`repro.perf.pool`): for each
jobs value in :data:`MATRIX_JOBS` a ``pool_cold`` leg (the shared pool
is torn down first, so the leg pays worker start-up) and a
``pool_reuse`` leg (the now-warm pool and its self-warmed worker caches
are reused).  The legs land in the ``phases`` block under
``parallel_proc_j<N>_<cold|reuse>`` names and are summarized in the
``matrix`` block.

Every phase must produce *identical* QoR (LUTs / counted LUTs / depth
per cell) — the harness cross-checks and reports ``qor_identical``; a
mismatch fails the gate, because a cache or a worker pool that changes
results is a correctness bug, not a performance feature.

The gate additionally requires the warm-cache phase to not be slower
than the cold phase beyond a noise tolerance — the regression mode a
broken cache exhibits first (all misses plus lookup overhead) — and,
when the host offers at least two schedulable cores, a parallel leg at
``jobs >= 2`` (with no more jobs than cores) to beat serial outright.
On smaller hosts the parallel verdict is not silently passed but
explicitly recorded as ``skipped (insufficient cores)``: time-slicing
two workers on one core measures overhead, not scaling.  A serial
phase too short to amortize worker start-up is likewise recorded as
``skipped (workload below floor)``.  CI runs
``chortle bench-perf --quick --gate`` on every push; the committed
``BENCH_perf.json`` at the repository root is a full-suite run.

Phase wall clocks are wrapped in ``bench.perf_phase`` tracer spans and
the cache counters land in the metrics registry (``perf.cache.*``), so
the trajectory is visible through the standard observability surface.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.bench.mcnc import TABLE_CIRCUITS, mcnc_circuit
from repro.bench.runner import mapper_factory, run_one_cell
from repro.network.network import BooleanNetwork
from repro.network.transform import sweep
from repro.obs import metrics, span
from repro.obs.perfrec import collect_perf_environment, effective_affinity
from repro.obs.progress import ProgressEmitter, resolve_progress
from repro.perf.memo import NodeTableCache
from repro.perf.parallel import worker_buckets
from repro.perf.pool import register_subject, reset_pool

#: Bump when the result layout changes.  2: jobs x phase matrix legs,
#: ``matrix`` summary block, explicit parallel gate verdict, and the
#: schedulable-core set in ``config``.
SCHEMA = 2

#: Worker counts the process-executor matrix sweeps (1 is the serial
#: reference leg; the others exercise the fork-once pool).
MATRIX_JOBS: Tuple[int, ...] = (1, 2, 4)

#: The ``--quick`` subset: small enough for a CI smoke job, repetitive
#: enough (shared tree shapes across circuits and K values) that the
#: warm-cache phase meaningfully exercises the memo.
QUICK_CIRCUITS: Tuple[str, ...] = ("9symml", "alu2", "count", "frg1")
QUICK_KS: Tuple[int, ...] = (3, 4)

#: Warm may be at most this fraction slower than cold before the gate
#: fails (timer noise on loaded CI machines; a healthy warm phase is
#: dramatically *faster*).
DEFAULT_WARM_TOLERANCE = 0.20

#: Absolute seconds added on top of the relative warm tolerance so
#: millisecond-scale runs (a single tiny cell) don't fail the gate on
#: scheduler jitter alone.  Negligible against real suite wall clocks.
_WARM_NOISE_FLOOR = 0.05

#: Serial seconds below which the parallel verdict is skipped: on a
#: workload this small, worker start-up decides the race, so a measured
#: speedup says nothing about scaling.
_PARALLEL_MIN_SERIAL_S = 1.0


def _run_phase(
    name: str,
    cells: Sequence[Tuple[BooleanNetwork, int, str]],
    cache: Optional[NodeTableCache],
    jobs: int,
    progress: Optional[ProgressEmitter] = None,
    executor: str = "thread",
) -> Tuple[dict, List[list]]:
    """Run every cell once; returns (phase record, per-cell QoR rows)."""
    mapper_opts: Optional[Dict[str, object]] = None
    if jobs > 1:
        mapper_opts = {"jobs": jobs}
        if executor != "thread":
            mapper_opts["executor"] = executor
            # Register the whole suite before the first submit: a
            # freshly-forked pool then inherits every subject and no
            # cell pays a miss-retry blob mid-phase.  The mappers fan
            # out the *swept* network, which the sweep memo keeps
            # identity-stable across cells and phases.
            for net, _k, _mapper in cells:
                register_subject(sweep(net))
    counters_before = metrics.counters()
    qor: List[list] = []
    started = time.perf_counter()
    with span("bench.perf_phase", phase=name, cells=len(cells), jobs=jobs):
        for net, k, mapper_name in cells:
            if progress is not None:
                progress.cell_started(net.name, k, mapper_name, phase=name)
            cell_started = time.perf_counter()
            report = run_one_cell(
                net,
                k,
                mapper_name,
                cache=cache,
                mapper_opts=mapper_opts,
            )
            if progress is not None:
                progress.cell_finished(
                    net.name,
                    k,
                    mapper_name,
                    seconds=time.perf_counter() - cell_started,
                    phase=name,
                )
            qor.append(
                [net.name, k, mapper_name, report.luts, report.luts_total,
                 report.depth]
            )
    seconds = time.perf_counter() - started
    delta = metrics.counter_delta(counters_before)
    record = {
        "seconds": round(seconds, 4),
        "jobs": jobs,
        "cached": cache is not None,
        "cache": None,
    }
    if cache is not None:
        hits = delta.get(cache.name + ".hits", 0)
        misses = delta.get(cache.name + ".misses", 0)
        record["cache"] = {
            "hits": hits,
            "misses": misses,
            "evictions": delta.get(cache.name + ".evictions", 0),
            "hit_rate": round(hits / (hits + misses), 4)
            if hits + misses
            else 0.0,
            "size": len(cache),
        }
    if jobs > 1:
        # Attribute the phase's worker time: compute vs queue wait vs
        # serialized payload bytes (zero for thread workers), straight
        # from the perf.parallel.* counter delta.
        record["executor"] = executor
        record["workers"] = worker_buckets(delta, jobs=jobs, executor=executor)
    return record, qor


def _matrix_legs(jobs: int) -> List[Tuple[str, int, Optional[bool]]]:
    """The matrix sweep: (phase name, jobs, pool reuse) per leg.

    ``jobs=1`` is the serial reference leg (the pool never engages, so
    reuse is ``None``); every larger jobs value gets a cold-pool leg —
    :func:`~repro.perf.pool.reset_pool` first, so the leg pays worker
    start-up — and a reuse leg on the warm pool.
    """
    legs: List[Tuple[str, int, Optional[bool]]] = []
    for jobs_n in sorted(set(MATRIX_JOBS) | ({jobs} if jobs > 1 else set())):
        if jobs_n == 1:
            legs.append(("parallel_proc_j1", 1, None))
            continue
        legs.append(("parallel_proc_j%d_cold" % jobs_n, jobs_n, False))
        legs.append(("parallel_proc_j%d_reuse" % jobs_n, jobs_n, True))
    return legs


def _parallel_gate(
    phases: Dict[str, dict], affinity: Optional[int]
) -> Dict[str, object]:
    """The parallel speedup verdict: pass, fail, or an explicit skip.

    A leg is *eligible* when it ran at ``jobs >= 2`` and the host had at
    least ``jobs`` schedulable cores — with fewer cores the workers
    time-slice and a speedup below 1.0x is the expected outcome, so the
    verdict is downgraded to ``skipped (insufficient cores)`` instead of
    silently passing (or spuriously failing) the gate.  A
    ``serial_uncached`` phase shorter than :data:`_PARALLEL_MIN_SERIAL_S`
    is likewise ``skipped (workload below floor)``.
    """
    serial = phases.get("serial_uncached", {}).get("seconds")
    if serial is not None and serial < _PARALLEL_MIN_SERIAL_S:
        return {
            "status": "skipped (workload below floor)",
            "affinity": affinity,
            "serial_seconds": serial,
            "floor_seconds": _PARALLEL_MIN_SERIAL_S,
            "ok": None,
        }
    legs = {}
    for name, record in phases.items():
        jobs = int(record.get("jobs", 1) or 1)
        if jobs < 2 or name in ("serial_uncached", "cold_cache", "warm_cache"):
            continue
        legs[name] = (jobs, record.get("speedup_vs_serial"))
    eligible = {
        name: speedup
        for name, (jobs, speedup) in legs.items()
        if affinity is not None and affinity >= jobs and speedup is not None
    }
    if not eligible:
        return {
            "status": "skipped (insufficient cores)",
            "affinity": affinity,
            "required": "parallel > 1.0x at jobs >= 2 with affinity >= jobs",
            "ok": None,
        }
    best = max(eligible, key=lambda name: eligible[name])
    return {
        "status": "checked",
        "affinity": affinity,
        "best_leg": best,
        "best_speedup": eligible[best],
        "ok": eligible[best] > 1.0,
    }


def run_bench_perf(
    circuits: Optional[Sequence[str]] = None,
    ks: Optional[Sequence[int]] = None,
    mappers: Sequence[str] = ("chortle",),
    jobs: int = 2,
    quick: bool = False,
    created_at: str = "",
    warm_tolerance: Optional[float] = None,
    cache_dir: Optional[str] = None,
    progress: object = False,
    matrix: bool = True,
) -> dict:
    """Measure the perf trajectory; returns the ``BENCH_perf.json`` payload.

    ``circuits`` / ``ks`` default to the full Table 1-4 suite (or the
    CI-sized ``--quick`` subset when ``quick`` is set).  ``jobs`` sizes
    the parallel phase's thread pool.  ``matrix`` additionally sweeps
    the process-executor jobs x pool-reuse legs (see the module
    docstring); pass ``False`` to skip them.  When ``cache_dir`` is
    given, the warm cache is additionally saved to disk there and
    immediately re-loaded into a fresh cache, recording the round trip.
    ``progress`` takes ``True`` (heartbeat lines on stderr) or a
    :class:`~repro.obs.progress.ProgressEmitter` for per-cell
    started/finished/ETA events across all phases.

    The returned payload carries a ``gate`` block; callers that want a
    pass/fail exit check ``gate["pass"]``.
    """
    if warm_tolerance is None:
        warm_tolerance = DEFAULT_WARM_TOLERANCE
    if circuits is None:
        circuits = QUICK_CIRCUITS if quick else TABLE_CIRCUITS
    if ks is None:
        ks = QUICK_KS if quick else (2, 3, 4, 5)
    for name in mappers:
        mapper_factory(name)  # fail fast, before any timing
    networks = [mcnc_circuit(str(name)) for name in circuits]
    cells: List[Tuple[BooleanNetwork, int, str]] = [
        (net, k, mapper_name)
        for net in networks
        for k in ks
        for mapper_name in mappers
    ]

    cache = NodeTableCache()
    phase_specs = [
        ("serial_uncached", None, 1, "thread", None),
        ("cold_cache", cache, 1, "thread", None),
        ("warm_cache", cache, 1, "thread", None),
        ("parallel", None, max(2, jobs), "thread", None),
    ]
    matrix_legs = _matrix_legs(jobs) if matrix else []
    for leg_name, leg_jobs, reuse in matrix_legs:
        phase_specs.append(
            (leg_name, None, leg_jobs, "process" if leg_jobs > 1 else "thread",
             reuse)
        )
    emitter = resolve_progress(progress, total=len(cells) * len(phase_specs))
    phases: Dict[str, dict] = {}
    qor_by_phase: Dict[str, List[list]] = {}
    for name, phase_cache, phase_jobs, phase_executor, reuse in phase_specs:
        if reuse is False:
            # A cold-pool leg measures worker start-up: tear the shared
            # pool down so the leg forks fresh workers.
            reset_pool()
        record, qor = _run_phase(
            name, cells, phase_cache, phase_jobs, progress=emitter,
            executor=phase_executor,
        )
        if reuse is not None:
            record["pool_reuse"] = reuse
        phases[name] = record
        qor_by_phase[name] = qor

    serial_seconds = phases["serial_uncached"]["seconds"]
    for record in phases.values():
        record["speedup_vs_serial"] = (
            round(serial_seconds / record["seconds"], 3)
            if record["seconds"] > 0
            else None
        )

    reference = qor_by_phase["serial_uncached"]
    mismatches = []
    for name, qor in qor_by_phase.items():
        for ref_row, row in zip(reference, qor):
            if ref_row != row:
                mismatches.append({"phase": name, "expected": ref_row,
                                   "got": row})
    qor_identical = not mismatches

    disk = None
    if cache_dir:
        path = cache.save_disk(cache_dir)
        reloaded = NodeTableCache(name="perf.cache.reload")
        loaded = reloaded.load_disk(cache_dir)
        disk = {
            "path": path,
            "entries_saved": len(cache),
            "entries_loaded": loaded,
            "round_trip_ok": loaded == len(cache),
        }

    warm = phases["warm_cache"]["seconds"]
    cold = phases["cold_cache"]["seconds"]
    # The relative tolerance plus a small absolute floor: on runs whose
    # phases finish in tens of milliseconds (one tiny cell), scheduler
    # jitter swamps any real cache effect and a pure ratio check flakes.
    warm_ok = warm <= cold * (1.0 + warm_tolerance) + _WARM_NOISE_FLOOR
    affinity = effective_affinity()
    parallel_gate = _parallel_gate(phases, affinity)
    gate = {
        "warm_tolerance": warm_tolerance,
        "warm_not_slower_than_cold": warm_ok,
        "qor_identical": qor_identical,
        "parallel": parallel_gate,
        # An ineligible host skips the parallel verdict explicitly
        # rather than failing it (ok is None) — only a measured
        # speedup <= 1.0x on an eligible host fails.
        "pass": warm_ok and qor_identical and parallel_gate["ok"] is not False,
    }

    sched = None
    if hasattr(os, "sched_getaffinity"):
        sched = sorted(os.sched_getaffinity(0))
    result = {
        "schema": SCHEMA,
        "created_at": created_at,
        "quick": quick,
        "config": {
            "circuits": [net.name for net in networks],
            "ks": list(ks),
            "mappers": list(mappers),
            "jobs": max(2, jobs),
            "cpu_count": os.cpu_count(),
            "cpu_affinity": affinity,
            "sched_getaffinity": sched,
        },
        "environment": collect_perf_environment(),
        "cells": len(cells),
        "phases": phases,
        "qor_identical": qor_identical,
        "gate": gate,
    }
    if matrix_legs:
        result["matrix"] = [
            {
                "phase": leg_name,
                "jobs": leg_jobs,
                "pool_reuse": reuse,
                "seconds": phases[leg_name]["seconds"],
                "speedup_vs_serial": phases[leg_name]["speedup_vs_serial"],
            }
            for leg_name, leg_jobs, reuse in matrix_legs
        ]
    if mismatches:
        result["qor_mismatches"] = mismatches[:20]
    if disk is not None:
        result["disk_cache"] = disk
    return result


def render_bench_perf(result: dict) -> str:
    """A small human-readable summary of one bench-perf payload."""
    lines = [
        "bench-perf: %d cells (%s; K in %s)"
        % (
            result["cells"],
            ", ".join(result["config"]["circuits"]),
            result["config"]["ks"],
        )
    ]
    canonical = ("serial_uncached", "cold_cache", "warm_cache", "parallel")
    matrix_names = [row["phase"] for row in result.get("matrix", [])]
    for name in list(canonical) + matrix_names:
        phase = result["phases"][name]
        extra = ""
        if phase.get("cache"):
            extra = "  (cache: %d hits / %d misses, %.0f%% hit rate)" % (
                phase["cache"]["hits"],
                phase["cache"]["misses"],
                100.0 * phase["cache"]["hit_rate"],
            )
        if phase.get("jobs", 1) > 1:
            extra = "  (jobs=%d, %s executor%s)" % (
                phase["jobs"],
                phase.get("executor", "thread"),
                ""
                if "pool_reuse" not in phase
                else (", warm pool" if phase["pool_reuse"] else ", cold pool"),
            )
        lines.append(
            "  %-22s %8.3fs  %5.2fx vs serial%s"
            % (name, phase["seconds"], phase["speedup_vs_serial"] or 0.0,
               extra)
        )
        workers = phase.get("workers")
        if workers:
            lines.append(
                "  %-22s %d tasks: %.3fs compute, %.3fs queue wait, "
                "%d pickled bytes (%s executor)"
                % (
                    "",
                    workers["tasks"],
                    workers["compute_seconds"],
                    workers["queue_wait_seconds"],
                    workers["pickle_bytes"],
                    workers["executor"],
                )
            )
    jobs = result["config"]["jobs"]
    cores = result["config"].get("cpu_affinity")
    if cores is None:
        cores = result["config"].get("cpu_count")
    if isinstance(cores, int) and jobs > cores:
        lines.append(
            "  WARNING: parallel phase ran jobs=%d on %d schedulable "
            "core(s); workers time-slice one core, so speedup <= 1.0x "
            "measures overhead, not scaling" % (jobs, cores)
        )
    gate = result["gate"]
    verdict = gate.get("parallel")
    if isinstance(verdict, dict):
        if verdict.get("ok") is None:
            lines.append(
                "  parallel gate: %s (affinity=%s)"
                % (verdict.get("status"), verdict.get("affinity"))
            )
        else:
            lines.append(
                "  parallel gate: %s — best leg %s at %.2fx"
                % (
                    "ok" if verdict["ok"] else "FAIL",
                    verdict.get("best_leg"),
                    verdict.get("best_speedup") or 0.0,
                )
            )
    lines.append(
        "  QoR identical across phases: %s; gate %s"
        % (
            "yes" if result["qor_identical"] else "NO",
            "PASS" if gate["pass"] else "FAIL",
        )
    )
    return "\n".join(lines)


def save_bench_perf(result: dict, path: str) -> None:
    """Write the payload as stable, diff-friendly JSON."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=2, sort_keys=True)
        handle.write("\n")

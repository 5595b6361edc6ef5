"""Suite-level linting: audit every mapped cell of the benchmark sweep.

:func:`lint_cell` maps one (circuit, K, mapper) cell and runs the full
:func:`~repro.analysis.engine.lint_mapping` audit over it;
:func:`lint_suite` fans the cells of the QoR sweep across the shared
fork-once worker pool (:func:`repro.perf.pool.get_pool`) the benchmark
runner uses (workers at module top level so they pickle under
``spawn``; results restored in submission order so output is
deterministic).  This is what ``chortle lint
--suite`` and the CI ``lint-circuits`` gate run.
"""

from __future__ import annotations

import concurrent.futures
from typing import List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import Diagnostic

DEFAULT_MAPPERS: Tuple[str, ...] = ("chortle", "mis", "cutmap")
DEFAULT_KS: Tuple[int, ...] = (2, 3, 4, 5)


def lint_cell(
    name: str, k: int, mapper: str, semantic: bool = False
) -> List[Diagnostic]:
    """Map one benchmark cell and lint the complete mapping.

    ``name`` resolves like the benchmark runner's cell names: an MCNC
    profile or an adversarial preset (``adv_*``).  ``semantic=True``
    additionally runs the SAT-backed CHRT4xx rules over the circuit.
    """
    from repro.analysis.engine import lint_mapping
    from repro.bench.adversarial import resolve_cell
    from repro.flow.mappers import resolve_mapper
    from repro.report import build_report

    net = resolve_cell(name)
    circuit = resolve_mapper(mapper, k).map(net)
    report = build_report(net, circuit, k, mapper=mapper)
    subject = "%s[k=%d,%s]" % (name, k, mapper)
    return lint_mapping(
        net, circuit, k=k, report=report, subject=subject, semantic=semantic
    )


def _lint_cell_worker(
    payload: Tuple[str, int, str, bool],
) -> List[Diagnostic]:
    name, k, mapper, semantic = payload
    return lint_cell(name, k, mapper, semantic=semantic)


def _timed_lint_cell_worker(
    payload: Tuple[str, int, str, bool],
) -> Tuple[List[Diagnostic], float]:
    import time

    started = time.perf_counter()
    return _lint_cell_worker(payload), time.perf_counter() - started


def lint_suite(
    circuits: Optional[Sequence[str]] = None,
    mappers: Sequence[str] = DEFAULT_MAPPERS,
    ks: Sequence[int] = DEFAULT_KS,
    jobs: int = 1,
    progress: object = False,
    semantic: bool = False,
) -> List[Diagnostic]:
    """Lint every (circuit, K, mapper) cell of the sweep; all findings.

    ``progress`` takes ``True`` (heartbeat lines on stderr) or a
    :class:`~repro.obs.progress.ProgressEmitter` for per-cell
    started/finished events while the audit runs (parallel audits emit
    finished events only, in completion order; findings still come back
    in submission order).
    """
    import time

    from repro.bench.mcnc import TABLE_CIRCUITS
    from repro.obs.progress import resolve_progress

    from repro.flow.mappers import supports_k

    names = list(circuits) if circuits else list(TABLE_CIRCUITS)
    # Same capability filter as the benchmark runner: cells a mapper
    # cannot do at that K (mis beyond K=5) are skipped, not failed.
    cells = [
        (n, k, m, semantic)
        for n in names
        for k in ks
        for m in mappers
        if supports_k(m, k)
    ]
    emitter = resolve_progress(progress, total=len(cells))
    findings: List[Diagnostic] = []
    if jobs <= 1 or len(cells) <= 1:
        for cell in cells:
            name, k, mapper = cell[:3]
            if emitter is not None:
                emitter.cell_started(name, k, mapper, phase="lint")
            started = time.perf_counter()
            findings.extend(_lint_cell_worker(cell))
            if emitter is not None:
                emitter.cell_finished(
                    name, k, mapper,
                    seconds=time.perf_counter() - started,
                    phase="lint",
                )
        return findings
    from repro.perf.pool import get_pool

    pool = get_pool(min(jobs, len(cells)))
    futures = [pool.submit(_timed_lint_cell_worker, cell) for cell in cells]
    if emitter is not None:
        future_cells = dict(zip(futures, cells))
        for future in concurrent.futures.as_completed(futures):
            name, k, mapper = future_cells[future][:3]
            emitter.cell_finished(
                name, k, mapper,
                seconds=future.result()[1],
                phase="lint",
            )
    # Findings in submission order, whatever order the pool ran them.
    for future in futures:
        findings.extend(future.result()[0])
    return findings

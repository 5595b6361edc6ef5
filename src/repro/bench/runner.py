"""Programmatic experiment runner: suite sweeps with exportable results.

Runs a set of circuits through a set of mappers at a set of K values and
collects :class:`~repro.report.MappingReport` objects, exportable as
JSON or CSV for regression tracking — the machine-readable counterpart
of the pytest benchmark harness.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.bench.mcnc import TABLE_CIRCUITS
from repro.errors import BenchError, FlowError
from repro.flow.mappers import (
    mapper_names,
    resolve_mapper,
    supported_k_range,
    supports_k,
)
from repro.network.network import BooleanNetwork
from repro.obs import capture, metrics, span
from repro.report import MappingReport, build_report
from repro.verify import verify_equivalence

if TYPE_CHECKING:
    from repro.obs.qor import RunRecord


_CSV_FIELDS = [
    "circuit_name",
    "k",
    "mapper",
    "num_inputs",
    "num_outputs",
    "source_gates",
    "luts",
    "luts_total",
    "depth",
    "seconds",
    "wall_seconds",
    "depth_attribution",
]


def _format_attribution(attribution: Optional[Dict[str, int]]) -> str:
    """The CSV cell for a depth attribution: ``tree=levels;...`` or ``n/a``."""
    if not attribution:
        return "n/a"
    ranked = sorted(attribution.items(), key=lambda kv: (-kv[1], kv[0]))
    return ";".join("%s=%d" % (tree, levels) for tree, levels in ranked)


@dataclass
class SuiteResult:
    """All reports from one sweep, with export helpers."""

    reports: List[MappingReport] = field(default_factory=list)

    def filter(self, **criteria) -> List[MappingReport]:
        out = []
        for report in self.reports:
            if all(getattr(report, key) == val for key, val in criteria.items()):
                out.append(report)
        return out

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            [r.to_dict() for r in self.reports], indent=indent, sort_keys=True
        )

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.DictWriter(buffer, fieldnames=_CSV_FIELDS)
        writer.writeheader()
        for report in self.reports:
            row = {key: getattr(report, key) for key in _CSV_FIELDS}
            row["depth_attribution"] = _format_attribution(
                report.depth_attribution
            )
            writer.writerow(row)
        return buffer.getvalue()

    def to_records(
        self,
        created_at: str,
        label: str = "",
        environment: Optional[Dict[str, str]] = None,
    ) -> RunRecord:
        """Bundle the reports into a persistent QoR run record.

        ``created_at`` is caller-supplied (ISO-8601 by convention);
        ``environment`` defaults to the live git sha / python / platform.
        """
        from repro.obs.qor import RunRecord, collect_environment

        env = dict(environment) if environment is not None else collect_environment()
        return RunRecord(
            reports=list(self.reports),
            created_at=created_at,
            environment=env,
            label=label,
        )

    def comparison(self, k: int, baseline: str, challenger: str) -> Dict[str, float]:
        """Per-circuit % improvement of challenger over baseline LUTs."""
        gains: Dict[str, float] = {}
        base = {r.circuit_name: r for r in self.filter(k=k, mapper=baseline)}
        for report in self.filter(k=k, mapper=challenger):
            ref = base.get(report.circuit_name)
            if ref is None or ref.luts == 0:
                continue
            gains[report.circuit_name] = 100.0 * (ref.luts - report.luts) / ref.luts
        return gains


def run_one_cell(
    net: BooleanNetwork,
    k: int,
    mapper_name: str,
    verify: bool = False,
    cache=None,
    jobs: int = 1,
) -> MappingReport:
    """Run a single (circuit, K, mapper) cell and build its report.

    The mapping is timed through the tracer (one ``bench.run`` span) and
    attributed a counter delta; ``wall_seconds`` additionally records
    the full cell wall clock — mapping plus verification plus report
    assembly — so QoR diffs can flag runtime regressions that live
    outside the mapper proper.  ``jobs`` maps the cell's trees on that
    many worker processes.
    """
    mapper = resolve_mapper(mapper_name, k, cache=cache, jobs=jobs)
    wall_started = time.perf_counter()
    counters_before = metrics.counters()
    # capture() must attach its sink before span() is evaluated, or the
    # tracer hands back the no-op span and the record never materializes.
    with capture() as sink, span(
        "bench.run", circuit=net.name, k=k, mapper=mapper_name
    ):
        circuit = mapper.map(net)
    run_span = sink.by_name("bench.run")[0]
    seconds = run_span.duration
    timings = {
        name: round(total, 6)
        for name, total in sink.stage_timings().items()
        if name not in ("bench.run", "chortle.map_tree")
    }
    if verify:
        verify_equivalence(net, circuit, vectors=256)
    report = build_report(
        net,
        circuit,
        k,
        mapper=mapper_name,
        seconds=round(seconds, 4),
        timings=timings,
        counters=metrics.counter_delta(counters_before),
    )
    return report.with_wall_seconds(
        round(time.perf_counter() - wall_started, 4)
    )


def run_suite(
    circuits: Optional[Sequence] = None,
    mappers: Sequence[str] = ("chortle", "mis"),
    ks: Sequence[int] = (2, 3, 4, 5),
    verify: bool = False,
    jobs: int = 1,
    cache=False,
    progress: object = False,
) -> SuiteResult:
    """Sweep circuits x mappers x K and return the collected reports.

    ``circuits`` may contain MCNC profile names or BooleanNetwork objects;
    default is the full 12-circuit table suite.

    ``jobs > 1`` fans the independent (circuit, mapper, K) cells across
    a process pool; reports come back in the same deterministic order —
    and with the same QoR — as a serial sweep.  ``cache`` enables the
    structural node-table memo for the chortle-engine cells (``True``
    for the process-wide shared cache, or an explicit
    :class:`~repro.perf.memo.NodeTableCache`); in parallel runs each
    worker process keeps its own cache.  ``progress`` takes ``True``
    (heartbeat lines on stderr) or a
    :class:`~repro.obs.progress.ProgressEmitter` for per-cell
    started/finished/ETA events while the sweep runs (parallel sweeps
    emit finished events only, in completion order).
    """
    from repro.obs.progress import resolve_progress

    if circuits is None:
        circuits = TABLE_CIRCUITS
    # Fail fast on bad mapper names, before any (expensive) mapping runs.
    for name in mappers:
        try:
            supported_k_range(name)
        except FlowError:
            raise BenchError(
                "unknown mapper %r; valid mappers: %s (or a flow spec such "
                "as 'sweep,strash,chortle,merge')"
                % (name, ", ".join(mapper_names()))
            ) from None
    from repro.bench.adversarial import resolve_cell

    networks: List[BooleanNetwork] = []
    for entry in circuits:
        if isinstance(entry, BooleanNetwork):
            networks.append(entry)
        else:
            networks.append(resolve_cell(str(entry)))

    # Mixed sweeps may pair a mapper with a K it cannot do (mis stops at
    # K=5, the cut mappers at K=6, a flow where its map pass stops);
    # those cells are skipped rather than failing the whole sweep, and
    # the skip count is observable.
    cells: List[Tuple[BooleanNetwork, int, str]] = [
        (net, k, mapper_name)
        for net in networks
        for k in ks
        for mapper_name in mappers
        if supports_k(mapper_name, k)
    ]
    skipped = len(networks) * len(ks) * len(mappers) - len(cells)
    if skipped:
        metrics.count("bench.cells_skipped", skipped)
    emitter = resolve_progress(progress, total=len(cells))

    result = SuiteResult()
    if jobs > 1 and len(cells) > 1:
        from repro.perf.parallel import run_cells_processes

        on_result = None
        if emitter is not None:
            def on_result(index: int, row: dict) -> None:
                net, k, mapper_name = cells[index]
                emitter.cell_finished(
                    net.name, k, mapper_name,
                    seconds=float(row.get("wall_seconds") or 0.0),
                )

        with span("bench.suite", jobs=jobs, cells=len(cells)):
            rows = run_cells_processes(
                cells, jobs=jobs, verify=verify, use_cache=bool(cache),
                on_result=on_result,
            )
        result.reports.extend(MappingReport.from_dict(row) for row in rows)
        return result

    from repro.perf.memo import resolve_cache

    cache_obj = resolve_cache(cache)
    for net, k, mapper_name in cells:
        if emitter is not None:
            emitter.cell_started(net.name, k, mapper_name)
        cell_started = time.perf_counter()
        report = run_one_cell(net, k, mapper_name, verify=verify, cache=cache_obj)
        if emitter is not None:
            emitter.cell_finished(
                net.name, k, mapper_name,
                seconds=time.perf_counter() - cell_started,
            )
        result.reports.append(report)
    return result

"""Perf diffing: noise-tolerant trajectory comparison and dashboards.

Mirrors :mod:`repro.obs.qordiff` for the perf observatory: two
:class:`~repro.obs.perfrec.PerfRecord` snapshots are compared metric by
metric under explicit :class:`PerfPolicy` rules and rendered as a
markdown dashboard with the recent trend and a worker-time attribution
of the parallel phase.

Raw wall seconds are honest only on the machine that measured them, so
the gating metrics are **phase ratios** — warm/serial, warm/cold,
parallel/serial — which describe the cache and the worker pool rather
than the host.  "Parallel" is the
:data:`~repro.obs.perfrec.PARALLEL_PHASE` matrix leg: two worker
processes on the warm pool.  Ratios still jitter (the phases are timed
separately), so every policy carries a relative-plus-absolute tolerance
band, like the QoR diff's soft metrics.  Raw per-phase seconds are
classified and shown but never gate.

When the two records were measured on different machine shapes
(cpu count / effective affinity — see
:meth:`~repro.obs.perfrec.PerfRecord.environment_key`), seconds-based
rows are skipped entirely and only the portable ratio policies gate;
the dashboard says so rather than silently comparing apples to
oranges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.obs.perfrec import PARALLEL_PHASE, PHASE_NAMES, PerfHistory, PerfRecord

IMPROVED = "improved"
UNCHANGED = "unchanged"
REGRESSED = "regressed"


@dataclass(frozen=True)
class PerfPolicy:
    """How one perf metric is extracted, compared, and gated.

    ``reference`` selects a ratio metric (``phase`` seconds divided by
    ``reference`` seconds); ``reference=None`` compares raw phase
    seconds.  All metrics are lower-is-better; a change only registers
    beyond ``base * rel_tol + abs_tol``.  ``portable`` marks metrics
    that remain comparable across machine shapes (the ratios).
    """

    metric: str
    phase: str
    reference: Optional[str] = None
    rel_tol: float = 0.25
    abs_tol: float = 0.05
    gate: bool = True
    portable: bool = True

    def value(self, record: PerfRecord) -> Optional[float]:
        if self.reference is None:
            return record.phase_seconds(self.phase)
        return record.ratio(self.phase, self.reference)

    def classify(self, base: float, current: float) -> str:
        tol = abs(base) * self.rel_tol + self.abs_tol
        delta = current - base
        if delta > tol:
            return REGRESSED
        if delta < -tol:
            return IMPROVED
        return UNCHANGED


# The gating rows are exactly the regressions the ROADMAP cares about:
# a cache that stops paying for itself (warm ratios) and a parallel
# phase that falls further behind serial.  Raw seconds ride along for
# the dashboard but never gate — they are host property, not code
# property.
DEFAULT_PERF_POLICIES: Tuple[PerfPolicy, ...] = (
    PerfPolicy("warm_vs_cold", "warm_cache", "cold_cache"),
    PerfPolicy("warm_vs_serial", "warm_cache", "serial_uncached"),
    PerfPolicy("cold_vs_serial", "cold_cache", "serial_uncached"),
    PerfPolicy("parallel_vs_serial", PARALLEL_PHASE, "serial_uncached"),
) + tuple(
    PerfPolicy(
        "%s_seconds" % name,
        name,
        rel_tol=0.50,
        abs_tol=0.25,
        gate=False,
        portable=False,
    )
    for name in PHASE_NAMES
)


@dataclass
class PerfCellDiff:
    """One metric comparison between two perf records."""

    metric: str
    baseline: float
    current: float
    status: str
    gated: bool

    @property
    def delta(self) -> float:
        return self.current - self.baseline

    def describe(self) -> str:
        return "%s: %s %.4g -> %.4g (%+.4g)" % (
            self.metric,
            self.status,
            self.baseline,
            self.current,
            self.delta,
        )


@dataclass
class PerfDiff:
    """Every classified metric plus the context the dashboard needs."""

    cells: List[PerfCellDiff]
    baseline_summary: str = ""
    current_summary: str = ""
    env_matched: bool = True
    notes: List[str] = field(default_factory=list)

    @property
    def regressions(self) -> List[PerfCellDiff]:
        return [c for c in self.cells if c.status == REGRESSED]

    @property
    def improvements(self) -> List[PerfCellDiff]:
        return [c for c in self.cells if c.status == IMPROVED]

    @property
    def gate_failures(self) -> List[PerfCellDiff]:
        return [c for c in self.cells if c.status == REGRESSED and c.gated]

    def passes_gate(self) -> bool:
        return not self.gate_failures

    def to_markdown(
        self,
        history: Optional[PerfHistory] = None,
        current: Optional[PerfRecord] = None,
    ) -> str:
        """The perf dashboard: verdict, per-metric table, trend, attribution."""
        lines = ["# Perf diff"]
        lines.append("")
        lines.append("- baseline: %s" % (self.baseline_summary or "?"))
        lines.append("- current:  %s" % (self.current_summary or "?"))
        for note in self.notes:
            lines.append("- note: %s" % note)
        n_reg = len(self.regressions)
        n_imp = len(self.improvements)
        lines.append("")
        lines.append(
            "**%d regressed / %d improved / %d unchanged** across %d metric "
            "comparisons.  Gate: **%s**."
            % (
                n_reg,
                n_imp,
                len(self.cells) - n_reg - n_imp,
                len(self.cells),
                "PASS" if self.passes_gate() else "FAIL",
            )
        )
        lines.append("")
        lines.append("| metric | baseline | current | delta | status | gates |")
        lines.append("|---|---|---|---|---|---|")
        for cell in self.cells:
            lines.append(
                "| %s | %.4g | %.4g | %+.4g | %s | %s |"
                % (
                    cell.metric,
                    cell.baseline,
                    cell.current,
                    cell.delta,
                    cell.status,
                    "yes" if cell.gated else "no",
                )
            )
        if current is not None:
            attribution = parallel_attribution(current)
            if attribution:
                lines.append("")
                lines.append("## Parallel phase attribution")
                lines.append("")
                lines.extend("- %s" % line for line in attribution)
        if history is not None and history.records:
            lines.append("")
            lines.append(render_trend(history))
        lines.append("")
        return "\n".join(lines)


def _extra_phase_policies(
    baseline: PerfRecord,
    current: PerfRecord,
    known: Sequence[PerfPolicy],
) -> Tuple[PerfPolicy, ...]:
    """Non-gating seconds rows for phase names the static policies miss.

    The bench-perf harness grows phase names over time (the jobs x
    pool-reuse matrix legs, for instance); records in a committed
    ``perf_history.json`` predate them.  New names get
    informational seconds rows when both records carry them, and are
    simply skipped — never treated as regressions — when one side lacks
    them, so extending the harness never invalidates existing history.
    """
    covered = {policy.phase for policy in known}
    shared = set(baseline.phases) & set(current.phases)
    return tuple(
        PerfPolicy(
            "%s_seconds" % name,
            name,
            rel_tol=0.50,
            abs_tol=0.25,
            gate=False,
            portable=False,
        )
        for name in sorted(shared - covered)
    )


def diff_perf_records(
    baseline: PerfRecord,
    current: PerfRecord,
    policies: Sequence[PerfPolicy] = DEFAULT_PERF_POLICIES,
) -> PerfDiff:
    """Classify every shared metric of two perf records under the policies.

    Phases only one record knows (older or newer harness versions) are
    skipped; phases both records carry but no static policy covers get
    non-gating seconds rows via :func:`_extra_phase_policies`.
    """
    policies = tuple(policies) + _extra_phase_policies(
        baseline, current, policies
    )
    env_matched = baseline.environment_key() == current.environment_key()
    diff = PerfDiff(
        cells=[],
        baseline_summary=baseline.describe(),
        current_summary=current.describe(),
        env_matched=env_matched,
    )
    if not env_matched:
        diff.notes.append(
            "environments differ (baseline cpus %s/%s, current cpus %s/%s): "
            "raw seconds are not comparable; only phase ratios are shown "
            "and gated"
            % (
                baseline.environment.get("cpu_affinity", "?"),
                baseline.environment.get("cpu_count", "?"),
                current.environment.get("cpu_affinity", "?"),
                current.environment.get("cpu_count", "?"),
            )
        )
    for policy in policies:
        if not env_matched and not policy.portable:
            continue
        base_value = policy.value(baseline)
        cur_value = policy.value(current)
        if base_value is None or cur_value is None:
            continue
        diff.cells.append(
            PerfCellDiff(
                metric=policy.metric,
                baseline=base_value,
                current=cur_value,
                status=policy.classify(base_value, cur_value),
                gated=policy.gate,
            )
        )
    return diff


def parallel_attribution(record: PerfRecord) -> List[str]:
    """Explain the parallel phase's speedup from its worker telemetry.

    Returns human-readable lines attributing worker time into the
    compute / queue-wait / serialization buckets and naming the
    dominant reason the measured speedup is what it is — the
    data-driven answer to "why is jobs=2 at 0.96x".
    """
    phase = record.phases.get(PARALLEL_PHASE)
    if not phase:
        return []
    seconds = record.phase_seconds(PARALLEL_PHASE)
    serial = record.phase_seconds("serial_uncached")
    jobs = int(phase.get("jobs", 0) or 0)
    speedup = record.ratio("serial_uncached", PARALLEL_PHASE)  # serial/parallel
    lines: List[str] = []
    if seconds is not None and serial is not None and speedup is not None:
        lines.append(
            "parallel wall %.3fs at jobs=%d vs %.3fs serial: %.2fx"
            % (seconds, jobs, serial, speedup)
        )
    workers = phase.get("workers")
    if not isinstance(workers, dict):
        return lines
    compute = float(workers.get("compute_seconds", 0.0) or 0.0)
    queue_wait = float(workers.get("queue_wait_seconds", 0.0) or 0.0)
    pickle_bytes = int(workers.get("pickle_bytes", 0) or 0)
    tasks = int(workers.get("tasks", 0) or 0)
    lines.append(
        "worker buckets over %d tasks: %.3fs compute, %.3fs queue wait, "
        "%d bytes of pickled payloads" % (tasks, compute, queue_wait, pickle_bytes)
    )
    cores = record.environment.get("cpu_affinity")
    if cores is None:
        cores = record.environment.get("cpu_count")
    if isinstance(cores, int) and jobs > cores:
        lines.append(
            "verdict: jobs=%d exceeds the %d schedulable core(s) — workers "
            "time-slice the same core, so fan-out adds queue wait and "
            "scheduling overhead without adding compute bandwidth; "
            "parallel <= 1.0x is the expected outcome on this host"
            % (jobs, cores)
        )
    elif compute > 0 and queue_wait > 0.5 * compute:
        lines.append(
            "verdict: queue wait is %.0f%% of compute — workers are starved "
            "waiting for tasks; raise chunk sizes" % (100.0 * queue_wait / compute)
        )
    elif pickle_bytes > 0 and seconds is not None and serial is not None:
        lines.append(
            "verdict: %d bytes pickled across %d tasks — serialization is "
            "the overhead to amortize (fork-once or shared-memory workers)"
            % (pickle_bytes, tasks)
        )
    else:
        lines.append(
            "verdict: compute-bound; speedup is bounded by per-tree work "
            "imbalance across workers"
        )
    return lines


def render_trend(history: PerfHistory, limit: int = 10) -> str:
    """The recent trajectory as a markdown table (newest last)."""
    lines = ["## Perf trend (last %d records)" % min(limit, len(history.records))]
    lines.append("")
    lines.append(
        "| created_at | sha | cpus | quick | serial s | cold x | warm x "
        "| parallel x |"
    )
    lines.append("|---|---|---|---|---|---|---|---|")
    for record in history.records[-limit:]:

        def speed(name: str, rec: PerfRecord = record) -> str:
            ratio = rec.ratio(name)
            return "%.2f" % (1.0 / ratio) if ratio else "-"

        serial = record.phase_seconds("serial_uncached")
        lines.append(
            "| %s | %s | %s/%s | %s | %s | %s | %s | %s |"
            % (
                record.created_at or "?",
                str(record.environment.get("git_sha", "?"))[:12],
                record.environment.get("cpu_affinity", "?"),
                record.environment.get("cpu_count", "?"),
                "yes" if record.quick else "no",
                "%.2f" % serial if serial is not None else "-",
                speed("cold_cache"),
                speed("warm_cache"),
                speed(PARALLEL_PHASE),
            )
        )
    return "\n".join(lines)

"""Persistent perf records: the durable half of the perf observatory.

The QoR observatory keeps versioned run records, a committed baseline,
and a diff gate; until this module, the perf trajectory had none of
that — ``BENCH_perf.json`` was a one-shot snapshot.  A
:class:`PerfRecord` freezes one ``bench-perf`` trajectory (the phase
wall clocks, cache and worker telemetry, config) together with
the environment block that determines whether two measurements are
comparable at all: git sha, python, platform, ``os.cpu_count()``, and
the *effective* CPU affinity — on a containerized runner the two core
counts routinely differ, and a jobs=2 measurement taken on one
schedulable core measures overhead, not scaling.

Records accumulate in an append-only :class:`PerfHistory` file
(``benchmarks/baselines/perf_history.json`` is the committed one), so
the trajectory across commits is diffable and trendable:
:mod:`repro.obs.perfdiff` classifies a fresh record against the
history's best-matching baseline and renders the markdown dashboard
behind ``chortle perf record|diff|gate``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.errors import PerfError
from repro.obs.qor import collect_environment

SCHEMA_VERSION = 1

#: The matrix leg that stands for parallel mapping in diffs and trends:
#: two worker processes on the warm fork-once pool.
PARALLEL_PHASE = "parallel_proc_j2_reuse"

#: The bench-perf phases every record carries, in trajectory order.
PHASE_NAMES: Tuple[str, ...] = (
    "serial_uncached",
    "cold_cache",
    "warm_cache",
    PARALLEL_PHASE,
)


def effective_affinity() -> Optional[int]:
    """Cores this process may actually run on (None where unsupported)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return None  # pragma: no cover - macOS/Windows


def collect_perf_environment(cwd: Optional[str] = None) -> Dict[str, object]:
    """The QoR environment block plus the CPU topology perf depends on."""
    env: Dict[str, object] = dict(collect_environment(cwd))
    env["cpu_count"] = os.cpu_count()
    env["cpu_affinity"] = effective_affinity()
    return env


@dataclass
class PerfRecord:
    """One measured perf trajectory plus the context to compare it later.

    ``phases`` maps each :data:`PHASE_NAMES` entry to the phase dict the
    bench-perf harness produced (``seconds``, ``speedup_vs_serial``,
    ``jobs``, ``cache``, ``workers``).  ``created_at`` is caller-supplied
    (ISO-8601 by convention) so records stay reproducible.
    """

    created_at: str
    environment: Dict[str, object]
    config: Dict[str, object]
    phases: Dict[str, Dict[str, object]]
    label: str = ""
    quick: bool = False
    schema_version: int = SCHEMA_VERSION

    # -- derived metrics -----------------------------------------------------

    def phase_seconds(self, name: str) -> Optional[float]:
        phase = self.phases.get(name)
        if phase is None:
            return None
        seconds = phase.get("seconds")
        return float(seconds) if isinstance(seconds, (int, float)) else None

    def ratio(self, phase: str, reference: str = "serial_uncached") -> Optional[float]:
        """``phase`` wall seconds as a fraction of ``reference``'s.

        Ratios survive machine changes far better than raw seconds —
        warm/serial is a property of the cache, not the host — so the
        diff engine gates on them.  Lower is better.
        """
        num = self.phase_seconds(phase)
        den = self.phase_seconds(reference)
        if num is None or den is None or den <= 0:
            return None
        return num / den

    def environment_key(self) -> Tuple[object, ...]:
        """The machine-shape key two comparable records must share."""
        return (
            self.environment.get("cpu_count"),
            self.environment.get("cpu_affinity"),
        )

    def describe(self) -> str:
        sha = str(self.environment.get("git_sha", "unknown"))
        label = self.label or "(unlabeled)"
        return "%s @ %s (%s, cpus=%s/%s%s)" % (
            label,
            self.created_at or "?",
            sha[:12],
            self.environment.get("cpu_affinity", "?"),
            self.environment.get("cpu_count", "?"),
            ", quick" if self.quick else "",
        )

    # -- construction / serialization ---------------------------------------

    @classmethod
    def from_bench(cls, payload: Mapping, label: str = "") -> "PerfRecord":
        """Freeze one ``run_bench_perf`` payload into a record."""
        phases = payload.get("phases")
        if not isinstance(phases, Mapping):
            raise PerfError("bench-perf payload has no 'phases' block")
        return cls(
            created_at=str(payload.get("created_at", "")),
            environment=dict(payload.get("environment") or {}),
            config=dict(payload.get("config") or {}),
            phases={str(k): dict(v) for k, v in phases.items()},
            label=label,
            quick=bool(payload.get("quick", False)),
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "label": self.label,
            "quick": self.quick,
            "environment": dict(self.environment),
            "config": dict(self.config),
            "phases": {name: dict(p) for name, p in self.phases.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PerfRecord":
        if not isinstance(data, Mapping):
            raise PerfError(
                "perf record must be a JSON object, got %s" % type(data).__name__
            )
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise PerfError(
                "unsupported perf-record schema version %r (this build reads "
                "version %d)" % (version, SCHEMA_VERSION)
            )
        phases = data.get("phases")
        if not isinstance(phases, Mapping):
            raise PerfError("perf record has no 'phases' object")
        return cls(
            created_at=str(data.get("created_at", "")),
            environment=dict(data.get("environment") or {}),
            config=dict(data.get("config") or {}),
            phases={str(k): dict(v) for k, v in phases.items()},
            label=str(data.get("label", "")),
            quick=bool(data.get("quick", False)),
        )

    def save(self, path: str) -> None:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise PerfError(
                "cannot write perf record %r: %s" % (path, exc)
            ) from exc

    @classmethod
    def load(cls, path: str) -> "PerfRecord":
        """Load a record file — a saved record *or* a raw bench payload.

        ``BENCH_perf.json``-shaped payloads (keyed ``schema`` rather
        than ``schema_version``) are accepted and converted, so every
        perf artifact the repo produces is a valid diff input.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError as exc:
            raise PerfError(
                "cannot read perf record %r: %s" % (path, exc)
            ) from exc
        except ValueError as exc:
            raise PerfError(
                "perf record %r is not valid JSON: %s" % (path, exc)
            ) from None
        if isinstance(data, Mapping) and "schema_version" not in data:
            return cls.from_bench(data)
        return cls.from_dict(data)


@dataclass
class PerfHistory:
    """An append-only sequence of perf records (oldest first)."""

    records: List[PerfRecord] = field(default_factory=list)

    def append(self, record: PerfRecord) -> None:
        self.records.append(record)

    def latest(
        self, environment_key: Optional[Tuple[object, ...]] = None
    ) -> Optional[PerfRecord]:
        """The newest record, optionally restricted to a machine shape."""
        for record in reversed(self.records):
            if (
                environment_key is None
                or record.environment_key() == environment_key
            ):
                return record
        return None

    def baseline_for(self, current: PerfRecord) -> Tuple[Optional[PerfRecord], bool]:
        """The baseline to diff ``current`` against: ``(record, env_matched)``.

        Prefers the newest record measured on the same machine shape
        (cpu count + affinity); falls back to the newest record overall
        — the caller is told via the flag, and the diff engine then
        gates only on machine-portable ratio metrics.
        """
        matched = self.latest(current.environment_key())
        if matched is not None:
            return matched, True
        return self.latest(), False

    def to_dict(self) -> Dict[str, object]:
        return {
            "schema_version": SCHEMA_VERSION,
            "records": [record.to_dict() for record in self.records],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "PerfHistory":
        if not isinstance(data, Mapping):
            raise PerfError(
                "perf history must be a JSON object, got %s"
                % type(data).__name__
            )
        version = data.get("schema_version")
        if version != SCHEMA_VERSION:
            raise PerfError(
                "unsupported perf-history schema version %r (this build "
                "reads version %d)" % (version, SCHEMA_VERSION)
            )
        raw = data.get("records")
        if not isinstance(raw, list):
            raise PerfError("perf history has no 'records' list")
        return cls(records=[PerfRecord.from_dict(entry) for entry in raw])

    def save(self, path: str) -> None:
        try:
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(self.to_dict(), handle, indent=1, sort_keys=True)
                handle.write("\n")
        except OSError as exc:
            raise PerfError(
                "cannot write perf history %r: %s" % (path, exc)
            ) from exc

    @classmethod
    def load(cls, path: str) -> "PerfHistory":
        """Load a history file; a missing file is an empty history."""
        try:
            with open(path, encoding="utf-8") as handle:
                data = json.load(handle)
        except FileNotFoundError:
            return cls()
        except OSError as exc:
            raise PerfError(
                "cannot read perf history %r: %s" % (path, exc)
            ) from exc
        except ValueError as exc:
            raise PerfError(
                "perf history %r is not valid JSON: %s" % (path, exc)
            ) from None
        return cls.from_dict(data)


#: Where ``chortle perf record|diff|gate`` look by default.
DEFAULT_HISTORY_PATH = "benchmarks/baselines/perf_history.json"

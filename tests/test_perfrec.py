"""Tests for the perf observatory (repro.obs.perfrec / perfdiff)."""

import json

import pytest

from repro.errors import PerfError
from repro.obs.perfdiff import (
    DEFAULT_PERF_POLICIES,
    IMPROVED,
    REGRESSED,
    UNCHANGED,
    PerfPolicy,
    diff_perf_records,
    parallel_attribution,
    render_trend,
)
from repro.obs.perfrec import (
    PARALLEL_PHASE,
    PHASE_NAMES,
    PerfHistory,
    PerfRecord,
    collect_perf_environment,
    effective_affinity,
)


def make_record(
    serial=1.0,
    cold=1.05,
    warm=0.2,
    parallel=0.96,
    cpu_count=1,
    cpu_affinity=1,
    created_at="2026-08-08T00:00:00Z",
    jobs=2,
    workers=None,
):
    phases = {
        "serial_uncached": {"seconds": serial, "jobs": 1},
        "cold_cache": {"seconds": cold, "jobs": 1},
        "warm_cache": {"seconds": warm, "jobs": 1},
        PARALLEL_PHASE: {"seconds": parallel, "jobs": jobs},
    }
    if workers is not None:
        phases[PARALLEL_PHASE]["workers"] = workers
    return PerfRecord(
        created_at=created_at,
        environment={
            "git_sha": "abc123",
            "cpu_count": cpu_count,
            "cpu_affinity": cpu_affinity,
        },
        config={"jobs": jobs},
        phases=phases,
    )


class TestEnvironment:
    def test_collects_both_core_counts(self):
        env = collect_perf_environment()
        assert "cpu_count" in env and "cpu_affinity" in env
        assert env["cpu_count"] is None or env["cpu_count"] >= 1
        # The QoR environment fields ride along.
        assert "python" in env and "git_sha" in env

    def test_affinity_at_most_cpu_count(self):
        import os

        affinity = effective_affinity()
        if affinity is not None and os.cpu_count():
            assert 1 <= affinity <= os.cpu_count()


class TestPerfRecord:
    def test_ratios(self):
        record = make_record(serial=2.0, warm=0.5)
        assert record.ratio("warm_cache") == pytest.approx(0.25)
        assert record.ratio("warm_cache", "cold_cache") == pytest.approx(
            0.5 / 1.05
        )
        assert record.ratio("missing") is None
        assert record.phase_seconds("serial_uncached") == 2.0

    def test_environment_key(self):
        assert make_record().environment_key() == (1, 1)
        assert make_record(cpu_count=8).environment_key() == (8, 1)

    def test_round_trip(self, tmp_path):
        record = make_record()
        path = tmp_path / "rec.json"
        record.save(str(path))
        loaded = PerfRecord.load(str(path))
        assert loaded.phases == record.phases
        assert loaded.environment == record.environment

    def test_from_bench_payload(self):
        payload = {
            "created_at": "2026-08-08T00:00:00Z",
            "quick": True,
            "environment": {"cpu_count": 1, "cpu_affinity": 1},
            "config": {"jobs": 2},
            "phases": {name: {"seconds": 1.0} for name in PHASE_NAMES},
        }
        record = PerfRecord.from_bench(payload, label="ci")
        assert record.quick is True
        assert record.label == "ci"
        assert record.ratio("warm_cache") == 1.0

    def test_load_accepts_raw_bench_payload(self, tmp_path):
        # BENCH_perf.json is keyed "schema", not "schema_version".
        payload = {
            "schema": 1,
            "created_at": "x",
            "environment": {},
            "config": {},
            "phases": {"serial_uncached": {"seconds": 1.0}},
        }
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(payload))
        record = PerfRecord.load(str(path))
        assert record.phase_seconds("serial_uncached") == 1.0

    def test_bad_schema_version_rejected(self):
        with pytest.raises(PerfError, match="schema version"):
            PerfRecord.from_dict({"schema_version": 99, "phases": {}})

    def test_payload_without_phases_rejected(self):
        with pytest.raises(PerfError, match="phases"):
            PerfRecord.from_bench({"created_at": "x"})

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{nope")
        with pytest.raises(PerfError, match="JSON"):
            PerfRecord.load(str(path))


class TestPerfHistory:
    def test_append_and_round_trip(self, tmp_path):
        history = PerfHistory()
        history.append(make_record(created_at="t1"))
        history.append(make_record(created_at="t2"))
        path = tmp_path / "hist.json"
        history.save(str(path))
        loaded = PerfHistory.load(str(path))
        assert [r.created_at for r in loaded.records] == ["t1", "t2"]

    def test_missing_file_is_empty_history(self, tmp_path):
        history = PerfHistory.load(str(tmp_path / "none.json"))
        assert history.records == []
        assert history.latest() is None

    def test_latest_prefers_environment_match(self):
        history = PerfHistory()
        history.append(make_record(created_at="small", cpu_count=1))
        history.append(make_record(created_at="big", cpu_count=8))
        assert history.latest((1, 1)).created_at == "small"
        assert history.latest().created_at == "big"

    def test_baseline_for_falls_back_across_shapes(self):
        history = PerfHistory()
        history.append(make_record(created_at="other", cpu_count=8))
        current = make_record(cpu_count=1)
        baseline, matched = history.baseline_for(current)
        assert baseline.created_at == "other"
        assert matched is False

    def test_baseline_for_same_shape(self):
        history = PerfHistory()
        history.append(make_record(created_at="old"))
        history.append(make_record(created_at="new"))
        baseline, matched = history.baseline_for(make_record())
        assert baseline.created_at == "new"
        assert matched is True

    def test_corrupt_history_rejected(self, tmp_path):
        path = tmp_path / "hist.json"
        path.write_text("[]")
        with pytest.raises(PerfError):
            PerfHistory.load(str(path))


class TestPerfPolicy:
    def test_classify_band(self):
        policy = PerfPolicy("m", "warm_cache", rel_tol=0.10, abs_tol=0.01)
        assert policy.classify(1.0, 1.05) == UNCHANGED
        assert policy.classify(1.0, 1.2) == REGRESSED
        assert policy.classify(1.0, 0.8) == IMPROVED

    def test_default_policies_gate_only_ratios(self):
        for policy in DEFAULT_PERF_POLICIES:
            if policy.gate:
                assert policy.reference is not None
                assert policy.portable is True
            if policy.reference is None:
                assert policy.gate is False


class TestPerfDiff:
    def test_unchanged_tree_passes(self):
        diff = diff_perf_records(make_record(), make_record())
        assert diff.passes_gate()
        assert not diff.regressions

    def test_synthetic_warm_slowdown_fails_gate(self):
        # The regression mode a broken cache exhibits first: warm runs
        # as slow as cold.  Must trip the warm ratio policies.
        bad = make_record(warm=1.1)
        diff = diff_perf_records(make_record(), bad)
        assert not diff.passes_gate()
        regressed = {c.metric for c in diff.gate_failures}
        assert "warm_vs_cold" in regressed
        assert "warm_vs_serial" in regressed

    def test_parallel_regression_fails_gate(self):
        bad = make_record(parallel=2.5)
        diff = diff_perf_records(make_record(), bad)
        assert any(
            c.metric == "parallel_vs_serial" for c in diff.gate_failures
        )

    def test_improvement_is_not_a_failure(self):
        better = make_record(warm=0.05)
        diff = diff_perf_records(make_record(), better)
        assert diff.passes_gate()
        assert any(c.status == IMPROVED for c in diff.cells)

    def test_env_mismatch_skips_seconds_and_notes(self):
        other = make_record(cpu_count=8, cpu_affinity=8)
        diff = diff_perf_records(make_record(), other)
        assert diff.env_matched is False
        assert diff.notes
        metrics = {c.metric for c in diff.cells}
        assert "serial_uncached_seconds" not in metrics
        assert "warm_vs_serial" in metrics

    def test_markdown_dashboard(self):
        workers = {
            "jobs": 2,
            "tasks": 60,
            "compute_seconds": 0.3,
            "queue_wait_seconds": 1.4,
            "pickle_bytes": 0,
        }
        history = PerfHistory()
        history.append(make_record())
        current = make_record(workers=workers)
        diff = diff_perf_records(history.records[0], current)
        text = diff.to_markdown(history, current)
        assert "# Perf diff" in text
        assert "warm_vs_cold" in text
        assert "Parallel phase attribution" in text
        assert "Perf trend" in text
        assert "PASS" in text


class TestParallelAttribution:
    def test_buckets_and_time_slice_verdict(self):
        workers = {
            "jobs": 2,
            "tasks": 60,
            "compute_seconds": 0.3,
            "queue_wait_seconds": 1.4,
            "pickle_bytes": 0,
        }
        lines = parallel_attribution(make_record(workers=workers))
        text = "\n".join(lines)
        # The three attribution buckets the acceptance criteria name.
        assert "compute" in text
        assert "queue wait" in text
        assert "pickled payloads" in text
        # On a 1-core host with jobs=2 the verdict is time-slicing.
        assert "time-slice" in text

    def test_starvation_verdict_when_cores_suffice(self):
        workers = {
            "jobs": 2,
            "tasks": 60,
            "compute_seconds": 0.3,
            "queue_wait_seconds": 1.4,
            "pickle_bytes": 0,
        }
        record = make_record(
            workers=workers, cpu_count=8, cpu_affinity=8
        )
        lines = parallel_attribution(record)
        assert any("starved" in line for line in lines)

    def test_serialization_verdict(self):
        workers = {
            "jobs": 2,
            "tasks": 4,
            "compute_seconds": 1.0,
            "queue_wait_seconds": 0.1,
            "pickle_bytes": 123456,
        }
        record = make_record(
            workers=workers, cpu_count=8, cpu_affinity=8
        )
        lines = parallel_attribution(record)
        assert any("serialization" in line for line in lines)

    def test_no_parallel_phase(self):
        record = make_record()
        del record.phases[PARALLEL_PHASE]
        assert parallel_attribution(record) == []


class TestTrend:
    def test_trend_table(self):
        history = PerfHistory()
        for stamp in ("t1", "t2", "t3"):
            history.append(make_record(created_at=stamp))
        text = render_trend(history, limit=2)
        assert "t3" in text and "t2" in text
        assert "t1" not in text
        assert "| created_at |" in text

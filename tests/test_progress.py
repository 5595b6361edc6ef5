"""Tests for progress streaming (repro.obs.progress)."""

import io
import json

import pytest

from repro.obs import metrics
from repro.obs.progress import (
    FINISHED,
    STARTED,
    ProgressEmitter,
    resolve_progress,
)


class TestProgressEmitter:
    def test_event_sequence_and_counts(self):
        events = []
        emitter = ProgressEmitter(total=2, callback=events.append)
        emitter.cell_started("a", 4, "chortle")
        emitter.cell_finished("a", 4, "chortle", seconds=1.0)
        emitter.cell_started("b", 4, "chortle")
        emitter.cell_finished("b", 4, "chortle", seconds=3.0)
        assert [e.kind for e in events] == [
            STARTED, FINISHED, STARTED, FINISHED,
        ]
        assert [e.finished for e in events] == [0, 1, 1, 2]
        assert emitter.finished == 2
        assert emitter.events == 4

    def test_eta_is_mean_times_remaining(self):
        events = []
        emitter = ProgressEmitter(total=4, callback=events.append)
        emitter.cell_finished("a", 4, "chortle", seconds=2.0)
        emitter.cell_finished("b", 4, "chortle", seconds=4.0)
        # Mean 3.0s/cell, 2 cells outstanding.
        assert events[-1].eta_seconds == pytest.approx(6.0)
        emitter.cell_finished("c", 4, "chortle", seconds=3.0)
        emitter.cell_finished("d", 4, "chortle", seconds=3.0)
        assert events[-1].eta_seconds == 0.0

    def test_no_eta_without_total(self):
        events = []
        emitter = ProgressEmitter(total=0, callback=events.append)
        emitter.cell_finished("a", 4, "chortle", seconds=1.0)
        assert events[0].eta_seconds is None

    def test_stream_renders_lines(self):
        stream = io.StringIO()
        emitter = ProgressEmitter(total=1, stream=stream)
        emitter.cell_started("9symml", 4, "chortle")
        emitter.cell_finished("9symml", 4, "chortle", seconds=0.5)
        lines = stream.getvalue().splitlines()
        assert lines[0].startswith("[progress] 0/1 9symml K=4 chortle")
        assert "done in 0.50s" in lines[1]

    def test_phase_appears_in_line(self):
        stream = io.StringIO()
        emitter = ProgressEmitter(total=1, stream=stream)
        emitter.cell_finished(
            "a", 3, "chortle", seconds=0.1, phase="warm_cache"
        )
        assert "(warm_cache)" in stream.getvalue()

    def test_json_stream(self):
        stream = io.StringIO()
        emitter = ProgressEmitter(total=1, json_stream=stream)
        emitter.cell_finished("a", 4, "chortle", seconds=0.25)
        event = json.loads(stream.getvalue())
        assert event["kind"] == FINISHED
        assert event["circuit"] == "a"
        assert event["seconds"] == 0.25

    def test_metrics_counters(self):
        before = metrics.counters()
        emitter = ProgressEmitter(total=1)
        emitter.cell_started("a", 4, "chortle")
        emitter.cell_finished("a", 4, "chortle", seconds=0.1)
        delta = metrics.counter_delta(before)
        assert delta["progress.cells_started"] == 1
        assert delta["progress.cells_finished"] == 1

    def test_thread_safe_finishes(self):
        from concurrent.futures import ThreadPoolExecutor

        emitter = ProgressEmitter(total=64)
        with ThreadPoolExecutor(max_workers=8) as pool:
            list(
                pool.map(
                    lambda i: emitter.cell_finished(
                        "c%d" % i, 4, "chortle", seconds=0.01
                    ),
                    range(64),
                )
            )
        assert emitter.finished == 64
        assert emitter.events == 64


class TestResolveProgress:
    def test_none_and_false(self):
        assert resolve_progress(None, total=4) is None
        assert resolve_progress(False, total=4) is None

    def test_true_builds_stderr_emitter(self):
        emitter = resolve_progress(True, total=7)
        assert isinstance(emitter, ProgressEmitter)
        assert emitter.total == 7

    def test_explicit_emitter_passthrough(self):
        mine = ProgressEmitter(total=3)
        assert resolve_progress(mine, total=9) is mine
        assert mine.total == 3  # explicit total wins

    def test_zero_total_filled_in(self):
        mine = ProgressEmitter(total=0)
        resolve_progress(mine, total=5)
        assert mine.total == 5

    def test_bad_type_rejected(self):
        with pytest.raises(TypeError):
            resolve_progress("yes", total=1)


class TestSuiteIntegration:
    def test_run_suite_serial_emits_pairs(self):
        from repro.bench.runner import run_suite

        events = []
        emitter = ProgressEmitter(total=0, callback=events.append)
        result = run_suite(
            circuits=["9symml", "count"],
            mappers=("chortle",),
            ks=(3,),
            progress=emitter,
        )
        assert len(result.reports) == 2
        assert emitter.total == 2  # runner filled in the count
        kinds = [e.kind for e in events]
        assert kinds == [STARTED, FINISHED, STARTED, FINISHED]
        assert {e.circuit for e in events} == {"9symml", "count"}
        assert all(
            e.seconds > 0 for e in events if e.kind == FINISHED
        )

    def test_bench_perf_emits_across_phases(self):
        from repro.perf.benchperf import run_bench_perf

        events = []
        emitter = ProgressEmitter(total=0, callback=events.append)
        payload = run_bench_perf(
            circuits=["9symml"],
            ks=(3,),
            jobs=2,
            created_at="t",
            progress=emitter,
            matrix=False,
        )
        assert payload["qor_identical"] is True
        # One started+finished pair per cell per phase.
        assert emitter.total == 3
        phases = {e.phase for e in events}
        assert phases == {"serial_uncached", "cold_cache", "warm_cache"}
        assert emitter.finished == 3

"""Tests for the observability subsystem (repro.obs)."""

import io
import json
import sys

import pytest

from repro.bench.mcnc import mcnc_circuit
from repro.core.chortle import ChortleMapper
from repro.obs import (
    JsonLinesSink,
    MemorySink,
    MetricsRegistry,
    StderrSink,
    Tracer,
    capture,
    get_tracer,
    metrics,
    render_span_tree,
    span,
)
from repro.obs.tracer import _NULL_SPAN
from repro.pipeline import map_area


@pytest.fixture(autouse=True)
def _clean_tracer():
    """Tests must not leave sinks on the process-wide tracer."""
    tracer = get_tracer()
    before = tracer._sinks
    yield
    assert tracer._sinks == before, "test leaked a tracer sink"


class TestSpans:
    def test_nesting_and_attributes(self):
        tracer = Tracer()
        sink = tracer.add_sink(MemorySink())
        with tracer.span("outer", k=4) as outer:
            with tracer.span("inner", tree="t0") as inner:
                inner.set("luts", 3)
        assert [r.name for r in sink.records] == ["inner", "outer"]
        rec_inner, rec_outer = sink.records
        assert rec_inner.parent_id == rec_outer.span_id
        assert rec_inner.depth == 1
        assert rec_outer.parent_id is None
        assert rec_outer.depth == 0
        assert rec_outer.attrs == {"k": 4}
        assert rec_inner.attrs == {"tree": "t0", "luts": 3}
        assert rec_outer.duration >= rec_inner.duration >= 0.0

    def test_sequential_siblings_share_parent(self):
        tracer = Tracer()
        sink = tracer.add_sink(MemorySink())
        with tracer.span("root") as root:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        a, b = sink.by_name("a")[0], sink.by_name("b")[0]
        assert a.parent_id == b.parent_id == root.span_id
        assert a.start <= b.start

    def test_adopt_renumbers_and_attaches_under_open_span(self):
        worker = Tracer()
        shipped = worker.add_sink(MemorySink())
        with worker.span("w.root", worker=1):
            with worker.span("w.leaf"):
                pass
        parent = Tracer()
        sink = parent.add_sink(MemorySink())
        with parent.span("top"):
            with parent.span("submit") as submit:
                parent.adopt(shipped.records)
        leaf, root = sink.by_name("w.leaf")[0], sink.by_name("w.root")[0]
        assert root.parent_id == submit.span_id and root.depth == 2
        assert leaf.parent_id == root.span_id and leaf.depth == 3
        assert root.attrs == {"worker": 1}
        ids = [r.span_id for r in sink.records]
        assert len(ids) == len(set(ids)) == 4

    def test_reset_drops_sinks_and_open_spans(self):
        tracer = Tracer()
        tracer.add_sink(MemorySink())
        tracer.span("left.open").__enter__()  # never finished
        tracer.reset()
        assert not tracer.enabled
        sink = tracer.add_sink(MemorySink())
        with tracer.span("fresh"):
            pass
        assert sink.records[0].parent_id is None
        assert sink.records[0].depth == 0

    def test_null_span_when_no_sink(self):
        tracer = Tracer()
        sp = tracer.span("anything", k=4)
        assert sp is _NULL_SPAN
        # The null span is a reusable, attribute-silent context manager.
        with sp as inner:
            inner.set("ignored", 1)
        assert tracer.span("again") is _NULL_SPAN

    def test_global_span_null_path(self):
        assert span("x") is _NULL_SPAN

    def test_capture_attaches_and_detaches(self):
        tracer = get_tracer()
        assert not tracer.enabled
        with capture() as sink:
            assert tracer.enabled
            with span("captured"):
                pass
        assert not tracer.enabled
        assert [r.name for r in sink.records] == ["captured"]

    def test_exception_still_records_span(self):
        tracer = Tracer()
        sink = tracer.add_sink(MemorySink())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("x")
        assert [r.name for r in sink.records] == ["boom"]
        assert not tracer._stack

    def test_memory_sink_helpers(self):
        tracer = Tracer()
        sink = tracer.add_sink(MemorySink())
        with tracer.span("root"):
            with tracer.span("leaf"):
                pass
            with tracer.span("leaf"):
                pass
        root = sink.roots()[0]
        assert root.name == "root"
        assert [r.name for r in sink.children(root)] == ["leaf", "leaf"]
        timings = sink.stage_timings()
        assert set(timings) == {"root", "leaf"}
        assert timings["leaf"] == pytest.approx(
            sum(r.duration for r in sink.by_name("leaf"))
        )


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        sink = tracer.add_sink(JsonLinesSink(path))
        with tracer.span("outer", circuit="c"), tracer.span("inner"):
            pass
        sink.close()
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["name"] for r in records] == ["inner", "outer"]
        inner, outer = records
        assert inner["parent_id"] == outer["span_id"]
        assert inner["depth"] == 1
        assert outer["attrs"] == {"circuit": "c"}
        assert outer["duration"] >= 0.0

    def test_jsonl_stream_target(self):
        buffer = io.StringIO()
        tracer = Tracer()
        tracer.add_sink(JsonLinesSink(buffer))
        with tracer.span("s"):
            pass
        assert json.loads(buffer.getvalue())["name"] == "s"

    def test_stderr_sink_format(self):
        buffer = io.StringIO()
        tracer = Tracer()
        tracer.add_sink(StderrSink(buffer))
        with tracer.span("outer"):
            with tracer.span("inner", n=1):
                pass
        lines = buffer.getvalue().splitlines()
        assert lines[0].startswith("[trace]   inner")
        assert "n=1" in lines[0]
        assert lines[1].startswith("[trace] outer")

    def test_multiple_sinks_all_emit(self):
        tracer = Tracer()
        a = tracer.add_sink(MemorySink())
        b = tracer.add_sink(MemorySink())
        with tracer.span("s"):
            pass
        assert len(a.records) == len(b.records) == 1
        tracer.remove_sink(a)
        with tracer.span("t"):
            pass
        assert len(a.records) == 1 and len(b.records) == 2

    def test_render_span_tree(self):
        tracer = Tracer()
        sink = tracer.add_sink(MemorySink())
        with tracer.span("root"):
            with tracer.span("child", luts=2):
                pass
        text = render_span_tree(sink.records)
        lines = text.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")
        assert "luts=2" in lines[1]

    def test_jsonl_flushes_every_record(self, tmp_path):
        # Crash safety: each record must be on disk the moment its span
        # finishes, without waiting for close().
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer()
        sink = tracer.add_sink(JsonLinesSink(path))
        try:
            with tracer.span("first"):
                pass
            with open(path, encoding="utf-8") as handle:
                lines = handle.read().splitlines()
            assert len(lines) == 1
            assert json.loads(lines[0])["name"] == "first"
        finally:
            sink.close()

    def test_jsonl_registers_and_unregisters_atexit(self, tmp_path):
        import atexit

        path = str(tmp_path / "trace.jsonl")
        sink = JsonLinesSink(path)
        # close() must unregister so a closed sink is never re-closed at
        # interpreter exit, and must be idempotent.
        sink.close()
        assert sink._handle.closed
        sink.close()
        # Stream-target sinks never touch atexit and close() only flushes.
        buffer = io.StringIO()
        stream_sink = JsonLinesSink(buffer)
        stream_sink.close()
        assert not buffer.closed
        atexit.unregister(sink.close)  # no-op: already unregistered


class TestMetrics:
    def test_counter_accumulation_and_reset(self):
        reg = MetricsRegistry()
        reg.count("a")
        reg.count("a", 4)
        reg.count("b", 2)
        assert reg.counter("a") == 5
        assert reg.counter("b") == 2
        assert reg.counter("missing") == 0
        reg.reset()
        assert reg.counter("a") == 0
        assert reg.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}

    def test_gauges_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 7.5)
        assert reg.gauge_value("g") == 7.5
        assert reg.gauge_value("missing") is None

    def test_histogram_aggregates(self):
        reg = MetricsRegistry()
        for value in (2, 8, 5):
            reg.observe("h", value)
        stat = reg.histogram("h")
        assert stat.count == 3
        assert stat.min == 2 and stat.max == 8
        assert stat.mean == pytest.approx(5.0)
        snap = reg.snapshot()["histograms"]["h"]
        assert snap["count"] == 3 and snap["sum"] == 15.0

    def test_counter_delta(self):
        reg = MetricsRegistry()
        reg.count("a", 3)
        before = reg.counters()
        reg.count("a", 2)
        reg.count("new", 1)
        assert reg.counter_delta(before) == {"a": 2, "new": 1}

    def test_snapshot_is_json_serializable(self):
        reg = MetricsRegistry()
        reg.count("c", 1)
        reg.gauge("g", 0.5)
        reg.observe("h", 3)
        json.dumps(reg.snapshot())


class TestRecursionLimit:
    def test_chortle_map_does_not_leak_limit(self):
        before = sys.getrecursionlimit()
        net = mcnc_circuit("count")
        ChortleMapper(k=4).map(net)
        assert sys.getrecursionlimit() == before


class TestPipelineIntegration:
    def test_map_area_emits_stage_spans_in_order(self):
        net = mcnc_circuit("9symml")
        before = metrics.counters()
        with capture() as sink:
            circuit = map_area(net, k=4)
        assert circuit.cost > 0

        # Top-level stages under the flow root, in execution order.  The
        # stage index makes every span name unique, so the two strash
        # stages never aggregate into one timing row.
        root = [r for r in sink.records if r.name == "flow.run"][0]
        assert root.attrs["flow"] == "area"
        stages = [r.name for r in sorted(sink.children(root), key=lambda r: r.start)]
        assert stages == [
            "flow.stage.0.sweep",
            "flow.stage.1.strash",
            "flow.stage.2.refactor",
            "flow.stage.3.strash",
            "flow.stage.4.chortle",
            "flow.stage.5.merge",
        ]
        assert len(set(stages)) == len(stages)
        # The mapper core traced under its pipeline stage.
        names = {r.name for r in sink.records}
        assert {"chortle.map", "chortle.map_tree", "transform.sweep"} <= names
        assert root.attrs["luts"] == circuit.cost

        delta = metrics.counter_delta(before)
        assert delta["chortle.minmap_entries"] > 0
        assert delta["chortle.decomp_candidates"] > 0
        assert delta["chortle.luts_emitted"] > 0
        assert delta["chortle.trees_mapped"] > 0
        assert delta["sweep.runs"] > 0

    def test_verify_counters(self):
        from repro.verify import verify_equivalence
        from tests.util import make_random_network

        net = make_random_network(3, num_gates=10)
        circuit = ChortleMapper(k=4).map(net)
        before = metrics.counters()
        with capture() as sink:
            width = verify_equivalence(net, circuit)
        delta = metrics.counter_delta(before)
        assert delta["verify.vectors"] == width
        assert delta["verify.runs"] == 1
        record = sink.by_name("verify.equivalence")[0]
        assert record.attrs["vectors"] == width


class TestConcurrency:
    """Thread/process-safety of the obs primitives under real pools."""

    def test_registry_counts_lose_no_updates(self):
        from concurrent.futures import ThreadPoolExecutor

        registry = MetricsRegistry()

        def bump(_):
            for _ in range(500):
                registry.count("c.hits")
                registry.count("c.bytes", 3)

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(bump, range(8)))
        assert registry.counters()["c.hits"] == 8 * 500
        assert registry.counters()["c.bytes"] == 8 * 500 * 3

    def test_registry_observes_lose_no_updates(self):
        from concurrent.futures import ThreadPoolExecutor

        registry = MetricsRegistry()

        def observe(worker):
            for i in range(200):
                registry.observe("h.latency", float(worker * 200 + i))

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(observe, range(8)))
        stats = registry.histogram("h.latency")
        assert stats.count == 8 * 200
        assert stats.min == 0.0
        assert stats.max == float(8 * 200 - 1)
        assert stats.total == sum(range(8 * 200))

    def test_span_ids_unique_across_worker_threads(self):
        from concurrent.futures import ThreadPoolExecutor

        tracer = Tracer()
        sink = tracer.add_sink(MemorySink())

        def work(i):
            with tracer.span("w.outer", worker=i):
                with tracer.span("w.inner"):
                    pass

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(64)))
        records = sink.records
        assert len(records) == 128
        ids = [r.span_id for r in records]
        assert len(set(ids)) == len(ids), "span-id allocation raced"

    def test_worker_spans_have_well_formed_parent_links(self):
        from concurrent.futures import ThreadPoolExecutor

        tracer = Tracer()
        sink = tracer.add_sink(MemorySink())

        def work(i):
            with tracer.span("w.outer", worker=i):
                with tracer.span("w.inner", worker=i):
                    pass

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(work, range(32)))
        by_id = {r.span_id: r for r in sink.records}
        outers = [r for r in sink.records if r.name == "w.outer"]
        inners = [r for r in sink.records if r.name == "w.inner"]
        assert len(outers) == len(inners) == 32
        # Thread-local stacks: every outer is a root on its thread, and
        # every inner's parent is the outer from the *same* work item —
        # never a span from a sibling thread.
        for outer in outers:
            assert outer.parent_id is None
            assert outer.depth == 0
        for inner in inners:
            parent = by_id[inner.parent_id]
            assert parent.name == "w.outer"
            assert parent.attrs["worker"] == inner.attrs["worker"]
            assert inner.depth == 1

    def test_global_metrics_registry_under_mapping_pool(self):
        # End to end: parallel tree mapping counts into the shared
        # registry; the delta must equal the serial run's.
        net = mcnc_circuit("count")
        before = metrics.counters()
        ChortleMapper(k=4).map(net)
        serial = metrics.counter_delta(before)["chortle.luts_emitted"]
        before = metrics.counters()
        ChortleMapper(k=4, jobs=4).map(net)
        parallel = metrics.counter_delta(before)["chortle.luts_emitted"]
        assert parallel == serial

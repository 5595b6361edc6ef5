"""Tests for the performance layer: memo cache, parallel mapping, DP kernel.

The load-bearing property throughout is *bit-identity*: every perf
configuration (cached, warm, process pool) must emit exactly the
circuit the plain serial mapper emits — same costs, same depths, same
LUT functions, same BLIF text.  A cache or a worker pool that changes
results is a correctness bug wearing a performance hat.
"""

import json
import os

import pytest

from tests.util import leaf_keys, make_random_network, minterm_truth_table
from repro.blif import write_lut_circuit
from repro.core.chortle import ChortleMapper
from repro.core.tree_mapper import (
    ExtItem,
    MapCand,
    TreeMapper,
    _chain_to_tuple,
    placement_depth,
)
from repro.obs import metrics
from repro.perf.lru import LruCache
from repro.perf.memo import (
    DISK_SCHEMA,
    NodeTableCache,
    get_cache,
    node_signature,
    resolve_cache,
)


def mapped_text(net, k=4, **mapper_kwargs):
    """Map ``net`` and return the emitted BLIF text (the identity probe)."""
    circuit = ChortleMapper(k=k, **mapper_kwargs).map(net)
    return write_lut_circuit(circuit)


class TestLruCache:
    def test_get_put_and_counters(self):
        cache = LruCache(maxsize=4, name="test.lru")
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_eviction_is_lru_not_fifo(self):
        cache = LruCache(maxsize=2, name="test.lru")
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a"; "b" is now least recent
        cache.put("c", 3)
        assert cache.get("a") == 1
        assert cache.get("b") is None
        assert cache.evictions == 1

    def test_metrics_registry_sees_counts(self):
        before = metrics.counters()
        cache = LruCache(maxsize=2, name="test.lru.metrics")
        cache.put("a", 1)
        cache.get("a")
        cache.get("zzz")
        delta = metrics.counter_delta(before)
        assert delta["test.lru.metrics.hits"] == 1
        assert delta["test.lru.metrics.misses"] == 1

    def test_rejects_bad_maxsize(self):
        with pytest.raises(ValueError):
            LruCache(maxsize=0)

    def test_unbounded_never_evicts(self):
        cache = LruCache(maxsize=None, name="test.lru.unbounded")
        for i in range(100):
            cache.put(i, i)
        assert len(cache) == 100 and cache.evictions == 0

    def test_stats_snapshot(self):
        cache = LruCache(maxsize=8, name="test.lru.stats")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert stats["size"] == 1 and stats["hits"] == 1
        assert stats["hit_rate"] == 1.0


class TestResolveCache:
    def test_none_and_false_disable(self):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None

    def test_true_is_shared_singleton(self):
        assert resolve_cache(True) is get_cache()
        assert resolve_cache(True) is resolve_cache(True)

    def test_explicit_instance_passthrough(self):
        cache = NodeTableCache(maxsize=16)
        assert resolve_cache(cache) is cache


class TestSignatures:
    def test_duplicate_leaf_names_differ_from_distinct(self):
        # (a AND a) and (a AND b) must never share a cache entry: the
        # signature numbers leaves by first occurrence, so the repeat
        # shows up as a repeated id.
        from repro.core.tree_mapper import ExtItem

        same = node_signature("and", [ExtItem("a", False), ExtItem("a", False)])
        distinct = node_signature(
            "and", [ExtItem("a", False), ExtItem("b", False)]
        )
        assert same != distinct

    def test_names_do_not_matter_only_structure(self):
        from repro.core.tree_mapper import ExtItem

        ab = node_signature("or", [ExtItem("a", False), ExtItem("b", True)])
        xy = node_signature("or", [ExtItem("x", False), ExtItem("y", True)])
        assert ab == xy

    def test_unsigned_table_item_is_uncacheable(self):
        from repro.core.tree_mapper import TableItem

        sig = node_signature("and", [TableItem((), False, None)])
        assert sig is None


class TestBitIdentity:
    """Every perf configuration emits the serial uncached mapper's BLIF."""

    SEEDS = range(6)

    @pytest.mark.parametrize("k", [2, 4])
    def test_cached_matches_uncached(self, k):
        for seed in self.SEEDS:
            net = make_random_network(seed, num_gates=18)
            plain = mapped_text(net, k=k)
            assert mapped_text(net, k=k, cache=NodeTableCache()) == plain

    def test_warm_cache_matches(self):
        cache = NodeTableCache()
        for seed in self.SEEDS:
            net = make_random_network(seed, num_gates=18)
            plain = mapped_text(net, k=4)
            cold = mapped_text(net, k=4, cache=cache)
            warm = mapped_text(net, k=4, cache=cache)
            assert cold == plain and warm == plain

    def test_shared_cache_across_k_values(self):
        # One cache serves a K sweep: K is part of every key, so entries
        # never leak across cells.
        cache = NodeTableCache()
        net = make_random_network(3, num_gates=20)
        for k in (2, 3, 4, 5):
            assert mapped_text(net, k=k, cache=cache) == mapped_text(net, k=k)

    def test_thread_parallel_matches(self):
        # jobs > 1 always maps on the process pool; the name predates the
        # thread executor's removal. This covers the small random nets,
        # test_process_parallel_matches a larger one.
        for seed in self.SEEDS:
            net = make_random_network(seed, num_gates=18)
            assert mapped_text(net, jobs=2) == mapped_text(net)

    def test_process_parallel_matches(self):
        net = make_random_network(1, num_gates=24)
        assert mapped_text(net, jobs=2) == mapped_text(net)

    def test_process_parallel_with_cache_matches(self):
        cache = NodeTableCache()
        for seed in self.SEEDS:
            net = make_random_network(seed, num_gates=18)
            assert mapped_text(net, jobs=2, cache=cache) == mapped_text(net)

    def test_tiny_cache_evicts_but_stays_correct(self):
        # A pathologically small cache thrashes (hits *and* evictions)
        # yet must never change the mapping.
        cache = NodeTableCache(maxsize=8, name="test.tiny")
        for seed in self.SEEDS:
            net = make_random_network(seed, num_gates=18)
            assert mapped_text(net, cache=cache) == mapped_text(net)
        assert cache.evictions > 0


class TestDiskCache:
    def test_round_trip(self, tmp_path):
        cache = NodeTableCache()
        net = make_random_network(2, num_gates=18)
        mapped_text(net, cache=cache)
        assert len(cache) > 0
        path = cache.save_disk(str(tmp_path))
        assert os.path.exists(path)

        fresh = NodeTableCache(name="test.disk")
        assert fresh.load_disk(str(tmp_path)) == len(cache)
        # A mapper warmed purely from disk is bit-identical and all-hits.
        assert mapped_text(net, cache=fresh) == mapped_text(net)
        assert fresh.misses == 0

    def test_missing_file_loads_zero(self, tmp_path):
        assert NodeTableCache().load_disk(str(tmp_path / "nope")) == 0

    def test_corrupt_file_loads_zero(self, tmp_path):
        cache = NodeTableCache()
        path = cache.save_disk(str(tmp_path))
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert NodeTableCache().load_disk(str(tmp_path)) == 0

    def test_stale_schema_ignored(self, tmp_path):
        import pickle

        cache = NodeTableCache()
        path = cache.save_disk(str(tmp_path))
        with open(path, "wb") as handle:
            pickle.dump(
                ("chortle-node-table-cache", DISK_SCHEMA + 1, [("k", "v")]),
                handle,
            )
        assert NodeTableCache().load_disk(str(tmp_path)) == 0

    def test_default_cache_dir_honours_env(self, monkeypatch):
        from repro.perf.memo import default_cache_dir

        monkeypatch.setenv("CHORTLE_CACHE_DIR", "/tmp/somewhere")
        assert default_cache_dir() == "/tmp/somewhere"


class TestSuiteParallel:
    def test_jobs_matches_serial_order_and_qor(self):
        from repro.bench.runner import run_suite

        nets = [make_random_network(s, num_gates=12) for s in range(2)]
        serial = run_suite(nets, mappers=("chortle",), ks=(3, 4))
        para = run_suite(nets, mappers=("chortle",), ks=(3, 4), jobs=2)

        def key(r):
            return (r.circuit_name, r.k, r.mapper, r.luts, r.luts_total,
                    r.depth)

        assert [key(r) for r in serial.reports] == [
            key(r) for r in para.reports
        ]

    def test_wall_seconds_recorded(self):
        from repro.bench.runner import run_suite

        result = run_suite(
            [make_random_network(0, num_gates=8)],
            mappers=("chortle",),
            ks=(4,),
        )
        assert result.reports[0].wall_seconds is not None
        assert result.reports[0].wall_seconds >= 0.0


def _sweep_rows(**kwargs):
    """QoR rows of a chortle sweep of 9symml and count at K=3,4."""
    from repro.bench.runner import run_suite

    result = run_suite(
        circuits=["9symml", "count"], mappers=("chortle",), ks=(3, 4),
        **kwargs
    )
    return [
        (r.circuit_name, r.k, r.mapper, r.luts, r.luts_total, r.depth)
        for r in result.reports
    ]


class TestBenchPerf:
    """The machine-independent checks behind a sweep's timing phases.

    One sweep runs four ways: serial uncached, with a fresh cache, with
    that same cache again, and on two workers with the shared cache.
    Whatever the host, the four give the same QoR, and the second cached
    pass finds every node table; that count, not a timing, is why a warm
    sweep is faster than a cold one.  The timings themselves are compared
    by the parent-vs-change protocol of ``benchmarks/e2e``.
    """

    @pytest.fixture(scope="class")
    def sweeps(self):
        cache = NodeTableCache(name="test.suite")
        serial = _sweep_rows()
        cold = _sweep_rows(cache=cache)
        hits, misses = cache.hits, cache.misses
        warm = _sweep_rows(cache=cache)
        return {
            "cache": cache,
            "serial": serial,
            "cold": cold,
            "warm": warm,
            "warm_hits": cache.hits - hits,
            "warm_misses": cache.misses - misses,
            "parallel": _sweep_rows(jobs=2, cache=True),
        }

    def test_qor_identity_and_gate(self, sweeps):
        serial = sweeps["serial"]
        assert len(serial) == 4
        for phase in ("cold", "warm", "parallel"):
            assert sweeps[phase] == serial, phase

    def test_warm_phase_all_hits(self, sweeps):
        assert sweeps["warm_misses"] == 0
        assert sweeps["warm_hits"] > 0

    def test_disk_round_trip_recorded(self, sweeps, tmp_path):
        # The warm cache written to disk and read into a fresh one serves
        # a whole sweep again without computing a node table.
        cache = sweeps["cache"]
        cache.save_disk(str(tmp_path))
        loaded = NodeTableCache(name="test.suite.disk")
        assert loaded.load_disk(str(tmp_path)) == len(cache) > 0
        assert _sweep_rows(cache=loaded) == sweeps["serial"]
        assert loaded.misses == 0 and loaded.hits > 0

    def test_cli_quick_smoke(self, tmp_path, capsys):
        # The same identity through the command line: a serial record of
        # count at K=4, gated by a rerun on two workers with the cache.
        from repro.cli import main
        from repro.obs.qor import RunRecord

        suite = ["--circuits", "count", "--mappers", "chortle", "--ks", "4"]
        serial = str(tmp_path / "serial.json")
        fresh = str(tmp_path / "fresh.json")
        assert main(["qor", "record", "-o", serial] + suite) == 0
        capsys.readouterr()
        code = main(
            ["qor", "gate", serial, "--jobs", "2", "--cache", "-o", fresh]
            + suite
        )
        assert code == 0
        assert "gate PASS" in capsys.readouterr().out

        def rows(path):
            return [
                (r.circuit_name, r.k, r.mapper, r.luts, r.luts_total, r.depth)
                for r in RunRecord.load(path).reports
            ]

        assert rows(fresh) == rows(serial)
        assert len(rows(serial)) == 1


class TestWorkerSpans:
    """Worker processes send their spans and counters home."""

    def test_tree_spans_and_counters_match_serial(self):
        from repro.bench.mcnc import mcnc_circuit
        from repro.core.forest import build_forest
        from repro.network.transform import sweep
        from repro.obs import capture

        net = mcnc_circuit("apex7")

        def traced_map(jobs):
            before = metrics.counters()
            with capture() as sink:
                ChortleMapper(k=4, jobs=jobs).map(net)
            delta = metrics.counter_delta(before)
            chortle = {k: v for k, v in delta.items() if k.startswith("chortle.")}
            return sink, chortle

        serial, serial_counts = traced_map(1)
        par, par_counts = traced_map(2)
        trees = par.by_name("chortle.map_tree")
        (parallel,) = par.by_name("chortle.parallel")
        assert len(trees) == len(build_forest(sweep(net)).trees)
        assert all(t.parent_id == parallel.span_id for t in trees)
        assert all(t.depth == parallel.depth + 1 for t in trees)
        ids = [r.span_id for r in par.records]
        assert len(ids) == len(set(ids))

        def tree_luts(sink):
            return sorted(
                (r.attrs["tree"], r.attrs["luts"])
                for r in sink.by_name("chortle.map_tree")
            )

        assert tree_luts(par) == tree_luts(serial)
        assert {t.attrs["worker"] for t in trees} == {0, 1}
        assert par_counts["chortle.minmap_entries"] > 0
        assert par_counts == serial_counts

    def test_suite_spans_unique_whichever_forks_first(self, tmp_path):
        # Forked workers used to inherit the parent's sinks and open
        # spans: forking after the sink was attached wrote duplicate span
        # ids into the trace, forking before it lost every worker span.
        from repro.bench.runner import run_suite
        from repro.obs import get_tracer
        from repro.obs.tracer import JsonLinesSink
        from repro.perf.pool import reset_pool

        def suite():
            run_suite(["9symml", "count"], mappers=("chortle",), ks=(3, 4),
                      jobs=2)

        def traced(fork_first):
            reset_pool()
            if fork_first:
                suite()
            path = tmp_path / ("trace_%d.jsonl" % fork_first)
            sink = get_tracer().add_sink(JsonLinesSink(str(path)))
            try:
                suite()
            finally:
                get_tracer().remove_sink(sink)
                sink.close()
            return [json.loads(line) for line in path.read_text().splitlines()]

        runs = {fork_first: traced(fork_first) for fork_first in (False, True)}
        reset_pool()
        for records in runs.values():
            ids = [r["span_id"] for r in records]
            assert len(ids) == len(set(ids))
            (suite_span,) = [r for r in records if r["name"] == "bench.suite"]
            cells = [r for r in records if r["name"] == "bench.run"]
            assert len(cells) == 4
            assert all(r["parent_id"] == suite_span["span_id"] for r in cells)

        def names(records):
            return {r["name"] for r in records}

        def trees(records):
            return sum(r["name"] == "chortle.map_tree" for r in records)

        assert names(runs[False]) == names(runs[True])
        assert trees(runs[False]) == trees(runs[True]) > 0


def _probe_worker(token):
    """Pool task: the worker's tracer state and its view of a subject."""
    from repro.obs import get_tracer
    from repro.perf.pool import resolve_subject

    tracer = get_tracer()
    return tracer.enabled, len(tracer._stack), resolve_subject(token, None).name


class TestWorkerInit:
    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_workers_start_with_clean_tracer_and_registry(self, method):
        import multiprocessing

        from repro.obs import capture, span
        from repro.perf.pool import WorkerPool, register_subject

        if method not in multiprocessing.get_all_start_methods():
            pytest.skip("%s start method unavailable" % method)
        net = make_random_network(0, num_gates=6)
        token = register_subject(net)
        with capture(), span("parent.open"):
            pool = WorkerPool(1, start_method=method)
            try:
                probe = pool.submit(_probe_worker, token).result(timeout=120)
            finally:
                pool.shutdown()
        assert probe == (False, 0, net.name)


class TestWorkerTelemetry:
    def test_record_and_bucket_round_trip(self):
        from repro.perf.parallel import record_worker_telemetry

        before = metrics.counters()
        record_worker_telemetry(
            {
                "queue_wait": 0.5,
                "task_seconds": 1.25,
                "cache_hits": 7,
                "cache_misses": 3,
            },
            pickle_bytes=4096,
        )
        record_worker_telemetry(
            {"queue_wait": 0.25, "task_seconds": 0.75}, pickle_bytes=1024
        )
        delta = metrics.counter_delta(before)
        assert delta["perf.parallel.tasks"] == 2
        assert delta["perf.parallel.task_us"] == 2_000_000
        assert delta["perf.parallel.queue_wait_us"] == 750_000
        assert delta["perf.parallel.pickle_bytes"] == 5120
        assert delta["perf.parallel.cache_hits"] == 7
        assert delta["perf.parallel.cache_misses"] == 3
        assert "perf.parallel.cache_evictions" not in delta

    def test_parallel_map_emits_telemetry(self):
        net = make_random_network(4, num_gates=40)
        before = metrics.counters()
        ChortleMapper(k=4, jobs=2).map(net)
        delta = metrics.counter_delta(before)
        assert delta.get("perf.parallel.tasks", 0) > 0
        assert "perf.parallel.task_us" in delta


class _ReferenceTreeMapper(TreeMapper):
    """The pre-flattening subset DP, ported verbatim as a test oracle.

    Same recurrences as the production kernel but in the original
    dict-of-lists formulation with recursive-helper structure: per-mask
    ``F``/``sub`` dicts, a closure-based ``consider``, and fully
    materialized F tables for every mask.  The production kernel's flat
    preallocated arrays, skipped F tables, single enumeration per mask,
    u=K-only masks and singleton precomputation must be *bit-identical*
    to this — same circuits, same candidate counts — or the refactor
    changed semantics.
    """

    def _subset_dp(self, op, items, stats=None):
        k = self.k
        n = len(items)
        full = (1 << n) - 1
        F = {0: [(0, 0, None)] + [None] * k}
        sub = {}
        acc = [0, 0]
        masks_by_popcount = [[] for _ in range(n + 1)]
        for mask in range(1, full + 1):
            masks_by_popcount[mask.bit_count()].append(mask)
        for p in range(1, n + 1):
            for mask in masks_by_popcount[p]:
                if p >= 2:
                    sub[mask] = self._ref_table(op, items, mask, F, sub, acc)
                F[mask] = self._ref_combine(op, items, mask, F, sub, True, acc)
        metrics.count("chortle.decomp_candidates", acc[0])
        metrics.count("chortle.minmap_entries", acc[1])
        if stats is not None:
            stats[0] += acc[0]
            stats[1] += acc[1]
        return sub[full]

    def _ref_singletons(self, item):
        k = self.k
        options = []
        if isinstance(item, ExtItem):
            options.append((1, 0, ("ext", item.name, item.inv)))
        else:
            wire_cand = item.table[k]
            if wire_cand is not None:
                options.append(
                    (1, wire_cand.cost, ("wire", wire_cand, item.inv))
                )
            for uc in range(2, k + 1):
                cand = item.table[uc]
                if cand is not None:
                    options.append((uc, cand.cost - 1, ("merged", cand, item.inv)))
        return options

    def _ref_combine(self, op, items, mask, F, sub, allow_whole_block, acc):
        k = self.k
        best = [None] * (k + 1)
        first_bit = mask & -mask
        first_idx = first_bit.bit_length() - 1
        rest0 = mask ^ first_bit

        def consider(consumed, cost, placement, rest_mask):
            rest_table = F[rest_mask]
            pdepth = placement_depth(placement)
            for u in range(consumed, k + 1):
                rest_entry = rest_table[u - consumed]
                if rest_entry is None:
                    continue
                total = cost + rest_entry[0]
                depth = pdepth if pdepth > rest_entry[1] else rest_entry[1]
                cur = best[u]
                if cur is None or (total, depth) < (cur[0], cur[1]):
                    best[u] = (total, depth, (placement, rest_entry[2]))

        considered = 0
        for consumed, cost, placement in self._ref_singletons(items[first_idx]):
            consider(consumed, cost, placement, rest0)
            considered += 1
        t = rest0
        while t:
            block = first_bit | t
            if block != mask or allow_whole_block:
                cand = sub[block][k]
                if cand is not None:
                    consider(1, cand.cost, ("wire", cand, False), mask ^ block)
                    considered += 1
            t = (t - 1) & rest0
        acc[0] += considered
        for u in range(1, k + 1):
            prev = best[u - 1]
            if prev is not None and (
                best[u] is None or (prev[0], prev[1]) < (best[u][0], best[u][1])
            ):
                best[u] = prev
        return best

    def _ref_table(self, op, items, mask, F, sub, acc):
        dist = self._ref_combine(op, items, mask, F, sub, False, acc)
        table = [None] * (self.k + 1)
        entries = 0
        for u in range(2, self.k + 1):
            entry = dist[u]
            if entry is None:
                continue
            cost, depth, chain = entry
            table[u] = MapCand(
                cost + 1, op, _chain_to_tuple(chain), input_depth=depth
            )
            entries += 1
        acc[1] += entries
        return table


def _reference_emit(cand, circuit, wire_name):
    """The original *recursive* candidate emission, as a test oracle.

    Tables come from one ``evaluate`` per minterm, not from the
    bit-parallel ``to_truth_table`` under test.
    """
    from repro.core.expr import Leaf, NotExpr, OpExpr
    from repro.core.lut import LUTProvenance

    counter = [0]

    def fresh_internal():
        counter[0] += 1
        return circuit.fresh_name("%s_l%d" % (wire_name, counter[0]))

    def resolve(c):
        children = []
        for placement in c.placements:
            kind = placement[0]
            if kind == "ext":
                children.append(Leaf(placement[1], placement[2]))
            elif kind == "wire":
                child_name = fresh_internal()
                emit(placement[1], child_name)
                children.append(Leaf(child_name, placement[2]))
            else:
                sub = resolve(placement[1])
                children.append(NotExpr(sub) if placement[2] else sub)
        return OpExpr(c.op, children)

    def emit(c, name):
        expr = resolve(c)
        keys = leaf_keys(expr)
        circuit.add_lut(
            name,
            keys,
            minterm_truth_table(expr, keys),
            provenance=LUTProvenance(
                tree=wire_name,
                op=c.op,
                placements=c.placement_kinds(),
                root=name == wire_name,
            ),
        )

    emit(cand, wire_name)


def _wide_node_network(seed, width):
    """One gate of fanin ``width`` over a mix of leaves and child gates.

    Each fanin is a fresh input (a leaf item) or a fanout-free child gate
    of the opposite operation over 2-4 fresh inputs (a table item, some
    with a grandchild), inverted at random.
    """
    import random

    from repro.network.builder import NetworkBuilder
    from repro.network.network import Signal
    from repro.network.transform import sweep

    rng = random.Random(seed)
    b = NetworkBuilder("wide%d" % seed)
    counter = [0]

    def fresh():
        counter[0] += 1
        return b.input("x%d" % counter[0])

    def gate(op, fanins):
        return (b.and_ if op == "and" else b.or_)(*fanins)

    def flip(sig):
        return Signal(sig.name, rng.random() < 0.3)

    root_op = rng.choice(("and", "or"))
    child_op = "or" if root_op == "and" else "and"
    fanins = []
    for _ in range(width):
        if rng.random() < 0.5:
            fanins.append(flip(fresh()))
            continue
        leaves = [flip(fresh()) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.3:
            leaves[0] = flip(gate(root_op, [fresh(), fresh()]))
        fanins.append(flip(gate(child_op, leaves)))
    b.output("o", gate(root_op, fanins))
    return sweep(b.network())


def _map_forest(net, k, mapper_cls=TreeMapper, emit=None, split_threshold=10):
    """Map every tree of ``net`` with the given DP/emission and return BLIF."""
    from repro.core.forest import build_forest
    from repro.core.lut import LUTCircuit
    from repro.core.substrate import emit_candidate, wire_outputs

    forest = build_forest(net)
    circuit = LUTCircuit("%s_k%d" % (net.name, k))
    for name in net.inputs:
        circuit.add_input(name)
    mapper = mapper_cls(k, split_threshold=split_threshold)
    for tree in forest.trees:
        cand = mapper.map_tree(net, tree)
        (emit or emit_candidate)(cand, circuit, tree.root)
    wire_outputs(net, circuit)
    circuit.validate(k)
    return write_lut_circuit(circuit)


class TestIterativeDPParity:
    """The flat iterative kernel vs the recursive-formulation oracle."""

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_fuzz_bit_identity_and_counters(self, k):
        for seed in range(6):
            self._assert_parity(make_random_network(seed, num_gates=22), k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_wide_nodes_under_split_threshold(self, k):
        # Fanin 8-10: one subset DP over up to 1,024 masks, where the
        # u=K-only masks and the shared node/F enumeration do the work.
        for width in (8, 9, 10):
            self._assert_parity(_wide_node_network(10 * k + width, width), k)

    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_wide_nodes_through_split(self, k):
        # Fanin 11-16 splits into two halves (_split_and_map), each a
        # subset DP of its own, joined by a two-item DP.
        for width in range(11, 17):
            self._assert_parity(_wide_node_network(10 * k + width, width), k)

    @staticmethod
    def _assert_parity(net, k):
        before = metrics.counters()
        fast = _map_forest(net, k)
        mid = metrics.counter_delta(before)
        reference = _map_forest(
            net, k, mapper_cls=_ReferenceTreeMapper, emit=_reference_emit
        )
        assert fast == reference
        # The accounting must match too: the production kernel skips
        # F tables and utilizations but still counts their candidates.
        after = metrics.counter_delta(before)
        for counter in ("chortle.decomp_candidates", "chortle.minmap_entries"):
            assert mid[counter] > 0, counter
            assert after[counter] == 2 * mid[counter], counter

    @pytest.mark.parametrize("k", [4, 6])
    def test_wide_fanin_split_path(self, k):
        # max_fanin beyond the split threshold exercises _split_and_map
        # and the virtual-node passthrough items.
        for seed in range(3):
            net = make_random_network(
                seed, num_inputs=16, num_gates=10, max_fanin=14
            )
            assert _map_forest(net, k, split_threshold=6) == _map_forest(
                net, k, mapper_cls=_ReferenceTreeMapper, emit=_reference_emit,
                split_threshold=6,
            )


class TestAllMappersFuzz:
    """Every mapper is deterministic and equivalence-preserving per K."""

    MAPPERS = ("chortle", "cutmap", "mis", "flowmap", "binpack",
               "depthbounded")

    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_double_map_identical_and_correct(self, k):
        from repro.flow.mappers import resolve_mapper, supports_k
        from repro.verify import verify_equivalence

        for name in self.MAPPERS:
            if not supports_k(name, k):
                continue
            for seed in range(2):
                net = make_random_network(seed, num_gates=14, max_fanin=4)
                first = resolve_mapper(name, k).map(net)
                second = resolve_mapper(name, k).map(net)
                assert write_lut_circuit(first) == write_lut_circuit(second), (
                    "%s is nondeterministic at K=%d" % (name, k)
                )
                verify_equivalence(net, first, vectors=64)


def _deep_chain(num_gates, name="deepchain"):
    """A single fanout-free alternating AND/OR chain ``num_gates`` deep."""
    from repro.network.builder import NetworkBuilder
    from repro.network.network import Signal

    b = NetworkBuilder(name)
    xs = [b.input("x%d" % i) for i in range(8)]
    cur = b.and_(xs[0], xs[1])
    for i in range(num_gates - 1):
        other = Signal(xs[i % 8].name, i % 3 == 0)
        op = b.or_ if i % 2 else b.and_
        cur = op(Signal(cur.name, i % 5 == 0), other)
    b.output("out", cur)
    return b.network()


class TestDeepChains:
    """Trees deeper than the default recursion limit map without help.

    Before the iterative rewrites these circuits needed the
    ``recursion_limit`` escape hatch; now every mapper must handle them
    at CPython's untouched default limit.
    """

    CHAIN = 5000

    def test_default_recursion_limit_untouched(self):
        import sys

        assert sys.getrecursionlimit() == 1000

    def test_chortle_deep_chain(self):
        net = _deep_chain(self.CHAIN)
        plain = mapped_text(net, k=4)
        assert plain == mapped_text(net, k=4, cache=NodeTableCache())

    def test_chortle_deep_chain_process_pool(self):
        net = _deep_chain(self.CHAIN)
        assert mapped_text(net, k=4, jobs=2) == mapped_text(net, k=4)

    @pytest.mark.parametrize("name", ["binpack", "flowmap", "mis",
                                      "depthbounded", "cutmap"])
    def test_other_mappers_deep_chain(self, name):
        from repro.flow.mappers import resolve_mapper

        net = _deep_chain(self.CHAIN)
        circuit = resolve_mapper(name, 4).map(net)
        assert circuit.num_luts > 0


class TestPoolReuseDeterminism:
    """One pool across two suites: byte-identical reports, warm workers."""

    def test_two_suites_same_pool_identical_rows(self):
        from repro.perf.parallel import run_cells_processes
        from repro.perf.pool import reset_pool

        nets = [make_random_network(s, num_gates=12) for s in range(2)]
        cells = [(net, k, "chortle") for net in nets for k in (3, 4)]
        reset_pool()
        before = metrics.counters()
        first = run_cells_processes(cells, jobs=2, use_cache=True)
        second = run_cells_processes(cells, jobs=2, use_cache=True)
        delta = metrics.counter_delta(before)

        def stable(row):
            # Timing fields vary run to run; counters include the worker
            # cache traffic, which legitimately warms between suites.
            volatile = ("seconds", "wall_seconds", "timings", "counters")
            return {k: v for k, v in row.items() if k not in volatile}

        assert [stable(r) for r in first] == [stable(r) for r in second]
        for row_a, row_b in zip(first, second):
            # QoR-derived counters must be exactly reproducible.  The DP
            # enumeration counters (decomp_candidates) legitimately drop
            # on the second suite — warm worker caches skip the search —
            # which is the self-warming the pool exists for.
            for counter in ("chortle.trees_mapped", "chortle.luts_emitted"):
                assert (row_a["counters"] or {}).get(counter) == (
                    row_b["counters"] or {}
                ).get(counter), counter
        # Both suites ran on the one pool created by the first call.
        assert delta.get("perf.pool.created", 0) == 1
        assert delta.get("perf.pool.reused", 0) >= 1

    def test_payloads_are_token_sized(self):
        from repro.perf.parallel import run_cells_processes
        from repro.perf.pool import reset_pool

        net = make_random_network(4, num_gates=40)
        cells = [(net, k, "chortle") for k in (3, 4, 5)]
        reset_pool()
        before = metrics.counters()
        run_cells_processes(cells, jobs=2)
        delta = metrics.counter_delta(before)
        import pickle

        net_bytes = len(pickle.dumps(net, pickle.HIGHEST_PROTOCOL))
        # Three cells sharing one registered circuit must ship far less
        # than three pickled networks; tokens plus at most one miss-retry
        # blob per worker.
        assert delta["perf.parallel.pickle_bytes"] < 3 * net_bytes


class TestPermTableCache:
    def test_counter_visible_in_metrics(self):
        from repro.truth.canonical import np_canonical
        from repro.truth.truthtable import TruthTable

        before = metrics.counters()
        np_canonical(TruthTable(3, 0b11001010))
        delta = metrics.counter_delta(before)
        assert (
            delta.get("truth.perm_tables.hits", 0)
            + delta.get("truth.perm_tables.misses", 0)
        ) > 0

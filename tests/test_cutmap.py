"""Tests for the priority-cut DAG mapper (core/cuts.py, core/cut_mapper.py).

Covers the enumeration invariants (feasibility, dominance, priority
bound), the index kernel against the name-keyed kernel it replaced
(tests/cut_reference.py), the mapper itself (validity, equivalence, knobs, perf-path
bit-identity, provenance), the committed reconvergent fixtures where
``cutmap`` must strictly beat the forest-partitioned ``chortle`` mapper
at K=2, and the cross-mapper equivalence fuzz (cutmap vs chortle vs mis
through :func:`verify_network_equivalence`).
"""

import random

import pytest

from repro.analysis.engine import lint_circuit
from repro.baseline.mis_mapper import MisMapper
from repro.baseline.subject import decompose_to_binary
from repro.bench.generator import (
    RECONVERGENT_PRESETS,
    ReconvergentConfig,
    reconvergent_network,
    reconvergent_preset,
)
from repro.blif.writer import write_lut_circuit, write_network
from repro.core.chortle import ChortleMapper
from repro.core.cut_mapper import CutMapper
from repro.core.cuts import (
    DEFAULT_PRIORITY_SIZE,
    MAX_CUT_SIZE,
    MIN_CUT_SIZE,
    Numbering,
    check_cut_size,
    cut_cover_stats,
    enumerate_cuts,
    name_ranks,
)
from repro.errors import MappingError
from repro.core.substrate import circuit_to_network
from repro.obs import metrics
from repro.obs.explain import DecisionRecorder, validate_explanation
from repro.perf.memo import NodeTableCache
from repro.verify import verify_equivalence, verify_network_equivalence

from tests.cut_reference import ReferenceCover, reference_enumerate
from tests.util import make_random_network

FIXTURE_DIR = "benchmarks/fixtures"


def _subject(seed: int, **kwargs):
    return decompose_to_binary(make_random_network(seed, **kwargs))


class TestCutEnumeration:
    def test_cut_size_bounds(self):
        for k in (MIN_CUT_SIZE, 4, MAX_CUT_SIZE):
            check_cut_size(k)
        for k in (0, 1, MAX_CUT_SIZE + 1, -3):
            with pytest.raises(MappingError):
                check_cut_size(k)

    def test_rejects_wide_subject_graph(self):
        net = make_random_network(3, num_gates=12, max_fanin=5)
        assert any(g.fanin_count > 2 for g in net.gates())
        with pytest.raises(MappingError, match="two-input subject"):
            enumerate_cuts(net, 4)

    def test_rejects_bad_knobs(self):
        subject = _subject(1)
        with pytest.raises(MappingError, match="priority_size"):
            enumerate_cuts(subject, 4, priority_size=0)
        with pytest.raises(MappingError, match="mode"):
            enumerate_cuts(subject, 4, mode="power")

    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_cuts_are_k_feasible_and_bounded(self, k):
        subject = _subject(7, num_gates=25)
        cuts = enumerate_cuts(subject, k, priority_size=8)
        order = cuts.numbering.order
        assert order == subject.topological_order()
        for i, name in enumerate(order):
            if not subject.node(name).is_gate:
                assert cuts.cuts[i] == ()
                continue
            assert 1 <= len(cuts.cuts[i]) <= 8
            for cut in cuts.cuts[i]:
                assert 1 <= cut.size <= k
                # Leaves are ascending topological indices, all below
                # the node itself, and the mask is the same set.
                assert list(cut.leaves) == sorted(set(cut.leaves))
                assert cut.leaves[-1] < i
                assert cut.mask == sum(1 << leaf for leaf in cut.leaves)
                assert cut.mask.bit_count() == cut.size

    def test_dominance_no_retained_superset(self):
        subject = _subject(11, num_gates=30)
        cuts = enumerate_cuts(subject, 4)
        for node_cuts in cuts.cuts:
            masks = [c.mask for c in node_cuts]
            assert len(set(masks)) == len(masks)
            for i, a in enumerate(masks):
                for b in masks[i + 1:]:
                    # Neither retained cut's leaf set contains the other's.
                    assert a & b not in (a, b)

    def test_trivial_cut_carries_best_costs(self):
        # What a node costs as a leaf of a parent's cut (the trivial
        # self-cut parents merge against) is its best cut's cost.
        subject = _subject(5, num_gates=20)
        cuts = enumerate_cuts(subject, 4)
        for i, node_cuts in enumerate(cuts.cuts):
            if node_cuts:
                assert cuts.depth[i] == node_cuts[0].depth
                assert cuts.flow[i] == node_cuts[0].area_flow
            else:
                assert (cuts.depth[i], cuts.flow[i]) == (0, 0.0)

    def test_depth_mode_best_is_depth_minimal(self):
        subject = _subject(9, num_gates=25)
        by_depth = enumerate_cuts(subject, 4, mode="depth")
        for node_cuts in by_depth.cuts:
            for cut in node_cuts:
                assert node_cuts[0].depth <= cut.depth

    def test_fanout_est_changes_area_flow(self):
        subject = _subject(13, num_gates=25)
        base = enumerate_cuts(subject, 4)
        position = base.numbering.position
        est = {position[g.name]: 1 for g in subject.gates()}
        redone = enumerate_cuts(subject, 4, fanout_est=est)
        assert base.numbering.order == redone.numbering.order
        # Shared gates stop being discounted, so no flow falls and the
        # flow of some shared gate rises.
        assert all(r >= b for r, b in zip(redone.flow, base.flow))
        assert redone.flow != base.flow

    def test_cover_stats(self):
        subject = _subject(2, num_gates=15)
        cuts = enumerate_cuts(subject, 4)
        stats = cut_cover_stats(cuts)
        assert stats["nodes"] == len(cuts.cuts)
        assert stats["cuts_kept"] >= stats["gates"]
        assert stats["max_cuts"] <= DEFAULT_PRIORITY_SIZE

    def test_numbering_is_shared_and_name_ranked(self):
        subject = _subject(4, num_gates=20)
        numbering = Numbering(subject)
        a = enumerate_cuts(subject, 4, numbering=numbering)
        b = enumerate_cuts(subject, 4, mode="depth", numbering=numbering)
        assert a.numbering is b.numbering is numbering
        order = numbering.order
        by_rank = sorted(range(len(order)), key=numbering.rank.__getitem__)
        assert [order[i] for i in by_rank] == sorted(order)
        assert name_ranks(["b", "c", "a"]) == [1, 2, 0]


#: Subject graphs for the oracle comparison: random DAGs, and the
#: reconvergent XOR presets, where equal-cost cuts are common.
_ORACLE_NETS = (
    ("rnd41", lambda: make_random_network(41, num_inputs=7, num_gates=22)),
    ("rnd42", lambda: make_random_network(42, num_inputs=9, num_gates=30)),
) + tuple(
    (name, (lambda name=name: reconvergent_preset(name)))
    for name in sorted(RECONVERGENT_PRESETS)
)


def _as_names(cuts, cut):
    return (cuts.numbering.names(cut), cut.mask, cut.depth, cut.area_flow)


class TestReferenceKernel:
    """The index kernel against the name-keyed kernel it replaced
    (tests/cut_reference.py): same cuts in rank order, same depths,
    bit-identical flows, same covers and counters."""

    @pytest.mark.parametrize("label,build", _ORACLE_NETS)
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_enumeration_matches_reference(self, label, build, k):
        net = build()
        rng = random.Random("%s-%d" % (label, k))
        for style in ("chain", "balanced"):
            subject = decompose_to_binary(net, style=style)
            numbering = Numbering(subject)
            order = numbering.order
            gates = [i for i, f in enumerate(numbering.fanins) if f is not None]
            est = {i: rng.randint(1, 4) for i in rng.sample(gates, len(gates) // 2)}
            for mode in ("area", "depth"):
                for priority_size in (1, 3, 12):
                    for fanout_est in (None, est):
                        before = metrics.counters()
                        cuts = enumerate_cuts(
                            subject, k, priority_size=priority_size, mode=mode,
                            fanout_est=fanout_est, numbering=numbering,
                        )
                        delta = metrics.counter_delta(before)
                        ref, candidates = reference_enumerate(
                            subject, k, priority_size, mode,
                            fanout_est=None if fanout_est is None else {
                                order[i]: n for i, n in fanout_est.items()
                            },
                        )
                        assert delta["cuts.candidates"] == candidates
                        assert delta["cuts.nodes_enumerated"] == len(order)
                        for i, name in enumerate(order):
                            mine = [_as_names(cuts, c) for c in cuts.cuts[i]]
                            theirs = [tuple(c) for c in ref[name].cuts]
                            assert mine == theirs, (label, style, mode, name)
                            assert cuts.depth[i] == ref[name].trivial.depth
                            assert cuts.flow[i] == ref[name].trivial.area_flow

    @pytest.mark.parametrize("label,build", _ORACLE_NETS)
    @pytest.mark.parametrize("mode", ["area", "depth"])
    @pytest.mark.parametrize("k", [2, 4, 6])
    def test_cover_matches_reference(self, label, build, mode, k):
        net = build()
        style = "chain" if mode == "area" else "balanced"
        subject = decompose_to_binary(net, style=style)
        for priority_size in (1, 3, 12):
            mapper = CutMapper(k=k, priority_size=priority_size, mode=mode)
            before = metrics.counters()
            cover, cuts = mapper._select_with_recovery(subject)
            delta = metrics.counter_delta(before)
            reference = ReferenceCover(k, priority_size, mode)
            ref_cover, ref_cuts = reference.select_with_recovery(subject)
            order = cuts.numbering.order
            mine = {order[i]: _as_names(cuts, cut) for i, cut in cover.items()}
            assert mine == {name: tuple(c) for name, c in ref_cover.items()}
            assert delta["cutmap.exact_area_passes"] == reference.passes
            for i, name in enumerate(order):
                assert [_as_names(cuts, c) for c in cuts.cuts[i]] == [
                    tuple(c) for c in ref_cuts[name].cuts
                ]


class TestCutMapper:
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_valid_and_equivalent(self, k):
        net = make_random_network(21, num_inputs=8, num_gates=24)
        circuit = CutMapper(k=k).map(net)
        circuit.validate(k)
        assert verify_equivalence(net, circuit)

    def test_bad_k_raises(self):
        with pytest.raises(MappingError):
            CutMapper(k=1)
        with pytest.raises(MappingError):
            CutMapper(k=7)

    def test_bad_mode_and_rounds_raise(self):
        with pytest.raises(MappingError):
            CutMapper(mode="speed")
        with pytest.raises(MappingError):
            CutMapper(rounds=-1)

    def test_depth_mode_no_deeper_than_area_mode(self):
        net = make_random_network(33, num_inputs=8, num_gates=40)
        area = CutMapper(k=4, mode="area").map(net)
        depth = CutMapper(k=4, mode="depth").map(net)
        assert depth.depth() <= area.depth()
        assert verify_equivalence(net, depth)

    def test_depth_mode_matches_flowmap_optimum(self):
        from repro.extensions.flowmap import FlowMapper

        net = make_random_network(44, num_inputs=9, num_gates=35)
        depth = CutMapper(k=4, mode="depth").map(net)
        assert depth.depth() == FlowMapper(k=4).optimal_depth(net)

    def test_cache_and_jobs_are_bit_identical(self):
        from repro.flow.mappers import resolve_mapper

        net = make_random_network(55, num_inputs=8, num_gates=30)
        plain = write_lut_circuit(CutMapper(k=4).map(net))
        cached = write_lut_circuit(
            CutMapper(k=4, cache=NodeTableCache(maxsize=256)).map(net)
        )
        # cutmap ignores jobs, like every mapper but chortle.
        jobs = write_lut_circuit(resolve_mapper("cutmap", 4, jobs=4).map(net))
        assert cached == plain
        assert jobs == plain

    def test_cache_is_reused_across_calls(self):
        net = make_random_network(66, num_inputs=8, num_gates=25)
        cache = NodeTableCache(maxsize=512)
        mapper = CutMapper(k=4, cache=cache)
        mapper.map(net)
        first = cache.hits
        mapper.map(net)
        assert cache.hits > first

    def test_zero_rounds_still_valid(self):
        net = make_random_network(17, num_gates=20)
        circuit = CutMapper(k=4, rounds=0).map(net)
        circuit.validate(4)
        assert verify_equivalence(net, circuit)

    def test_convenience_wrapper(self):
        net = make_random_network(8, num_gates=15)
        circuit = CutMapper(k=3).map(net)
        circuit.validate(3)

    def test_cut_provenance_and_lint_clean(self):
        net = make_random_network(29, num_gates=25)
        circuit = CutMapper(k=4).map(net)
        originals = set(net.names())
        for lut in circuit.luts():
            prov = lut.provenance
            assert prov is not None
            assert set(prov.placements) == {"cut"}
            assert len(prov.placements) == len(lut.inputs)
            # Provenance trees are *original* nodes, not subject-graph
            # decomposition temporaries.
            assert prov.tree in originals
        errors = [d for d in lint_circuit(circuit) if d.severity == "error"]
        assert errors == []

    def test_explanation_records_cut_decisions(self):
        net = make_random_network(31, num_gates=20)
        mapper = CutMapper(k=4, recorder=DecisionRecorder())
        circuit = mapper.map(net)
        exp = mapper.explanation
        assert exp is not None
        assert exp.mapper == "cutmap"
        assert exp.luts == circuit.cost
        validate_explanation(exp.to_dict())
        nodes = [n for t in exp.trees for n in t.nodes]
        assert nodes
        assert all(n.placement == "cut" for n in nodes)
        assert all(n.candidates >= 1 for n in nodes)
        # Where more than one cut was retained, a runner-up delta exists.
        assert any(n.runner_up_delta is not None for n in nodes)


class TestReconvergentFixtures:
    """Satellite: committed XOR-heavy fixtures where cutmap must win."""

    @pytest.mark.parametrize("name", sorted(RECONVERGENT_PRESETS))
    def test_fixture_files_are_pinned(self, name):
        # The committed BLIF must match regeneration byte-for-byte; a
        # drift here means the generator changed under the fixtures.
        with open("%s/%s.blif" % (FIXTURE_DIR, name)) as fh:
            committed = fh.read()
        assert write_network(reconvergent_preset(name)) == committed

    @pytest.mark.parametrize("name", sorted(RECONVERGENT_PRESETS))
    def test_cutmap_strictly_beats_chortle_at_k2(self, name):
        net = reconvergent_preset(name)
        cut = CutMapper(k=2).map(net)
        tree = ChortleMapper(k=2).map(net)
        assert cut.cost < tree.cost
        assert verify_equivalence(net, cut)
        assert verify_equivalence(net, tree)

    def test_preset_determinism(self):
        a = write_network(reconvergent_preset("xor_ladder"))
        b = write_network(reconvergent_preset("xor_ladder"))
        assert a == b

    def test_unknown_preset_raises(self):
        with pytest.raises(ValueError, match="unknown reconvergent preset"):
            reconvergent_preset("xor_nope")

    def test_mesh_config_without_chain(self):
        net = reconvergent_network(
            ReconvergentConfig(num_inputs=6, num_stages=5, seed=3, chain=False)
        )
        net.validate()
        assert net.num_inputs == 6
        assert sum(1 for _ in net.gates()) == 15  # three gates per XOR stage


class TestCrossMapperEquivalence:
    """Satellite: cutmap vs chortle vs mis via network-level checking."""

    @pytest.mark.parametrize("seed", range(4))
    def test_small_networks_pairwise(self, seed):
        net = make_random_network(
            100 + seed, num_inputs=7, num_gates=18 + 3 * seed
        )
        nets = [
            circuit_to_network(mapper.map(net))
            for mapper in (CutMapper(k=4), ChortleMapper(k=4), MisMapper(k=4))
        ]
        for mapped in nets:
            assert verify_network_equivalence(net, mapped)
        assert verify_network_equivalence(nets[0], nets[1])
        assert verify_network_equivalence(nets[0], nets[2])

    def test_wide_network_uses_random_fallback(self):
        # xor_wide has 18 primary inputs — above the exhaustive_limit of
        # 14 — so this exercises the random-vector simulation path.
        net = reconvergent_preset("xor_wide")
        assert net.num_inputs > 14
        cut_net = circuit_to_network(CutMapper(k=3).map(net))
        tree_net = circuit_to_network(ChortleMapper(k=3).map(net))
        vectors = verify_network_equivalence(cut_net, tree_net)
        assert vectors == 4096  # random fallback, not exhaustive

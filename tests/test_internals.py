"""White-box tests of algorithmic internals across the mappers."""

import pytest

from tests.util import make_random_network
from repro.baseline.mis_mapper import _remap_bits
from repro.core.lut import LUTCircuit
from repro.extensions.binpack import BinPackMapper
from repro.extensions.flowmap import FlowMapper, _cone_function
from repro.network.builder import NetworkBuilder
from repro.network.transform import sweep
from repro.truth.truthtable import TruthTable


class TestRemapBits:
    def test_identity(self):
        tt = TruthTable(2, 0b0110)
        assert _remap_bits(tt.bits, [0, 1], 2) == 0b0110

    def test_swap(self):
        a, b = TruthTable.var(0, 2), TruthTable.var(1, 2)
        f = a & ~b
        swapped = TruthTable(2, _remap_bits(f.bits, [1, 0], 2))
        assert swapped == b & ~a

    def test_embed_in_larger_space(self):
        a = TruthTable.var(0, 1)
        embedded = TruthTable(3, _remap_bits(a.bits, [2], 3))
        assert embedded == TruthTable.var(2, 3)

    @pytest.mark.parametrize("bits", [0, 1, 0b0110, 0b1011])
    def test_consistent_with_permute(self, bits):
        tt = TruthTable(2, bits)
        assert _remap_bits(tt.bits, [1, 0], 2) == tt.permute([1, 0]).bits


class TestFlowMapInternals:
    def test_labels_monotone_along_paths(self):
        """label(v) >= label(u) for every edge u->v of the subject graph."""
        from repro.baseline.subject import decompose_to_binary

        for seed in range(4):
            net = decompose_to_binary(sweep(make_random_network(seed, num_gates=12)))
            fm = FlowMapper(k=4)
            labels, cuts = fm._label_phase(net)
            for node in net.gates():
                for sig in node.fanins:
                    assert labels[node.name] >= labels[sig.name]

    def test_cuts_are_k_feasible_and_separate(self):
        from repro.baseline.subject import decompose_to_binary

        net = decompose_to_binary(sweep(make_random_network(1, num_gates=12)))
        fm = FlowMapper(k=3)
        labels, cuts = fm._label_phase(net)
        for target, cut in cuts.items():
            assert 1 <= len(cut) <= 3
            # Removing the cut must disconnect the target from the inputs.
            blocked = set(cut)
            stack = [target]
            seen = set()
            while stack:
                cur = stack.pop()
                if cur in seen or cur in blocked:
                    continue
                seen.add(cur)
                node = net.node(cur)
                assert node.is_gate, "reached an input past the cut"
                for sig in node.fanins:
                    stack.append(sig.name)

    def test_cone_function(self):
        b = NetworkBuilder("c")
        a, c = b.inputs("a", "c")
        g = b.and_(a, ~c, name="g")
        b.output("y", g)
        net = b.network()
        tt = _cone_function(net, "g", ("a", "c"))
        assert tt == TruthTable.var(0, 2) & ~TruthTable.var(1, 2)


class TestBinPackInternals:
    def test_ffd_fills_first_fit(self):
        mapper = BinPackMapper(k=4)
        items = [(3, 0, ("ext", "a", False)), (2, 0, ("ext", "b", False)),
                 (1, 0, ("ext", "c", False)), (1, 0, ("ext", "d", False))]
        bins = mapper._ffd(items)
        assert [b.used for b in bins] == [4, 3]

    def test_ffd_oversized_item_rejected(self):
        from repro.errors import MappingError

        mapper = BinPackMapper(k=3)
        with pytest.raises(MappingError):
            mapper._ffd([(4, 0, ("ext", "a", False))])

    def test_pack_single_bin(self):
        mapper = BinPackMapper(k=4)
        items = [(1, 0, ("ext", n, False)) for n in "abc"]
        cand = mapper._pack("and", items)
        assert cand.cost == 1
        assert len(cand.placements) == 3

    def test_pack_requires_chaining(self):
        mapper = BinPackMapper(k=2)
        items = [(1, 0, ("ext", n, False)) for n in "abcde"]
        cand = mapper._pack("or", items)
        # ceil((5-1)/(2-1)) = 4 LUTs for a 5-input OR at K=2.
        assert cand.cost == 4


class TestClbInternals:
    def test_candidate_pairs_via_shared_signal(self):
        from repro.extensions.clb import ClbPacker

        packer = ClbPacker()
        lut_inputs = {
            "x": frozenset("abcd"),
            "y": frozenset("abce"),
            "z": frozenset("fghi"),
        }
        pairs = packer._candidate_pairs(lut_inputs)
        assert ("x", "y") in pairs
        assert ("x", "z") not in pairs

    def test_candidate_pairs_small_no_sharing(self):
        from repro.extensions.clb import ClbPacker

        packer = ClbPacker()
        lut_inputs = {"x": frozenset("ab"), "y": frozenset("cd")}
        assert ("x", "y") in packer._candidate_pairs(lut_inputs)


class TestEmissionInternals:
    def test_emit_candidate_counts(self):
        from repro.core.substrate import emit_candidate
        from repro.core.forest import build_forest
        from repro.core.tree_mapper import TreeMapper

        net = sweep(make_random_network(5, num_gates=10))
        forest = build_forest(net)
        circuit = LUTCircuit("t")
        for name in net.inputs:
            circuit.add_input(name)
        total = 0
        for tree in forest.trees:
            cand = TreeMapper(4).map_tree(net, tree)
            emitted = emit_candidate(cand, circuit, tree.root)
            assert emitted == cand.cost
            total += emitted
        assert circuit.num_luts == total

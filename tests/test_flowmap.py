"""Tests for the FlowMap-style depth-optimal mapper."""

import itertools

import pytest

from tests.util import make_random_network, make_random_tree_network
from repro.baseline.subject import decompose_to_binary
from repro.bench.circuits import parity_tree, ripple_adder
from repro.core.chortle import ChortleMapper
from repro.errors import MappingError
from repro.extensions.flowmap import FlowMapper
from repro.network.transform import sweep
from repro.verify import verify_equivalence


def brute_force_min_depth(net, k):
    """Exponential reference: minimum LUT depth over all cone covers.

    depth(n) = min over K-feasible cuts of the cone of n of
    1 + max(depth(cut node)).  Enumerating all cuts is exponential but
    fine for the tiny networks used here.
    """
    net = decompose_to_binary(sweep(net))
    order = net.topological_order()
    cuts = {}
    depth = {}
    for name in order:
        node = net.node(name)
        if not node.is_gate:
            cuts[name] = [frozenset([name])]
            depth[name] = 0
            continue
        fanin_cuts = []
        for sig in node.fanins:
            options = list(cuts[sig.name])
            if net.node(sig.name).is_gate:
                options = options + [frozenset([sig.name])]
            else:
                options = [frozenset([sig.name])]
            fanin_cuts.append(options)
        merged = set()
        for combo in itertools.product(*fanin_cuts):
            cut = frozenset().union(*combo)
            if len(cut) <= k:
                merged.add(cut)
        cuts[name] = sorted(merged, key=len)[:200]
        depth[name] = min(
            1 + max(depth[x] for x in cut) for cut in cuts[name]
        )
    return max(
        (depth[sig.name] for sig in net.outputs.values()), default=0
    )


class TestDepthOptimality:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_brute_force_min_depth(self, seed, k):
        net = make_random_network(seed, num_gates=8, max_fanin=4)
        fm = FlowMapper(k=k)
        assert fm.optimal_depth(net) == brute_force_min_depth(net, k)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_never_deeper_than_chortle_same_subject(self, seed, k):
        """Structure-fair comparison: over the same binary subject graph,
        FlowMap's depth lower-bounds any cover Chortle can pick."""
        from repro.baseline.subject import decompose_to_binary
        from repro.network.transform import sweep

        net = make_random_network(seed, num_gates=12)
        binary = decompose_to_binary(sweep(net))
        fm_depth = FlowMapper(k=k).map(net).depth()
        chortle_depth = ChortleMapper(k=k).map(binary).depth()
        assert fm_depth <= chortle_depth

    def test_mapped_depth_equals_label(self):
        for seed in range(5):
            net = make_random_network(seed, num_gates=10)
            fm = FlowMapper(k=4)
            circuit = fm.map(net)
            assert circuit.depth() == fm.optimal_depth(net)

    def test_parity_tree_depth(self):
        """XOR tree over 8 inputs: 3 levels of XOR2; K=4 cuts reach depth 2."""
        net = parity_tree(8)
        assert FlowMapper(k=4).optimal_depth(net) == 2


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_random_networks(self, seed, k):
        net = make_random_network(seed, num_gates=12)
        circuit = FlowMapper(k=k).map(net)
        verify_equivalence(net, circuit)
        circuit.validate(k)

    def test_ripple_adder(self):
        net = ripple_adder(4)
        circuit = FlowMapper(k=4).map(net)
        verify_equivalence(net, circuit)

    @pytest.mark.parametrize("seed", range(4))
    def test_trees(self, seed):
        net = make_random_tree_network(seed)
        circuit = FlowMapper(k=4).map(net)
        verify_equivalence(net, circuit)


class TestMechanics:
    def test_k_validated(self):
        with pytest.raises(MappingError):
            FlowMapper(k=1)

    def test_helper(self, fig1):
        circuit = FlowMapper(k=3).map(fig1)
        verify_equivalence(fig1, circuit)

    def test_lut_inputs_bounded(self):
        net = make_random_network(2, num_gates=15)
        circuit = FlowMapper(k=4).map(net)
        assert all(len(lut.inputs) <= 4 for lut in circuit.luts())

    def test_area_depth_tradeoff_direction(self):
        """FlowMap optimizes depth and generally pays area vs Chortle."""
        worse_area = 0
        for seed in range(6):
            net = make_random_network(seed, num_gates=15)
            fm = FlowMapper(k=4).map(net)
            ch = ChortleMapper(k=4).map(net)
            if fm.cost >= ch.cost:
                worse_area += 1
        assert worse_area >= 4  # depth optimality usually costs area

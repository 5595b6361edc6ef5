"""Tests for the bin-packing (Chortle-crf style) mapper."""

import math
import time

import pytest

from tests.util import make_random_network, make_random_tree_network
from repro.bench.circuits import wide_and
from repro.core.chortle import ChortleMapper
from repro.errors import MappingError
from repro.extensions.binpack import BinPackMapper, candidate_utilization
from repro.network.builder import NetworkBuilder
from repro.verify import verify_equivalence


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_random_networks(self, seed, k):
        net = make_random_network(seed, num_gates=12)
        circuit = BinPackMapper(k=k).map(net)
        verify_equivalence(net, circuit)
        circuit.validate(k)

    @pytest.mark.parametrize("seed", range(5))
    def test_trees(self, seed):
        net = make_random_tree_network(seed)
        circuit = BinPackMapper(k=4).map(net)
        verify_equivalence(net, circuit)


class TestQuality:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_never_beats_exact_mapper(self, seed, k):
        """Chortle's DP is optimal per tree; FFD can only tie or lose."""
        net = make_random_network(seed, num_gates=15)
        exact = ChortleMapper(k=k).map(net).cost
        packed = BinPackMapper(k=k).map(net).cost
        assert packed >= exact

    @pytest.mark.parametrize("seed", range(8))
    def test_stays_close_to_exact(self, seed):
        net = make_random_network(seed, num_gates=15)
        exact = ChortleMapper(k=4).map(net).cost
        packed = BinPackMapper(k=4).map(net).cost
        assert packed <= math.ceil(exact * 1.5) + 2

    def test_wide_and_optimal(self):
        """Same-op packing is where FFD shines: it hits the bound."""
        net = wide_and(16)
        assert BinPackMapper(k=4).map(net).cost == 5  # ceil(15/3)


class TestLargeFanin:
    @pytest.mark.parametrize("fanin", [30, 64, 100])
    def test_handles_very_wide_nodes(self, fanin):
        """The paper's future-work case: fanins far beyond the split
        threshold, where exhaustive search is impractical."""
        net = wide_and(fanin)
        circuit = BinPackMapper(k=4).map(net)
        verify_equivalence(net, circuit)
        assert circuit.cost == math.ceil((fanin - 1) / 3)

    def test_faster_than_exact_on_wide_node(self):
        net = wide_and(64)
        t0 = time.perf_counter()
        BinPackMapper(k=5).map(net)
        packed_time = time.perf_counter() - t0
        t0 = time.perf_counter()
        ChortleMapper(k=5).map(net)
        exact_time = time.perf_counter() - t0
        # Not a strict benchmark, just an order-of-magnitude sanity check.
        assert packed_time < exact_time * 5


class TestMechanics:
    def test_k_validated(self):
        with pytest.raises(MappingError):
            BinPackMapper(k=1)

    def test_helper(self, fig1):
        circuit = BinPackMapper(k=3).map(fig1)
        verify_equivalence(fig1, circuit)

    def test_candidate_utilization(self):
        b = NetworkBuilder()
        a, c, d = b.inputs("a", "c", "d")
        b.output("y", b.or_(b.and_(a, c), ~d))
        net = b.network()
        from repro.core.forest import build_forest
        from repro.core.tree_mapper import TreeMapper

        forest = build_forest(net)
        cand = TreeMapper(4).map_tree(net, forest.trees[0])
        assert candidate_utilization(cand) == 3

"""Tests for the MIS II-style baseline mapper."""

import pytest

from tests.util import make_random_network, make_random_tree_network
from repro.baseline.library import Library, kernel_library
from repro.baseline.mis_mapper import MisMapper
from repro.bench.circuits import figure1_network, parity_tree, wide_and
from repro.core.chortle import ChortleMapper
from repro.errors import MappingError
from repro.truth.truthtable import TruthTable
from repro.verify import verify_equivalence


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_random_networks(self, seed, k):
        net = make_random_network(seed, num_gates=12)
        circuit = MisMapper(k=k).map(net)
        verify_equivalence(net, circuit)
        circuit.validate(k)

    @pytest.mark.parametrize(
        "maker", [figure1_network, lambda: parity_tree(8), lambda: wide_and(9)]
    )
    @pytest.mark.parametrize("k", [2, 4])
    def test_library_circuits(self, maker, k):
        net = maker()
        circuit = MisMapper(k=k).map(net)
        verify_equivalence(net, circuit)


class TestAgainstChortle:
    @pytest.mark.parametrize("seed", range(8))
    def test_k2_essentially_identical(self, seed):
        """Paper Table 1: K=2 results nearly identical (complete library,
        forced binary decomposition)."""
        net = make_random_network(seed, num_gates=15)
        chortle = ChortleMapper(k=2).map(net).cost
        mis = MisMapper(k=2).map(net).cost
        assert abs(chortle - mis) <= max(1, chortle // 20)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_chortle_never_much_worse(self, seed, k):
        """Chortle is optimal per tree; MIS can only win via reconvergent
        leaf sharing, which is worth at most a couple of tables here."""
        net = make_random_network(seed, num_gates=15)
        chortle = ChortleMapper(k=k).map(net).cost
        mis = MisMapper(k=k).map(net).cost
        assert chortle <= mis + 2

    @pytest.mark.parametrize("seed", range(6))
    def test_complete_library_tree_parity(self, seed):
        """On a pure tree with the complete K=3 library, the baseline can
        at best match Chortle (both optimal over their search spaces)."""
        net = make_random_tree_network(seed, depth=3)
        chortle = ChortleMapper(k=3).map(net).cost
        mis = MisMapper(k=3).map(net).cost
        assert mis >= chortle


class TestLibraryEffects:
    def test_incomplete_library_costs_more(self):
        """A crippled library (AND2/OR2 only) must do strictly worse than
        the kernel library on a non-trivial circuit."""
        net = make_random_network(3, num_gates=15)
        tiny = Library("tiny", 4)
        a, b = TruthTable.var(0, 2), TruthTable.var(1, 2)
        tiny.add(a & b)
        tiny.add(a | b)
        rich = kernel_library(4)
        cost_tiny = MisMapper(k=4, library=tiny).map(net).cost
        cost_rich = MisMapper(k=4, library=rich).map(net).cost
        assert cost_tiny >= cost_rich

    def test_unmatchable_node_raises(self):
        net = make_random_network(0)
        empty = Library("empty", 4)
        with pytest.raises(MappingError):
            MisMapper(k=4, library=empty).map(net)

    def test_library_k_larger_than_mapper_rejected(self):
        lib = kernel_library(5)
        with pytest.raises(MappingError):
            MisMapper(k=4, library=lib)

    def test_k_validated(self):
        with pytest.raises(MappingError):
            MisMapper(k=1)

    def test_default_libraries(self):
        assert MisMapper(k=2).library.complete
        assert MisMapper(k=3).library.complete
        assert not MisMapper(k=4).library.complete


class TestReconvergence:
    def test_mis_exploits_leaf_reconvergence(self):
        """An XOR-shaped reconvergent pair: MIS's cuts merge the shared
        leaves into one LUT where Chortle counts them twice (the paper's
        explanation for MIS's occasional K=2..3 wins)."""
        from repro.network.builder import NetworkBuilder

        b = NetworkBuilder("xor")
        a, c = b.inputs("a", "c")
        b.output("y", b.xor_(a, c))
        net = b.network()
        mis = MisMapper(k=3).map(net)
        chortle = ChortleMapper(k=3).map(net)
        verify_equivalence(net, mis)
        assert mis.cost == 1  # single LUT: cuts merge the shared leaves
        assert chortle.cost >= mis.cost

    def test_helper(self):
        net = make_random_network(1)
        circuit = MisMapper(k=3).map(net)
        verify_equivalence(net, circuit)

"""End-to-end tests for the Chortle mapper."""

import pytest

from tests.util import make_random_network, make_random_tree_network
from repro.bench.circuits import (
    figure1_network,
    majority,
    mux_tree,
    parity_tree,
    ripple_adder,
    wide_and,
)
from repro.core.chortle import ChortleMapper
from repro.core.cover import check_cover
from repro.errors import MappingError
from repro.network.network import BooleanNetwork, Signal
from repro.verify import verify_equivalence


class TestPaperExample:
    def test_figure2_mapping_k3(self, fig1):
        """Figure 2 implements the Figure 1 network in three 3-input LUTs."""
        circuit = ChortleMapper(k=3).map(fig1)
        assert circuit.cost == 3
        verify_equivalence(fig1, circuit)

    @pytest.mark.parametrize("k,expected", [(2, 5), (3, 3), (4, 2), (5, 2)])
    def test_figure1_costs_across_k(self, fig1, k, expected):
        circuit = ChortleMapper(k=k).map(fig1)
        assert circuit.cost == expected
        verify_equivalence(fig1, circuit)

    def test_root_luts_named_after_nodes(self, fig1):
        circuit = ChortleMapper(k=3).map(fig1)
        assert "g2" in circuit
        assert "g4" in circuit


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_random_networks(self, seed, k):
        net = make_random_network(seed, num_gates=12)
        circuit = ChortleMapper(k=k).map(net)
        verify_equivalence(net, circuit)
        check_cover(net, circuit, k)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_trees(self, seed):
        net = make_random_tree_network(seed)
        for k in (2, 4):
            circuit = ChortleMapper(k=k).map(net)
            verify_equivalence(net, circuit)

    @pytest.mark.parametrize(
        "maker",
        [
            figure1_network,
            lambda: parity_tree(8),
            lambda: ripple_adder(4),
            lambda: majority(5),
            lambda: mux_tree(3),
            lambda: wide_and(16),
        ],
    )
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_library_circuits(self, maker, k):
        net = maker()
        circuit = ChortleMapper(k=k).map(net)
        verify_equivalence(net, circuit)
        circuit.validate(k)


class TestStructuralProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_lut_input_bound(self, seed):
        net = make_random_network(seed)
        for k in (2, 3, 4, 5):
            circuit = ChortleMapper(k=k).map(net)
            for lut in circuit.luts():
                assert len(lut.inputs) <= k

    @pytest.mark.parametrize("seed", range(6))
    def test_cost_counts_multi_input_luts(self, seed):
        net = make_random_network(seed)
        circuit = ChortleMapper(k=4).map(net)
        assert circuit.cost == sum(
            1 for lut in circuit.luts() if len(lut.inputs) >= 2
        )

    def test_lower_bound_gates_over_k(self):
        """Any mapping needs at least edges-ish/k LUTs; check a weak bound."""
        net = make_random_network(4, num_gates=15)
        circuit = ChortleMapper(k=4).map(net)
        # Each LUT absorbs at most k-1 of the network's edge count.
        assert circuit.cost >= (net.num_edges - net.num_gates) // 4


class TestEdgeCases:
    def test_output_directly_from_input(self):
        net = BooleanNetwork("passthru")
        net.add_input("a")
        net.set_output("y", "a")
        circuit = ChortleMapper(k=4).map(net)
        verify_equivalence(net, circuit)
        assert circuit.cost == 0

    def test_inverted_output_gets_free_inverter(self):
        net = BooleanNetwork("inv")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", "and", ["a", "b"])
        net.set_output("y", Signal("g", True))
        circuit = ChortleMapper(k=4).map(net)
        verify_equivalence(net, circuit)
        assert circuit.cost == 1  # the inverter is not a logic block

    def test_inverted_input_output(self):
        net = BooleanNetwork("invin")
        net.add_input("a")
        net.set_output("y", Signal("a", True))
        circuit = ChortleMapper(k=4).map(net)
        verify_equivalence(net, circuit)

    def test_constant_output(self):
        net = BooleanNetwork("c1")
        net.add_input("a")
        net.add_const("one", True)
        net.set_output("y", "one")
        circuit = ChortleMapper(k=4).map(net)
        verify_equivalence(net, circuit)
        assert circuit.cost == 0

    def test_constant_folded_from_logic(self):
        net = BooleanNetwork("fold")
        net.add_input("a")
        net.add_gate("g", "or", [Signal("a"), Signal("a", True)])
        net.set_output("y", "g")
        circuit = ChortleMapper(k=4).map(net)
        verify_equivalence(net, circuit)

    def test_shared_output_ports(self):
        net = BooleanNetwork("shared")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", "and", ["a", "b"])
        net.set_output("y1", "g")
        net.set_output("y2", Signal("g", True))
        net.set_output("y3", Signal("g", True))
        circuit = ChortleMapper(k=4).map(net)
        verify_equivalence(net, circuit)
        # One AND LUT + one shared inverter.
        assert circuit.num_luts == 2

    def test_unswept_single_fanin_rejected_without_preprocess(self):
        from repro.core.forest import build_forest
        from repro.core.tree_mapper import TreeMapper

        net = BooleanNetwork("buf")
        net.add_input("a")
        net.add_input("b")
        net.add_gate("g", "and", ["a", "b"])
        net.add_gate("buf", "and", ["g"])
        net.set_output("y", "buf")
        (tree,) = build_forest(net).trees
        with pytest.raises(MappingError):
            TreeMapper(4).map_tree(net, tree)
        # The mapper sweeps first, so it maps the same network.
        verify_equivalence(net, ChortleMapper(k=4).map(net))

    def test_k_validated(self):
        with pytest.raises(MappingError):
            ChortleMapper(k=1)

    def test_map_network_helper(self, fig1):
        assert ChortleMapper(k=3).map(fig1).cost == 3


class TestCostAccountingInvariant:
    @pytest.mark.parametrize("seed", range(5))
    def test_predicted_cost_equals_emitted(self, seed):
        """The mapper raises internally if DP cost != emitted LUTs; this
        exercises that path across many shapes."""
        for k in (2, 3, 4, 5):
            net = make_random_network(seed, num_gates=20, max_fanin=6)
            circuit = ChortleMapper(k=k).map(net)
            circuit.validate(k)

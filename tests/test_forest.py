"""Tests for forest partitioning (Section 3 / Figure 3 of the paper)."""

import pytest

from tests.util import make_random_network, make_random_tree_network
from repro.core.forest import build_forest, check_forest, tree_roots
from repro.errors import MappingError


class TestTreeRoots:
    def test_fig1_roots(self, fig1):
        """In Figure 1/3, g2 has fanout 2 (g4 and output y) so it splits."""
        roots = tree_roots(fig1)
        assert roots == {"g2", "g4"}

    def test_single_tree(self, tiny_and_or):
        roots = tree_roots(tiny_and_or)
        assert len(roots) == 1

    def test_output_driven_gate_is_root(self):
        from repro.network.builder import NetworkBuilder

        b = NetworkBuilder()
        a, c = b.inputs("a", "c")
        g1 = b.and_(a, c, name="g1")
        g2 = b.or_(g1, a, name="g2")
        b.output("mid", g1)  # g1 drives an output AND a gate
        b.output("top", g2)
        roots = tree_roots(b.network())
        assert roots == {"g1", "g2"}


class TestBuildForest:
    def test_fig1_forest_shape(self, fig1):
        forest = build_forest(fig1)
        assert forest.num_trees == 2
        by_root = {t.root: t for t in forest.trees}
        assert by_root["g2"].internal == {"g1", "g2"}
        assert by_root["g2"].leaves == {"a", "b", "c"}
        assert by_root["g4"].internal == {"g3", "g4"}
        # g2 is a leaf of g4's tree: the new pseudo-input of Figure 3.
        assert by_root["g4"].leaves == {"g2", "c", "d", "e"}

    def test_roots_in_topological_order(self, fig1):
        forest = build_forest(fig1)
        assert [t.root for t in forest.trees] == ["g2", "g4"]

    def test_tree_of(self, fig1):
        forest = build_forest(fig1)
        assert forest.tree_of("g2").root == "g2"
        with pytest.raises(MappingError):
            forest.tree_of("nope")

    @pytest.mark.parametrize("seed", range(10))
    def test_forest_partitions_gates(self, seed):
        """Every gate appears in exactly one tree (the cover condition)."""
        net = make_random_network(seed, num_gates=15)
        forest = build_forest(net)
        check_forest(forest)
        covered = set()
        for tree in forest.trees:
            assert not (covered & tree.internal)
            covered |= tree.internal
        assert covered == {g.name for g in net.gates()}

    @pytest.mark.parametrize("seed", range(10))
    def test_internal_nodes_have_single_fanout(self, seed):
        net = make_random_network(seed, num_gates=15)
        forest = build_forest(net)
        counts = net.fanout_counts()
        for tree in forest.trees:
            for name in tree.internal:
                if name != tree.root:
                    assert counts[name] == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_leaves_are_inputs_or_roots(self, seed):
        net = make_random_network(seed, num_gates=15)
        forest = build_forest(net)
        roots = {t.root for t in forest.trees}
        for tree in forest.trees:
            for leaf in tree.leaves:
                node = net.node(leaf)
                assert node.op == "input" or leaf in roots

    def test_whole_tree_network_is_one_tree(self):
        for seed in range(5):
            net = make_random_tree_network(seed)
            forest = build_forest(net)
            assert forest.num_trees == 1
            assert forest.trees[0].num_nodes == net.num_gates


def _assert_tree_orders(net):
    """Each tree's order holds exactly its nodes, root last, in the
    network's topological order."""
    forest = build_forest(net)
    order = net.topological_order()
    for tree in forest.trees:
        assert sorted(tree.order) == sorted(tree.internal)
        assert tree.order[-1] == tree.root
        assert tree.order == [name for name in order if name in tree.internal]
    return forest


class TestTreeOrder:
    def test_fig1(self, fig1):
        forest = _assert_tree_orders(fig1)
        assert [tree.order for tree in forest.trees] == [["g1", "g2"], ["g3", "g4"]]

    @pytest.mark.parametrize("seed", [3, 7])
    def test_random_networks(self, seed):
        forest = _assert_tree_orders(make_random_network(seed, num_gates=30))
        assert any(len(tree.order) > 2 for tree in forest.trees)

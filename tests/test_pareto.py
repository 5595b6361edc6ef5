"""Tests for Pareto-frontier and depth-bounded mapping."""

import pytest

from tests.util import make_random_network, make_random_tree_network
from repro.core.chortle import ChortleMapper
from repro.core.forest import build_forest
from repro.core.tree_mapper import TreeMapper
from repro.errors import MappingError
from repro.extensions.pareto import (
    DepthBoundedMapper,
    ParetoTreeMapper,
    _pareto_insert,
    candidate_leaf_levels,
)
from repro.verify import verify_equivalence


class TestParetoPrimitives:
    def test_insert_keeps_nondominated(self):
        entries = []
        _pareto_insert(entries, (3, 5, None))
        _pareto_insert(entries, (5, 3, None))
        _pareto_insert(entries, (4, 4, None))
        assert len(entries) == 3

    def test_insert_drops_dominated(self):
        entries = []
        _pareto_insert(entries, (3, 3, None))
        _pareto_insert(entries, (4, 4, None))
        assert [(c, a) for c, a, _ in entries] == [(3, 3)]

    def test_insert_replaces_dominated(self):
        entries = []
        _pareto_insert(entries, (4, 4, None))
        _pareto_insert(entries, (3, 3, None))
        assert [(c, a) for c, a, _ in entries] == [(3, 3)]


class TestTreeFrontier:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k", [3, 4])
    def test_frontier_min_cost_matches_exact_mapper(self, seed, k):
        """The cheapest frontier point equals Chortle's optimum."""
        net = make_random_tree_network(seed, depth=3)
        forest = build_forest(net)
        frontier = ParetoTreeMapper(k).map_tree_frontier(net, forest.trees[0])
        exact = TreeMapper(k).map_tree(net, forest.trees[0])
        assert frontier[0].cost == exact.cost

    @pytest.mark.parametrize("seed", range(6))
    def test_frontier_is_nondominated_and_sorted(self, seed):
        net = make_random_tree_network(seed, depth=3)
        forest = build_forest(net)
        frontier = ParetoTreeMapper(4).map_tree_frontier(net, forest.trees[0])
        costs = [c.cost for c in frontier]
        assert costs == sorted(costs)
        for a, b in zip(frontier, frontier[1:]):
            assert b.cost > a.cost and b.input_depth < a.input_depth

    def test_leaf_arrivals_propagate(self):
        net = make_random_tree_network(1, depth=2)
        forest = build_forest(net)
        tree = forest.trees[0]
        late = {leaf: 7 for leaf in tree.leaves}
        shifted = ParetoTreeMapper(4).map_tree_frontier(net, tree, late)
        assert min(c.input_depth for c in shifted) >= 7

    def test_k_validated(self):
        with pytest.raises(MappingError):
            ParetoTreeMapper(1)


class TestLeafLevels:
    def test_levels_of_simple_candidate(self):
        net = make_random_tree_network(2, depth=2)
        forest = build_forest(net)
        cand = TreeMapper(3).map_tree(net, forest.trees[0])
        levels = candidate_leaf_levels(cand)
        assert set(levels) <= forest.trees[0].leaves
        assert max(levels.values()) == cand.depth


class TestDepthBoundedMapper:
    @pytest.mark.parametrize("seed", range(8))
    def test_equivalence_and_bound(self, seed):
        net = make_random_network(seed, num_gates=12)
        mapper = DepthBoundedMapper(k=4, slack=0)
        circuit = mapper.map(net)
        verify_equivalence(net, circuit)
        assert circuit.depth() <= mapper.optimal_depth(net)

    @pytest.mark.parametrize("seed", range(8))
    def test_large_slack_recovers_area_optimum(self, seed):
        net = make_random_network(seed, num_gates=12)
        relaxed = DepthBoundedMapper(k=4, slack=1000).map(net)
        exact = ChortleMapper(k=4).map(net)
        verify_equivalence(net, relaxed)
        assert relaxed.cost <= exact.cost + 1

    @pytest.mark.parametrize("seed", range(6))
    def test_depth_never_worse_than_chortle(self, seed):
        net = make_random_network(seed, num_gates=12)
        bounded = DepthBoundedMapper(k=4, slack=0).map(net)
        chortle = ChortleMapper(k=4).map(net)
        assert bounded.depth() <= chortle.depth()

    @pytest.mark.parametrize("seed", range(6))
    def test_slack_sweep_monotone(self, seed):
        """More slack can only shrink area and grow depth (weakly)."""
        net = make_random_network(seed, num_gates=12)
        costs = []
        for slack in (0, 1, 2, 1000):
            circuit = DepthBoundedMapper(k=4, slack=slack).map(net)
            verify_equivalence(net, circuit)
            costs.append(circuit.cost)
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_helper(self, fig1):
        circuit = DepthBoundedMapper(k=3, slack=0).map(fig1)
        verify_equivalence(fig1, circuit)

    def test_passthrough_outputs(self):
        from repro.network.network import BooleanNetwork

        net = BooleanNetwork("p")
        net.add_input("a")
        net.set_output("y", "a")
        circuit = DepthBoundedMapper(k=4).map(net)
        verify_equivalence(net, circuit)

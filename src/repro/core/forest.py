"""Partitioning a boolean network into maximal fanout-free trees.

Following Section 3 of the paper: every edge leaving a node with
out-degree greater than one is conceptually redirected through a new
pseudo-input, turning the DAG into a forest of maximal fanout-free trees.
Here the redirection is implicit: a *tree root* is any gate that drives
an output port or is read by other than exactly one gate; every other
gate belongs to the tree of its unique consumer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set

from repro.errors import MappingError
from repro.network.network import CONST0, CONST1, INPUT, BooleanNetwork


@dataclass
class Tree:
    """One maximal fanout-free tree.

    ``root`` and ``internal`` are gate nodes of the network; ``leaves``
    are the external node names referenced by the tree's fanin edges
    (primary inputs or roots of other trees).  ``order`` lists
    ``internal`` in the network's topological order, so it ends with the
    root; :func:`build_forest` fills it.
    """

    root: str
    internal: Set[str] = field(default_factory=set)
    leaves: Set[str] = field(default_factory=set)
    order: List[str] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        return len(self.internal)

    def __repr__(self) -> str:
        return "Tree(root=%r, nodes=%d, leaves=%d)" % (
            self.root,
            len(self.internal),
            len(self.leaves),
        )


@dataclass
class Forest:
    """The forest of trees covering a network, roots in topological order."""

    network: BooleanNetwork
    trees: List[Tree] = field(default_factory=list)

    @property
    def num_trees(self) -> int:
        return len(self.trees)

    def tree_of(self, root: str) -> Tree:
        for tree in self.trees:
            if tree.root == root:
                return tree
        raise MappingError("no tree rooted at %r" % root)


def tree_roots(network: BooleanNetwork) -> Set[str]:
    """Gate nodes that must become tree roots."""
    gate_uses: Dict[str, int] = {name: 0 for name in network.names()}
    for node in network.gates():
        for sig in node.fanins:
            gate_uses[sig.name] += 1
    port_driven = {sig.name for sig in network.outputs.values()}
    roots = set()
    for node in network.gates():
        if node.name in port_driven or gate_uses[node.name] != 1:
            roots.add(node.name)
    return roots


def build_forest(network: BooleanNetwork) -> Forest:
    """Split the network into maximal fanout-free trees.

    This is the only way into a forest: the result has passed
    :func:`check_forest`, and every tree carries its :attr:`Tree.order`,
    so no per-tree pass sorts the network again.
    """
    roots = tree_roots(network)
    order = network.topological_order()
    forest = Forest(network)
    for name in order:
        if name not in roots:
            continue
        tree = Tree(root=name)
        stack = [name]
        while stack:
            cur = stack.pop()
            node = network.node(cur)
            tree.internal.add(cur)
            for sig in node.fanins:
                child = network.node(sig.name)
                if child.op == INPUT or child.op in (CONST0, CONST1):
                    tree.leaves.add(sig.name)
                elif sig.name in roots:
                    tree.leaves.add(sig.name)
                else:
                    if sig.name in tree.internal:
                        raise MappingError(
                            "node %r reached twice inside one tree; "
                            "network is not properly fanout-partitioned"
                            % sig.name
                        )
                    stack.append(sig.name)
        forest.trees.append(tree)
    check_forest(forest)
    for tree, tree_order in zip(forest.trees, tree_orders(forest, order)):
        tree.order = tree_order
    return forest


def tree_orders(forest: Forest, order: List[str]) -> List[List[str]]:
    """Per-tree topological node orders sliced from one network ``order``.

    Every per-tree pass (the tree DP, bin packing, the Pareto DP, library
    covering, refactoring) walks its tree's internal nodes in topological
    order; filtering ``network.topological_order()`` per tree would be
    O(trees x network), quadratic on tree-heavy networks.  One slicing
    pass over the order :func:`build_forest` already holds is linear,
    and each slice keeps the global order, so every pass visits nodes in
    exactly the same sequence either way.
    """
    owner: Dict[str, int] = {}
    for index, tree in enumerate(forest.trees):
        for name in tree.internal:
            owner[name] = index
    orders: List[List[str]] = [[] for _ in forest.trees]
    for name in order:
        index = owner.get(name)
        if index is not None:
            orders[index].append(name)
    return orders


def check_forest(forest: Forest) -> None:
    """Verify the forest partitions the network's gates and edges."""
    seen: Set[str] = set()
    for tree in forest.trees:
        overlap = seen & tree.internal
        if overlap:
            raise MappingError(
                "gates %s appear in more than one tree" % sorted(overlap)
            )
        seen |= tree.internal
    all_gates = {n.name for n in forest.network.gates()}
    missing = all_gates - seen
    if missing:
        raise MappingError("gates %s not covered by any tree" % sorted(missing))

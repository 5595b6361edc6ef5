"""Reference implementation: the paper's exhaustive search, transliterated.

This module re-implements tree mapping exactly as Figure 4's pseudo-code
describes it — enumerate every set partition of a node's fanins into
groups (each group a single fanin or an intermediate node), and for each
partition every utilization division — without the subset-DP acceleration
used by :mod:`repro.core.tree_mapper`.  It computes costs only and is
exponential, so it is used solely as a cross-check oracle in the test
suite, pinning the fast mapper to the paper's specification.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import MappingError
from repro.core.forest import Tree
from repro.network.network import BooleanNetwork

_INF = float("inf")

# Reference fanin items: ("ext",) for a leaf edge or ("table", cost_list).
RefItem = Tuple


def set_partitions(elements: Sequence) -> List[List[List]]:
    """All partitions of ``elements`` into non-empty blocks."""
    elements = list(elements)
    if not elements:
        return [[]]
    first, rest = elements[0], elements[1:]
    partitions = []
    for sub in set_partitions(rest):
        # Put `first` into each existing block, or into a new block.
        for i in range(len(sub)):
            partitions.append(sub[:i] + [[first] + sub[i]] + sub[i + 1:])
        partitions.append([[first]] + sub)
    return partitions


def _block_options(block: List[RefItem], k: int) -> List[Tuple[int, float]]:
    """(inputs consumed, cost) options for one group of a decomposition."""
    if len(block) == 1:
        item = block[0]
        if item[0] == "ext":
            return [(1, 0)]
        table = item[1]
        options: List[Tuple[int, float]] = []
        if table[k] is not None:
            options.append((1, table[k]))
        for uc in range(2, k + 1):
            if table[uc] is not None:
                options.append((uc, table[uc] - 1))
        return options
    # An intermediate node: a single input to the root lookup table.
    sub_table = exhaustive_node_costs("op", block, k)
    if sub_table[k] is None:
        return []
    return [(1, sub_table[k])]


def exhaustive_node_costs(
    op: str, items: Sequence[RefItem], k: int
) -> List[Optional[float]]:
    """minmap costs (index = utilization bound) by exhaustive enumeration."""
    items = list(items)
    if len(items) < 2:
        raise MappingError("reference mapper needs at least two fanins")
    best: List[float] = [_INF] * (k + 1)
    for partition in set_partitions(items):
        if len(partition) < 2:
            continue  # a single group is not a decomposition
        per_block = [_block_options(block, k) for block in partition]
        if any(not options for options in per_block):
            continue
        for choice in itertools.product(*per_block):
            consumed = sum(c for c, _ in choice)
            if consumed > k:
                continue
            cost = 1 + sum(c for _, c in choice)
            if cost < best[consumed]:
                best[consumed] = cost
    # Monotonize to the at-most-u convention used by the fast mapper.
    for u in range(1, k + 1):
        if best[u - 1] < best[u]:
            best[u] = best[u - 1]
    return [None if c is _INF else c for c in best]


def exhaustive_map_tree(network: BooleanNetwork, tree: Tree, k: int) -> int:
    """Minimum LUT count of a tree per the paper's exhaustive procedure."""
    tables: Dict[str, List[Optional[float]]] = {}
    for name in tree.order:
        node = network.node(name)
        items: List[RefItem] = []
        for sig in node.fanins:
            if sig.name in tables:
                items.append(("table", tables[sig.name]))
            else:
                items.append(("ext",))
        tables[name] = exhaustive_node_costs(node.op, items, k)
    cost = tables[tree.root][k]
    if cost is None:
        raise MappingError("no feasible mapping for tree %r" % tree.root)
    return int(cost)
